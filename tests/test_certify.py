import itertools
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plqnewton.benchmarks import (
    b1_flat,
    b1_minimax,
    b1_negated,
    cross_l1,
    expsin_ls,
    l1_kink,
    l1_plq,
    nlp_plq,
    rosenbrock_ls,
)
from plqnewton import calculus, certify, composite, manifold, plq, simplex
from plqnewton.certify import certify_sosc, certify_subregularity
from plqnewton.cli import main, run_report
from plqnewton.composite import CompositeProblem
from plqnewton.errors import PreconditionError
from plqnewton.exprmap import SmoothMap
from plqnewton.manifold import build_manifold
from plqnewton.numerics import matrix_rank_rel, nullspace_basis
from plqnewton.problems import ProblemFile, parse_problem_dict
from plqnewton.solver import solve_subproblem_enum

from oracles import restricted_kkt_matrix, rotated_map


class TestSOSC:
    def test_b1_subspace_mode(self):
        # Oracle: A^T Jac = (0, -4), so Z spans {(d1, 0)}; H = 2 I and Q = 0
        # give reduced curvature 2 on either active piece.
        b = b1_minimax()
        jac = b.problem.c.jacobian([0.0, 0.0])
        md = build_manifold(b.problem.h, b.problem.c.value([0.0, 0.0]))
        assert np.allclose(md.A.T @ jac, [[0.0, -4.0]])
        rep = certify_sosc(b.problem, b.xbar, b.ybar, md)
        assert rep.mode == "certified-subspace"
        assert rep.subspace_dim == 1
        assert rep.passed
        for _, eig in rep.piece_min_eigs:
            assert eig == pytest.approx(2.0)

    def test_negated_b1_fails(self):
        b = b1_negated()
        rep = certify_sosc(b.problem, b.xbar, b.ybar)
        assert not rep.passed
        for _, eig in rep.piece_min_eigs:
            assert eig == pytest.approx(-2.0)

    def test_smooth_least_squares_identity(self):
        p = CompositeProblem(
            rosenbrock_ls().problem.h, SmoothMap.from_strings(["x1", "x2"], 2))
        rep = certify_sosc(p, [0.0, 0.0], [0.0, 0.0])
        assert rep.mode == "certified-subspace"
        assert rep.passed
        assert rep.piece_min_eigs[0][1] == pytest.approx(1.0)

    def test_interior_pair_stationary_to_the_precondition(self):
        # Inside one piece the non-ascent set is all of R^n whatever sc says.
        # At xbar + 1e-9, stationary only to the 1e-6 precondition, the exact
        # multiplier set is empty, so sc fails; the check stays on Z = I_n.
        b = expsin_ls()
        x = b.xbar + 1e-9
        assert not composite.analyze_point(b.problem, x).cqs.sc
        rep = certify_sosc(b.problem, x, b.ybar)
        exact = certify_sosc(b.problem, b.xbar, b.ybar)
        assert rep.mode == exact.mode == "certified-subspace"
        assert rep.subspace_dim == b.problem.n and rep.passed
        assert rep.piece_min_eigs[0][1] == pytest.approx(exact.piece_min_eigs[0][1], rel=1e-6)

    def test_requires_stationarity(self):
        b = b1_minimax()
        with pytest.raises(PreconditionError):
            certify_sosc(b.problem, [0.5, 0.5], [1.0, 0.0])

    def test_cone_mode_on_flat_problem(self):
        # Jac = 0 at xbar, so each piece's critical cone is all of R^2, a
        # lineality space on which H = diag(2, 0) has the flat direction e2.
        b = b1_flat()
        rep = certify_sosc(b.problem, b.xbar, b.ybar)
        assert rep.mode == "certified-cone"
        assert not rep.passed
        assert rep.piece_min_eigs == ((0, pytest.approx(0.0, abs=1e-12)),
                                      (1, pytest.approx(0.0, abs=1e-12)))

    def test_invariant_under_orthogonal_reparameterization(self):
        rng = np.random.default_rng(31)
        b = b1_minimax()
        base = certify_sosc(b.problem, b.xbar, b.ybar)
        for _ in range(5):
            U = np.linalg.qr(rng.standard_normal((2, 2)))[0]
            rotated = CompositeProblem(b.problem.h, rotated_map(b.problem.c, U))
            rep = certify_sosc(rotated, U.T @ b.xbar, b.ybar)
            assert rep.passed == base.passed
            eigs0 = sorted(v for _, v in base.piece_min_eigs)
            eigs1 = sorted(v for _, v in rep.piece_min_eigs)
            assert np.allclose(eigs0, eigs1, atol=1e-8)

    def test_rayleigh_quotients_bound_reported_eigs(self):
        rng = np.random.default_rng(41)
        b = b1_minimax()
        md = build_manifold(b.problem.h, b.problem.c.value(b.xbar))
        rep = certify_sosc(b.problem, b.xbar, b.ybar, md)
        jac = b.problem.c.jacobian(b.xbar)
        H = b.problem.c.weighted_hessian(b.xbar, b.ybar)
        from plqnewton.numerics import nullspace_basis

        Z = nullspace_basis(md.A.T @ jac)
        for j, (k, eig) in enumerate(rep.piece_min_eigs):
            G = jac.T @ b.problem.h.pieces[k].Q @ jac + H
            M = Z.T @ G @ Z
            best = np.inf
            for _ in range(1000):
                z = rng.standard_normal(Z.shape[1])
                nz = np.linalg.norm(z)
                if nz < 1e-12:
                    continue
                best = min(best, (z @ M @ z) / (nz * nz))
            assert best >= eig - 1e-9


class TestSubregularity:
    def test_b1_certified(self):
        b = b1_minimax()
        cert = certify_subregularity(b.problem, b.xbar)
        assert cert.m_singleton
        assert cert.conclusion == "strongly-metrically-subregular"

    def test_duplicated_component_not_certified(self):
        p = CompositeProblem(l1_plq(), SmoothMap.from_strings(["x1", "x1"], 1))
        cert = certify_subregularity(p, [0.0])
        assert not cert.m_singleton
        assert cert.conclusion == "not-certified"

    def test_flat_direction_not_certified(self):
        cert = certify_subregularity(b1_flat().problem, [0.0, 0.0])
        assert cert.conclusion == "not-certified"
        assert not cert.m_singleton

    def test_l1_kink_and_cross_certified(self):
        for bench in (l1_kink(), cross_l1()):
            cert = certify_subregularity(bench.problem, bench.xbar)
            assert cert.conclusion == "strongly-metrically-subregular", (bench.name, cert.reasons)

    def test_certified_implies_isolated_linearized_solution(self):
        # Whenever the certificate concludes, the structure enumeration finds
        # the solution pair as the only critical point within radius 0.1.
        from plqnewton.solver import solve_subproblem_enum

        for bench in (b1_minimax(), l1_kink(), cross_l1()):
            cert = certify_subregularity(bench.problem, bench.xbar)
            assert cert.conclusion == "strongly-metrically-subregular"
            H = bench.problem.c.weighted_hessian(bench.xbar, bench.ybar)
            sols = solve_subproblem_enum(bench.problem, bench.xbar, H)
            near = [s for s in sols
                    if np.linalg.norm(s.d) + np.linalg.norm(s.y - bench.ybar) <= 0.1]
            assert len(near) == 1
            assert near[0].unique
            assert np.linalg.norm(near[0].d) <= 1e-9
            assert np.linalg.norm(near[0].y - bench.ybar) <= 1e-9

    def test_sosc_invariant_under_piece_permutation(self):
        # Swapping the two pieces of the max function relabels the manifold
        # bookkeeping but must not change the certificate.
        from plqnewton.plq import PLQFunction

        b = b1_minimax()
        h = b.problem.h
        swapped = PLQFunction(2, h.hyperplanes, (h.pieces[1], h.pieces[0]))
        p2 = CompositeProblem(swapped, b.problem.c)
        rep1 = certify_sosc(b.problem, b.xbar, b.ybar)
        rep2 = certify_sosc(p2, b.xbar, b.ybar)
        assert rep1.passed == rep2.passed
        eigs1 = sorted(v for _, v in rep1.piece_min_eigs)
        eigs2 = sorted(v for _, v in rep2.piece_min_eigs)
        assert np.allclose(eigs1, eigs2, atol=1e-10)


class TestSinglePieceBoundary:
    def test_weakly_active_boundary_point_certified_on_the_cone(self):
        # One piece with an active domain hyperplane at the solution, weakly
        # active: ybar = (1, 0) puts the constraint's multiplier at 0, so sc
        # fails and the one-piece manifold's subspace does not apply. The
        # critical cone is the ray d <= 0, with curvature 2 on it.
        p = CompositeProblem(nlp_plq(), SmoothMap.from_strings(["x1^2", "x1"], 1))
        xbar = np.array([0.0])
        ybar = np.array([1.0, 0.0])
        assert not composite.analyze_point(p, xbar).cqs.sc
        rep = certify_sosc(p, xbar, ybar)
        assert rep.mode == "certified-cone"
        assert rep.passed
        assert rep.piece_min_eigs == ((0, pytest.approx(2.0, abs=1e-12)),)
        cert = certify_subregularity(p, xbar)
        assert cert.m_singleton
        assert cert.conclusion == "strongly-metrically-subregular"
        assert cert.reasons == ()
        # The structure-enumeration path still works at the solution.
        from plqnewton.solver import solve_subproblem_enum

        sols = solve_subproblem_enum(p, xbar, p.c.weighted_hessian(xbar, ybar))
        assert sols and np.linalg.norm(sols[0].d) <= 1e-10


def _nlp(c1="x1^2 + x2^2", c2="1 - x1"):
    """The nonlinear program min c1(x) s.t. c2(x) <= 0, as h = c1 + indicator(c2 <= 0)
    composed with c = (c1, c2). With the defaults its solution is xbar = (1, 0)
    with ybar = (1, 2): one piece, one strictly active domain hyperplane."""
    return CompositeProblem(nlp_plq(), SmoothMap.from_strings([c1, c2], 2))


NLP_XBAR, NLP_YBAR = np.array([1.0, 0.0]), np.array([1.0, 2.0])


class TestNonlinearProgram:
    """One piece with an active domain hyperplane: the one-piece manifold
    certifies sufficiency on Null(A^T Jac), the critical subspace of the
    active constraint, as in nonlinear programming."""

    def test_reference_certified_on_the_subspace(self):
        cert = certify_subregularity(_nlp(), NLP_XBAR)
        assert cert.conclusion == "strongly-metrically-subregular", cert.reasons
        assert cert.m_singleton and cert.reasons == ()
        # Null(A^T Jac) = span{e2}, where the Lagrangian Hessian y1 * 2 I has
        # curvature 2.
        assert cert.sosc.mode == "certified-subspace"
        assert cert.sosc.subspace_dim == 1
        assert cert.sosc.piece_min_eigs == ((0, pytest.approx(2.0, abs=1e-12)),)
        pa = composite.analyze_point(_nlp(), NLP_XBAR)
        assert pa.cqs.sc and np.allclose(pa.multipliers.y, NLP_YBAR, atol=1e-12)

    def test_curved_constraint_certified(self):
        # c2 = 1 - x1 - x2^2 / 4 curves the boundary toward the objective's
        # level sets without crossing them: curvature 2 - 2 * 2 / 4 = 1.
        cert = certify_subregularity(_nlp(c2="1 - x1 - 0.25*x2^2"), NLP_XBAR)
        assert cert.conclusion == "strongly-metrically-subregular", cert.reasons
        assert cert.sosc.mode == "certified-subspace"
        assert cert.sosc.piece_min_eigs == ((0, pytest.approx(1.0, abs=1e-12)),)

    def test_negative_curvature_twin_refused(self):
        # c1 = x1^2 - x2^2: the same stationary pair, curvature -2 along the
        # boundary, so (1, 0) is a saddle and the certificate is refused.
        cert = certify_subregularity(_nlp(c1="x1^2 - x2^2"), NLP_XBAR)
        assert cert.conclusion == "not-certified"
        assert cert.sosc.mode == "certified-subspace" and not cert.sosc.passed
        assert cert.sosc.piece_min_eigs == ((0, pytest.approx(-2.0, abs=1e-12)),)
        assert "reduced second-order sufficiency fails" in cert.reasons

    def test_certify_report_shows_the_face(self):
        # The report certifies on the one-piece face and shows it: the
        # manifold, the constraint's multiplier 2 and partial smoothness.
        pf = ProblemFile("nlp", _nlp(), (NLP_XBAR, NLP_YBAR), None, None)
        report, code = run_report(pf, "certify", {"seed": 42})
        assert code == 0
        assert report["manifold"]["active_pieces"] == [0]
        assert report["manifold"]["active_hyperplanes"] == [0]
        assert report["strictness"]["mu"] == [[2.0]]
        assert report["partial_smoothness"]["certified"] is True


def _cone_problem(M, A, w=None):
    """min 0.5 x^T M x + sum_i 0.5 w_i (a_i^T x)^2 s.t. A x <= 0, as one piece
    h = c1 + sum_i 0.5 w_i c_(i+1)^2 + indicators(c_(i+1) <= 0) composed with
    c = (0.5 x^T M x, A x). At xbar = 0 with ybar = e1 every constraint is
    weakly active and the critical cone is {d : A d <= 0}, on which the
    curvature is d^T (M + A^T diag(w) A) d."""
    M, A = np.asarray(M, dtype=float), np.asarray(A, dtype=float)
    (q, n), m = A.shape, A.shape[0] + 1
    w = np.zeros(q) if w is None else np.asarray(w, dtype=float)
    h = plq.PLQFunction(m, [plq.Hyperplane(np.eye(m)[i + 1], 0.0) for i in range(q)],
                        [plq.Piece(np.ones(q), np.diag(np.r_[0.0, w]), np.eye(m)[0])])
    quad = " + ".join(f"{float(0.5 * M[i, j])!r}*x{i + 1}*x{j + 1}"
                      for i in range(n) for j in range(n))
    rows = [" + ".join(f"{float(A[i, j])!r}*x{j + 1}" for j in range(n)) for i in range(q)]
    return CompositeProblem(h, SmoothMap.from_strings([quad] + rows, n))


def _orthant(k):
    """The orthant instance: curvature [[1, k], [k, 1]] on the cone d >= 0."""
    return _cone_problem([[1.0, k], [k, 1.0]], -np.eye(2))


def _polygon_cone(rays):
    """A problem file whose critical cone at the reference is the cone over a
    regular polygon with `rays` vertices, with curvature I on it."""
    th = 2 * np.pi * np.arange(rays) / rays
    doc = {"name": f"polygon{rays}", "n": 3, "m": 4,
           "h": {"m": 4,
                 "hyperplanes": [{"a": [0.0, float(np.cos(t)), float(np.sin(t)), -1.0],
                                  "alpha": 0.0} for t in th],
                 "pieces": [{"signs": [1] * rays, "b": [1.0, 0.0, 0.0, 0.0]}]},
           "c": ["0.5*x1^2 + 0.5*x2^2 + 0.5*x3^2", "x1", "x2", "x3"],
           "reference": {"x": [0.0] * 3, "y": [1.0, 0.0, 0.0, 0.0]}}
    return doc


def _face_minimum(M, A):
    """min d^T M d over unit d with A d <= 0, exactly: the minimizer of
    smallest face is an eigenvector of M compressed to that face's span
    Null(A_T), for some row subset T (the rows tight on the face)."""
    best = np.inf
    for size in range(A.shape[0] + 1):
        for T in itertools.combinations(range(A.shape[0]), size):
            P = nullspace_basis(A[list(T)]) if T else np.eye(A.shape[1])
            if not P.shape[1]:
                continue
            vals, vecs = np.linalg.eigh(P.T @ M @ P)
            for v, d in zip(vals, (P @ vecs).T):
                if np.all(A @ d <= 1e-9) or np.all(A @ d >= -1e-9):
                    best = min(best, v)
    return best


def _sampled_curvature(M, A, rng, samples=400):
    """d^T M d at unit directions d with A d <= 0, drawn densely in the cone and
    on each face of it: random directions projected onto Null(A_T) for every
    row subset T."""
    n = A.shape[1]
    out = []
    for size in range(min(A.shape[0], n - 1) + 1):
        for T in itertools.combinations(range(A.shape[0]), size):
            P = nullspace_basis(A[list(T)]) if T else np.eye(n)
            D = rng.standard_normal((samples, P.shape[1])) @ P.T
            D = np.vstack([D, -D])
            D = D[np.all(D @ A.T <= 1e-12, axis=1)]
            D = D[np.linalg.norm(D, axis=1) > 1e-9]
            D /= np.linalg.norm(D, axis=1)[:, None]
            out.extend(np.einsum("ij,jk,ik->i", D, M, D))
    return np.array(out)


_GRID = st.sampled_from((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0))


class TestCriticalCone:
    """Without strict complementarity SOSC is decided exactly on each active
    piece's critical cone: strict copositivity of its curvature there."""

    def test_weakly_active_instance_certified(self):
        # min x1^2 + x2^2 s.t. x1 <= 0: the cone is the half-plane d1 <= 0
        # with lineality e2, where H = 2 I.
        cert = certify_subregularity(_nlp(c2="x1"), [0.0, 0.0])
        assert cert.conclusion == "strongly-metrically-subregular", cert.reasons
        assert cert.m_singleton and cert.sosc.mode == "certified-cone"
        assert cert.sosc.piece_min_eigs == ((0, pytest.approx(2.0, abs=1e-12)),)

    def test_weakly_active_negative_curvature_twin_refused(self):
        cert = certify_subregularity(_nlp(c1="x1^2 - x2^2", c2="x1"), [0.0, 0.0])
        assert cert.conclusion == "not-certified"
        assert cert.m_singleton and cert.sosc.mode == "certified-cone"
        assert cert.sosc.piece_min_eigs == ((0, pytest.approx(-2.0, abs=1e-12)),)
        assert cert.reasons == ("reduced second-order sufficiency fails",)

    def test_orthant_instance_certified(self):
        # [[1, 3], [3, 1]] is indefinite but strictly copositive: its least
        # eigenvalue with a positive eigenvector is the diagonal's 1.
        cert = certify_subregularity(_orthant(3.0), [0.0, 0.0])
        assert cert.conclusion == "strongly-metrically-subregular", cert.reasons
        assert cert.sosc.mode == "certified-cone"
        assert cert.sosc.piece_min_eigs == ((0, pytest.approx(1.0, abs=1e-12)),)

    def test_orthant_twin_refused(self):
        # With -3 the eigenvector (1, 1) is positive, with eigenvalue -2.
        cert = certify_subregularity(_orthant(-3.0), [0.0, 0.0])
        assert cert.conclusion == "not-certified" and cert.m_singleton
        assert cert.sosc.piece_min_eigs == ((0, pytest.approx(-2.0, abs=1e-12)),)

    def test_linear_increase_leaves_the_critical_cone(self):
        # h = max(c1, c2) + 1.5 (c1 - c2)_+^2 and c = (x1^2 - x2^2, x2), at a
        # kink with the unique multiplier (1, 0). On piece 1 (value c2) the
        # rows d2 >= 0 of its tangent cone and d2 <= 0 of its gradient leave
        # the line d2 = 0, where the curvature is 2; d = e2 raises h at
        # first order. Piece 0's quadratic lifts its cone d2 <= 0 to 1.
        h = plq.PLQFunction(2, [plq.Hyperplane([1.0, -1.0], 0.0)], [
            plq.Piece([-1], 3.0 * np.array([[1.0, -1.0], [-1.0, 1.0]]), [1.0, 0.0]),
            plq.Piece([1], np.zeros((2, 2)), [0.0, 1.0])])
        p = CompositeProblem(h, SmoothMap.from_strings(["x1^2 - x2^2", "x2"], 2))
        assert plq.validate_representation(h).all_pass
        cert = certify_subregularity(p, [0.0, 0.0])
        assert cert.conclusion == "strongly-metrically-subregular", cert.reasons
        assert cert.sosc.mode == "certified-cone"
        assert cert.sosc.piece_min_eigs == ((0, pytest.approx(1.0, abs=1e-12)),
                                            (1, pytest.approx(2.0, abs=1e-12)))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda n: st.tuples(
        st.lists(st.lists(_GRID, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.lists(_GRID, min_size=n - 1, max_size=n - 1), min_size=1, max_size=4),
        st.lists(st.sampled_from((0.0, 1.0)), min_size=4, max_size=4),
        st.integers(0, 2 ** 32 - 1))))
    def test_verdict_agrees_with_the_sampled_cone(self, case):
        # Rows a_i = (-1, r_i) keep e1 inside the cone, so the multiplier
        # e1 is the only one. Sampling never finds negative curvature on a
        # certified cone, and the verdict is the sign of the exact minimum
        # over the cone's faces wherever that minimum is clear of zero.
        M, R, w, seed = case
        M = np.asarray(M) + np.asarray(M).T
        A = np.hstack([-np.ones((len(R), 1)), np.asarray(R).reshape(len(R), -1)])
        w = np.asarray(w[:len(R)])
        rep = certify_sosc(_cone_problem(M, A, w), np.zeros(A.shape[1]), np.eye(len(R) + 1)[0])
        assert rep.mode == "certified-cone"
        curv = M + A.T @ np.diag(w) @ A
        sampled = _sampled_curvature(curv, A, np.random.default_rng(seed))
        exact = _face_minimum(curv, A)
        assert sampled.min() >= exact - 1e-9
        if rep.passed:
            assert sampled.min() > -1e-9
        if abs(exact) > 1e-6:
            assert rep.passed == (exact > 0)

    def test_ray_limit_is_a_regime_error(self, tmp_path, capsys):
        # The cone over a 13-gon has 13 rays, one above the limit: refused,
        # never sampled. At the limit the same cone is certified.
        assert certify.RAY_LIMIT == 12
        path = tmp_path / "polygon.json"
        path.write_text(json.dumps(_polygon_cone(13)))
        assert main(["certify", str(path)]) == 3
        assert "13 rays" in capsys.readouterr().err
        pf = parse_problem_dict(_polygon_cone(12))
        report, code = run_report(pf, "certify", {"seed": 42})
        assert code == 0 and report["subregularity"]["sosc"]["mode"] == "certified-cone"

    def test_certify_at_a_reference_draws_no_random_number(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.random.default_rng called")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        for build in (b1_flat, b1_minimax, b1_negated, cross_l1):
            pf = parse_problem_dict(build().as_problem_dict())
            run_report(pf, "certify", {"seed": 42})
        for p in (_orthant(3.0), _orthant(-3.0), _nlp(c2="x1")):
            assert certify_subregularity(p, [0.0, 0.0]).sosc.mode == "certified-cone"


class TestRestrictedKKTMatrix:
    def test_b1_nonsingular(self):
        b = b1_minimax()
        md = build_manifold(b.problem.h, b.problem.c.value(b.xbar))
        for j in range(md.kbar):
            M, ok = restricted_kkt_matrix(b.problem, md, b.xbar, b.ybar, j)
            assert ok
            assert M.shape == (2 + 2 + 1, 2 + 2 + 1)

    def test_constant_map_singular(self):
        b = b1_minimax()
        p = CompositeProblem(b.problem.h, SmoothMap.from_strings(
            ["0*x1 + 1", "0*x1 + 1"], 2))
        md = build_manifold(p.h, np.array([1.0, 1.0]))
        M, ok = restricted_kkt_matrix(p, md, [0.0, 0.0], [0.5, 0.5], 0)
        assert not ok

    def test_toy_3x3_determinant(self):
        # n = m = ell = 1 with H = 1, Jac = 1, Q = 0, A = 1, P = 1:
        # the matrix is [[1,1,0],[0,1,-1],[1,0,0]] with determinant -1.
        M = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, 0.0]])
        assert np.linalg.det(M) == pytest.approx(-1.0)
        assert matrix_rank_rel(M) == 3
        # The same matrix with its last row replaced by the sum of the first
        # two is singular, and the rank test says so.
        M[2] = M[0] + M[1]
        assert matrix_rank_rel(M) == 2


def _count_calls(monkeypatch, module, name):
    """Calls of module.name through every plqnewton module that binds it; each
    call records its positional arguments."""
    fn = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "plqnewton" and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


def _weighted_l1_crossing(w=(0.7, 1.3, 1.9), a=(0.3, -0.5, 0.4)):
    """sum_i w_i |c_i| with c_i = x_i + a_i x_{i+1}^2 (cyclic), s = len(w)
    hyperplanes and all 2^s sign pieces; x = 0 sits on the crossing with y = 0."""
    s = len(w)
    doc = {"name": f"crossing{s}", "n": s, "m": s,
           "h": {"m": s,
                 "hyperplanes": [{"a": list(np.eye(s)[i]), "alpha": 0.0} for i in range(s)],
                 "pieces": [{"signs": list(sg), "b": [-si * wi for si, wi in zip(sg, w)]}
                            for sg in itertools.product((-1, 1), repeat=s)]},
           "c": [f"x{i + 1} + {a[i]}*x{(i + 1) % s + 1}^2" for i in range(s)],
           "reference": {"x": [0.0] * s, "y": [0.0] * s}}
    return parse_problem_dict(doc)


class TestOneAnalysisPerPoint:
    """A certify run analyzes its point once: one subdifferential at c(xbar),
    from the profile the analysis already holds, one qualification chain, one
    manifold and one strictness check, and few LPs. One max-slack LP decides
    the implicit equalities of a full-dimensional subdifferential, so the LP
    count does not grow with the 2^(s-1) copies of each box facet, and the
    multiplier set's max-slack point is its point for `is_singleton`: the
    three LPs are the two max-slack LPs and the sc interior-slack LP."""

    def _certify(self, monkeypatch, pf, counted):
        calls = {name: _count_calls(monkeypatch, module, name) for module, name in counted}
        report, code = run_report(pf, "certify", {"seed": 42})
        assert code == 0
        assert report["subregularity"]["conclusion"] == "strongly-metrically-subregular"
        return calls

    def test_cross_l1_reference(self, monkeypatch):
        pf = parse_problem_dict(cross_l1().as_problem_dict())
        calls = self._certify(monkeypatch, pf, (
            (calculus, "subdiff_hrep_at"), (plq, "eval_with_active"),
            (composite, "qualification_chain"),
            (manifold, "build_manifold_at"), (manifold, "strictness_check"),
            (simplex, "solve_lp")))
        cbar = pf.problem.c.value(pf.reference[0])
        assert len(calls["subdiff_hrep_at"]) == 1
        assert np.array_equal(calls["subdiff_hrep_at"][0][2], cbar)
        assert len(calls["eval_with_active"]) == 1
        assert len(calls["qualification_chain"]) == 1
        assert len(calls["build_manifold_at"]) == 1
        assert len(calls["strictness_check"]) == 1
        assert len(calls["solve_lp"]) <= 3

    def test_three_hyperplane_crossing_reference(self, monkeypatch):
        calls = self._certify(monkeypatch, _weighted_l1_crossing(), ((simplex, "solve_lp"),))
        assert len(calls["solve_lp"]) <= 3

    def test_four_hyperplane_crossing_reference(self, monkeypatch):
        pf = _weighted_l1_crossing(w=(0.7, 1.3, 1.9, 0.9), a=(0.3, -0.5, 0.4, 0.6))
        calls = self._certify(monkeypatch, pf, ((simplex, "solve_lp"),))
        assert len(calls["solve_lp"]) <= 3

    def test_b1_minimax_reference(self, monkeypatch):
        pf = parse_problem_dict(b1_minimax().as_problem_dict())
        calls = self._certify(monkeypatch, pf, ((simplex, "solve_lp"),))
        assert len(calls["solve_lp"]) <= 3

    @pytest.mark.parametrize("s", range(3, 9))
    def test_crossing_lps_hold_each_box_facet_once(self, monkeypatch, s):
        # At a crossing of s hyperplanes each of the 2^s active pieces
        # contributes s facets of the box subdifferential, so each of the 2s
        # facets comes 2^(s-1) times. The analysis keeps one copy: every LP
        # has at most 2s + 1 inequality rows (the facets and t <= cap), not
        # s 2^s + 1.
        rows = []
        solve_lp = simplex.solve_lp

        def counted(c, F=None, f=None, E=None, e=None):
            rows.append(0 if F is None else len(F))
            return solve_lp(c, F, f, E, e)

        monkeypatch.setattr(simplex, "solve_lp", counted)
        rng = np.random.default_rng(s)
        pf = _weighted_l1_crossing(w=tuple(rng.uniform(0.5, 2.0, s)),
                                   a=tuple(rng.uniform(-0.5, 0.5, s)))
        report, code = run_report(pf, "certify", {"seed": 42})
        assert code == 0
        assert report["subregularity"]["conclusion"] == "strongly-metrically-subregular"
        assert 1 <= len(rows) <= 3
        assert max(rows) <= 2 * s + 1


class TestPolyhedralDataOnce:
    """What depends on h alone is computed once per PLQ function: piece
    interior points, and the tangent-cone generators of each (piece, active
    set). Counted on the s = 3 weighted-l1 crossing."""

    def test_validation_solves_one_lp_per_piece_and_pair(self, monkeypatch):
        h = _weighted_l1_crossing().problem.h
        lps = _count_calls(monkeypatch, simplex, "solve_lp")
        rep = plq.validate_representation(h)
        assert rep.all_pass
        # 8 interior points and the 19 faces the 28 pairs share: one LP each.
        assert len(lps) <= 36

    def test_enumeration_converts_each_cone_once(self, monkeypatch):
        p = _weighted_l1_crossing().problem
        x0, y0 = np.array([0.05, -0.04, 0.06]), np.array([0.1, -0.1, 0.05])
        H = p.c.evaluate(x0, y0).H
        subdiffs = _count_calls(monkeypatch, calculus, "subdiff_hrep")
        cones = _count_calls(monkeypatch, calculus, "cone_generators")
        first = solve_subproblem_enum(p, x0, H)
        assert first and len(subdiffs) <= 1
        converted = len(cones)
        again = solve_subproblem_enum(p, x0, H)
        assert len(cones) == converted
        assert [(e.piece, e.active_set, e.model_value) for e in again] == \
            [(e.piece, e.active_set, e.model_value) for e in first]

    def test_cone_sosc_evaluates_h_once(self, monkeypatch):
        pf = parse_problem_dict(b1_flat().as_problem_dict())
        evals = _count_calls(monkeypatch, plq, "eval_with_active")
        report, code = run_report(pf, "certify", {"seed": 42})
        assert code == 1
        assert report["subregularity"]["sosc"]["mode"] == "certified-cone"
        assert len(evals) <= 10
