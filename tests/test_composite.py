import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plqnewton.benchmarks import b1_flat, b1_minimax, l1_kink, l1_plq, l1sq_plq, max2_plq
from plqnewton.calculus import PolyhedronH, subdiff_hrep, dir_deriv_first
from plqnewton.composite import (
    CompositeProblem,
    CQReport,
    check_cqs,
    kkt_residual,
    multiplier_set,
    nonascent_contains,
    qualification_chain,
)
from plqnewton.errors import DomainError, PreconditionError
from plqnewton.exprmap import SmoothMap
from plqnewton.plq import Hyperplane, Piece, PLQFunction

from oracles import is_empty, rotated_map
from plq_sampling import sample_domain_point


def _identity_problem(h):
    exprs = [f"x{i + 1}" for i in range(h.m)]
    return CompositeProblem(h, SmoothMap.from_strings(exprs, h.m))


class TestMultiplierSet:
    def test_b1_singleton_half_half(self):
        # Oracle: y1 + y2 = 1 on the subdifferential segment and
        # Jac(0,0)^T y = (0, -2y1 + 2y2) = 0 force y = (1/2, 1/2).
        b = b1_minimax()
        ms = multiplier_set(b.problem, [0.0, 0.0])
        assert ms.status == "singleton"
        assert np.allclose(ms.y, [0.5, 0.5], atol=1e-9)
        assert ms.bcq_holds

    def test_l1sq_identity_singleton_zero(self):
        p = _identity_problem(l1sq_plq())
        ms = multiplier_set(p, [0.0, 0.0])
        assert ms.status == "singleton"
        assert np.allclose(ms.y, [0.0, 0.0], atol=1e-9)

    def test_duplicated_component_nonsingleton(self):
        # c(x) = (x1, x1): multipliers are the segment {y1 + y2 = 0} n box.
        p = CompositeProblem(l1_plq(), SmoothMap.from_strings(["x1", "x1"], 1))
        ms = multiplier_set(p, [0.0])
        assert ms.status == "nonsingleton"
        # Hand oracle: (1, -1) and (-1, 1) are the extreme multipliers.
        assert ms.polyhedron.contains([1.0, -1.0])
        assert ms.polyhedron.contains([-1.0, 1.0])
        assert not ms.polyhedron.contains([0.5, 0.0])

    def test_domain_error(self):
        from plqnewton.benchmarks import nlp_plq

        p = _identity_problem(nlp_plq())
        with pytest.raises(DomainError):
            multiplier_set(p, [3.0, 1.0])

    def test_status_invariant_under_orthogonal_reparameterization(self):
        rng = np.random.default_rng(12)
        b = b1_minimax()
        for _ in range(10):
            A = rng.standard_normal((2, 2))
            U, _ = np.linalg.qr(A)
            rotated = CompositeProblem(b.problem.h, rotated_map(b.problem.c, U))
            ms0 = multiplier_set(b.problem, [0.0, 0.0])
            ms1 = multiplier_set(rotated, U.T @ np.zeros(2))
            assert ms0.status == ms1.status


class TestCheckCQs:
    def test_b1_all_pass(self):
        b = b1_minimax()
        rep = check_cqs(b.problem, [0.0, 0.0])
        assert rep.bcq and rep.tc and rep.sc
        assert np.allclose(rep.ybar, [0.5, 0.5], atol=1e-7)
        assert rep.m_singleton

    def test_tc_fails_for_duplicated_component(self):
        p = CompositeProblem(l1_plq(), SmoothMap.from_strings(["x1", "x1"], 1))
        rep = check_cqs(p, [0.0])
        assert rep.bcq and not rep.tc and not rep.sc and not rep.m_singleton

    def test_interior_point_bcq_trivial(self):
        p = _identity_problem(l1_plq())
        rep = check_cqs(p, [1.0, 2.0])
        assert rep.bcq

    def test_flat_problem_loses_tc(self):
        b = b1_flat()
        rep = check_cqs(b.problem, [0.0, 0.0])
        assert rep.bcq and not rep.tc and not rep.m_singleton

    def test_report_consistency_enforced(self):
        with pytest.raises(ValueError):
            CQReport(bcq=False, tc=True, sc=False, ybar=None, m_singleton=False)

    def test_l1_kink_sc(self):
        b = l1_kink()
        rep = check_cqs(b.problem, [0.0, 0.0])
        assert rep.sc
        assert np.allclose(rep.ybar, [0.0, 1.0], atol=1e-7)


class TestNonascent:
    def test_b1_tangent_direction(self):
        b = b1_minimax()
        assert nonascent_contains(b.problem, [0.0, 0.0], [1.0, 0.0])

    def test_b1_ascent_direction(self):
        # Oracle: h'(cbar; Jac d) with d = (0, 1): Jac d = (-2, 2), and
        # max-piece derivative is positive on either active piece.
        b = b1_minimax()
        assert not nonascent_contains(b.problem, [0.0, 0.0], [0.0, 1.0])

    def test_zero_direction(self):
        b = b1_minimax()
        assert nonascent_contains(b.problem, [0.3, -0.2], [0.0, 0.0])

    def test_precondition(self):
        # Constant map into the domain boundary of the nlp function: bcq fails.
        from plqnewton.benchmarks import nlp_plq

        p = CompositeProblem(nlp_plq(), SmoothMap.from_strings(["0*x1", "0*x1"], 1))
        with pytest.raises(PreconditionError):
            nonascent_contains(p, [0.0], [1.0])


class TestKKTResidual:
    def test_b1_solution_is_zero(self):
        b = b1_minimax()
        res = kkt_residual(b.problem, [0.0, 0.0], [0.5, 0.5])
        assert res.stationarity <= 1e-12
        assert res.subdiff_violation <= 1e-12

    def test_b1_bad_dual(self):
        b = b1_minimax()
        res = kkt_residual(b.problem, [0.0, 0.0], [1.0, 0.0])
        assert res.stationarity == pytest.approx(2.0)

    def test_infeasible_point_infinite_violation(self):
        from plqnewton.benchmarks import nlp_plq

        p = _identity_problem(nlp_plq())
        res = kkt_residual(p, [3.0, 1.0], [1.0, 0.0])
        assert math.isinf(res.subdiff_violation)


class TestChainRule:
    def test_support_maximizer_attains_directional_derivative(self):
        rng = np.random.default_rng(21)
        for build in (l1_plq, max2_plq, l1sq_plq):
            p = _identity_problem(build())
            h = p.h
            for _ in range(40):
                x = sample_domain_point(h, rng)
                sub = subdiff_hrep(h, x)
                d = rng.standard_normal(h.m)
                val = dir_deriv_first(h, x, d)
                if not val.is_finite:
                    continue
                support, ystar = sub.support(d)
                if ystar is None:
                    continue
                # Equality at the support maximizer, inequality for samples.
                assert val.value == pytest.approx(support, abs=1e-9)
                for _ in range(10):
                    w = rng.standard_normal(h.m)
                    _, y = sub.support(w)
                    if y is not None:
                        assert val.value >= y @ d - 1e-9


def _pure_instance(rng):
    """Criterion 8's draw: a polyhedron C in R^dim, dim in 1..4, of up to six
    random rows tight or slack at a random point, sometimes with an equality,
    and complement rows whose null space S is spanned by the first k columns
    of a random orthogonal Q. None when C is empty."""
    dim = int(rng.integers(1, 5))
    rows = int(rng.integers(1, 7))
    F = rng.standard_normal((rows, dim))
    y0 = rng.standard_normal(dim)
    f = F @ y0 + rng.uniform(0.0, 1.0, size=rows) * (rng.random(rows) > 0.3)
    n_eq = int(rng.integers(0, 2))
    E = rng.standard_normal((n_eq, dim))
    e = E @ y0
    poly = PolyhedronH(E, e, F, f)
    if is_empty(poly):
        return None
    k = int(rng.integers(0, dim + 1))
    Q = np.linalg.qr(rng.standard_normal((dim, dim)))[0] if k else np.eye(dim)
    return poly, Q[:, k:].T


class TestPredicateChain:
    def test_appendix_chain_on_random_instances(self):
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(200):
            drawn = _pure_instance(rng)
            if drawn is None:
                continue
            _, rep = qualification_chain(*drawn)
            assert not (rep.sc and not rep.tc), "sc must imply tc"
            assert not (rep.tc and not rep.m_singleton and rep.sc), "sc must imply a singleton"
            if rep.sc:
                assert rep.m_singleton
            assert not (rep.tc and not rep.bcq), "tc must imply bcq"
            assert not (rep.m_singleton and not rep.bcq), "a singleton must imply bcq"
            checked += 1
        assert checked >= 120


def _bcq_by_lp(C, rows):
    """The LP oracle of bcq: S = Null(rows) meets rec C = {d : E d = 0,
    F d <= 0} at some d != 0 exactly when one of the 2 dim LPs that also fix
    d_i = +/-1 is feasible."""
    from scipy.optimize import linprog

    dim = C.dim
    F = C.F if C.F.shape[0] else None
    for i in range(dim):
        for sgn in (1.0, -1.0):
            A_eq = np.vstack([rows, C.E, sgn * np.eye(dim)[i]])
            b_eq = np.zeros(A_eq.shape[0])
            b_eq[-1] = 1.0
            res = linprog(np.zeros(dim), A_ub=F, b_ub=None if F is None else np.zeros(len(F)),
                          A_eq=A_eq, b_eq=b_eq, bounds=[(None, None)] * dim, method="highs")
            if res.status == 0:
                return False
    return True


def _kink_with_boundary(rng):
    """(p, J, bcq_fails): sum_i w_i |c_i| over the first s of m coordinates on
    the domain {G c <= 0}, one or two integer rows G with a nonzero entry
    among the free coordinates, composed with c(x) = J x for an integer J, so
    c(0) = 0 lies on every hyperplane. With bcq_fails, J = (|v|^2 I - v v^T) M
    for a positive combination v of the rows of G, which puts v, a nonzero
    normal of dom h at 0, in Null(J^T)."""
    m = int(rng.integers(2, 5))
    s = int(rng.integers(1, m))
    free = m - s
    G = rng.integers(-2, 3, size=(int(rng.integers(1, min(2, free) + 1)), m)).astype(float)
    G[:, s:] = rng.integers(1, 3, size=(len(G), free)) * rng.choice((-1.0, 1.0), (len(G), free))
    w = rng.integers(1, 4, size=s).astype(float)
    b_free = rng.integers(-2, 3, size=free).astype(float)
    hps = [Hyperplane(np.eye(m)[i], 0.0) for i in range(s)] + [Hyperplane(g, 0.0) for g in G]
    pieces = [Piece(list(sg) + [1] * len(G), np.zeros((m, m)),
                    np.concatenate([-np.array(sg) * w, b_free]))
              for sg in itertools.product((-1, 1), repeat=s)]
    h = PLQFunction(m, hps, pieces, name="kink-boundary")
    n = int(rng.integers(1, 4))
    J = rng.integers(-2, 3, size=(m, n)).astype(float)
    bcq_fails = bool(rng.random() < 0.5)
    if bcq_fails:
        v = rng.integers(1, 3, size=len(G)) @ G
        J = (v @ v) * J - np.outer(v, v @ J)
    exprs = [" + ".join(f"({J[i, j]:.1f})*x{j + 1}" for j in range(n)) for i in range(m)]
    return CompositeProblem(h, SmoothMap.from_strings(exprs, n)), J, bcq_fails


class TestBcqAgainstLP:
    """`qualification_chain`'s bcq (implied by tc, else double description on
    rec C restricted to S n par C) against an LP sweep over rec C n S."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 16))
    def test_composite_kinks(self, seed):
        p, J, bcq_fails = _kink_with_boundary(np.random.default_rng(seed))
        rep = check_cqs(p, np.zeros(p.n))
        assert rep.bcq == _bcq_by_lp(subdiff_hrep(p.h, np.zeros(p.m)), J.T)
        assert not (bcq_fails and rep.bcq)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 16))
    def test_pure_polyhedra(self, seed):
        drawn = _pure_instance(np.random.default_rng(seed))
        if drawn is not None:
            _, rep = qualification_chain(*drawn)
            assert rep.bcq == _bcq_by_lp(*drawn)

    def test_generators_give_both_verdicts(self):
        kinks = [_kink_with_boundary(np.random.default_rng(seed)) for seed in range(40)]
        assert {check_cqs(p, np.zeros(p.n)).bcq for p, _, _ in kinks} == {True, False}
        pure = [_pure_instance(np.random.default_rng(seed)) for seed in range(40)]
        assert {qualification_chain(*d)[1].bcq for d in pure if d is not None} == {True, False}


class TestCQChainOnComposites:
    def test_sc_tc_bcq_chain_randomized(self):
        rng = np.random.default_rng(77)
        from plqnewton.benchmarks import halfquad_plq, nlp_plq

        builders = (l1_plq, l1sq_plq, max2_plq, nlp_plq, halfquad_plq)
        count = 0
        for _ in range(120):
            h = builders[int(rng.integers(len(builders)))]()
            n = int(rng.integers(1, 4))
            M = rng.standard_normal((h.m, n))
            q = sample_domain_point(h, rng)
            exprs = []
            for i in range(h.m):
                terms = [f"({M[i, j]:.6f})*x{j + 1}" for j in range(n)]
                exprs.append(" + ".join(terms) + f" + ({q[i]:.6f})")
            p = CompositeProblem(h, SmoothMap.from_strings(exprs, n))
            x = np.zeros(n)  # c(0) = q, a domain point
            rep = check_cqs(p, x)
            assert not (rep.sc and not rep.tc)
            assert not (rep.tc and not rep.bcq)
            assert not (rep.m_singleton and not rep.bcq)
            count += 1
        assert count == 120
