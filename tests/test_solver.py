import csv
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plqnewton import calculus, plq, solver
from plqnewton.benchmarks import (
    BENCHMARKS,
    b1_cubic,
    b1_flat,
    b1_minimax,
    cross_l1,
    expsin_ls,
    halfquad_plq,
    l1_kink,
    max2_plq,
    rosenbrock_ls,
    sumsq_plq,
)
from plqnewton.calculus import subdiff_hrep_at
from plqnewton.cli import run_report
from plqnewton.composite import CompositeProblem
from plqnewton.errors import (
    DivergenceError,
    PreconditionError,
    RegimeError,
    RepresentationError,
    StepError,
)
from plqnewton.exprmap import SmoothMap
from plqnewton.manifold import build_manifold, mu_of
from plqnewton.problems import parse_problem_dict
from plqnewton.solver import (
    SolveOptions,
    SubproblemSolution,
    _consistent,
    _enum_solves,
    _face_plan,
    _model_sosc_ok,
    _ranking,
    _solve_stack,
    kkt_matrix,
    newton_solve,
    quasi_newton_solve,
    restricted_newton_step,
    solve,
    solve_subproblem_enum,
)
from oracles import eager_enum, pairwise_gluing_gap, restricted_step_of_piece
from oracles import solve_possibly_singular as _solve_possibly_singular
from test_certify import NLP_XBAR, NLP_YBAR, _count_calls, _nlp, _weighted_l1_crossing


def _b1_setup():
    b = b1_minimax()
    md = build_manifold(b.problem.h, b.problem.c.value(b.xbar))
    return b, md


class TestRestrictedStep:
    def test_solution_is_fixed_point(self):
        b, md = _b1_setup()
        mu = mu_of(md, b.problem.c.value(b.xbar), b.ybar)
        rows = restricted_newton_step(b.problem, md, b.xbar, b.ybar)
        assert rows.shape == (md.kbar, 2 + 2 + md.ell)
        for j, new in enumerate(rows):
            assert np.linalg.norm(new[:2] - b.xbar) <= 1e-12
            assert np.linalg.norm(new[2:4] - b.ybar) <= 1e-12
            assert np.linalg.norm(new[4:] - mu.blocks[j]) <= 1e-12

    def test_quadratic_contraction_constant(self):
        # Empirical contraction fit over random starts: err_new <= C err_old^2.
        b = b1_cubic()
        md = build_manifold(b.problem.h, b.problem.c.value(b.xbar))
        rng = np.random.default_rng(7)
        ratios = []
        for _ in range(20):
            dx = rng.uniform(-0.1, 0.1, 2)
            dy = rng.uniform(-0.1, 0.1, 2)
            x0, y0 = b.xbar + dx, b.ybar + dy
            err_old = np.linalg.norm(x0 - b.xbar) + np.linalg.norm(y0 - b.ybar)
            new = restricted_newton_step(b.problem, md, x0, y0)[0]
            err_new = np.linalg.norm(new[:2] - b.xbar) + np.linalg.norm(new[2:4] - b.ybar)
            ratios.append(err_new / err_old ** 2)
        C = max(ratios)
        assert C < 10.0  # fitted constant stays moderate across the sample

    def test_toy_system_against_direct_inverse(self):
        # n = m = ell = 1, H = 1, Jac = 1, Q = 0, A = 1, P = 1, b = 0 at
        # cbar = 0: the system matrix is [[1,1,0],[0,1,-1],[1,0,0]].
        from plqnewton.plq import Hyperplane, Piece, PLQFunction

        hps = [Hyperplane([1.0], 0.0)]
        pieces = [Piece([-1], [[0.0]], [0.0]), Piece([1], [[0.0]], [0.0])]
        h = PLQFunction(1, hps, pieces)
        c = SmoothMap.from_strings(["0.5*x1^2 + x1"], 1)  # Jac(0) = 1, Hess = 1
        p = CompositeProblem(h, c)
        md = build_manifold(h, [0.0])
        x_hat, y_hat = np.array([0.0]), np.array([1.0])  # H = y * 1 = 1
        new = restricted_newton_step(p, md, x_hat, y_hat)[1]
        M = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, 0.0]])
        rhs = np.array([0.0, 0.0, 0.0])  # x_hat = 0, c(0) = 0 = cbar
        direct = np.linalg.solve(M, rhs)
        assert np.allclose(new, direct, atol=1e-12)


def _stack_case(name):
    """(problem, xbar, ybar) of a benchmark, or of the s = 3 or 4 weighted-l1
    crossing ("crossing3", "crossing4") with 2^s active pieces at xbar."""
    if name.startswith("crossing"):
        s = int(name[-1])
        pf = _weighted_l1_crossing((0.7, 1.3, 1.9, 0.9)[:s], (0.3, -0.5, 0.4, 0.6)[:s])
        return (pf.problem, *pf.reference)
    b = BENCHMARKS[name]()
    return b.problem, b.xbar, b.ybar


class TestStackedStep:
    """The restricted step solves every active piece's system as one stack:
    each row is the piece's system solved alone, bit for bit, and the array
    gluing gap is the pairwise loop's."""

    @pytest.mark.parametrize("name, kbar", [("b1_minimax", 2), ("cross_l1", 4),
                                            ("crossing3", 8), ("crossing4", 16)])
    def test_rows_equal_single_solves(self, name, kbar):
        p, xbar, ybar = _stack_case(name)
        md = build_manifold(p.h, p.c.value(xbar))
        assert md.kbar == kbar
        rng = np.random.default_rng(kbar)
        for _ in range(3):
            x = xbar + rng.uniform(-0.1, 0.1, p.n)
            y = ybar + rng.uniform(-0.1, 0.1, p.m)
            rows = restricted_newton_step(p, md, x, y)
            assert rows.shape == (kbar, p.n + p.m + md.ell)
            for j, row in enumerate(rows):
                assert np.array_equal(row, restricted_step_of_piece(p, md, x, y, j)), j
            assert solver._gluing_gap(rows, p.n, p.m) == pairwise_gluing_gap(rows, p.n, p.m)
            noise = rng.standard_normal(rows.shape)
            assert solver._gluing_gap(noise, p.n, p.m) == pairwise_gluing_gap(noise, p.n, p.m)

    @pytest.mark.parametrize("s", [3, 4])
    def test_newton_glues_on_the_crossings(self, s):
        p, xbar, ybar = _stack_case(f"crossing{s}")
        md = build_manifold(p.h, p.c.value(xbar))
        rng = np.random.default_rng(s)
        x0 = xbar + rng.uniform(-0.05, 0.05, s)
        y0 = ybar + rng.uniform(-0.1, 0.1, s)
        assert plq.eval_with_active(p.h, p.c.value(x0)).kbar == 1  # off the kink
        tr = newton_solve(p, md, (x0, y0), SolveOptions(), reference=(xbar, ybar))
        assert tr.converged and tr.final.k >= 2
        for prev, row in zip(tr.rows, tr.rows[1:]):
            assert row.on_manifold and row.lin_active == md.active_pieces
            assert row.gluing_gap <= 1e-8 * (1 + np.linalg.norm(row.x) + np.linalg.norm(row.y))
            # The row is the last piece's (x, y), every piece's mu and the
            # pairwise gap of the step taken from the previous row.
            step = restricted_newton_step(p, md, prev.x, prev.y)
            assert np.array_equal(np.concatenate([row.x, row.y]), step[-1, :2 * s])
            assert np.array_equal(row.mu, step[:, 2 * s:]) and row.mu.shape == (2 ** s, s)
            assert row.gluing_gap == pairwise_gluing_gap(step, s, s)

    def test_singular_stack_names_the_first_singular_block(self):
        # c = x and H = 0 across the kink c1 = 0: piece k's system is singular
        # exactly when Q_k[1, 1] = 0, so one block of the stack is.
        from plqnewton.plq import Hyperplane, Piece, PLQFunction

        for Qs, block in (((np.diag([0.0, 1.0]), np.zeros((2, 2))), 1),
                          ((np.zeros((2, 2)), np.diag([0.0, 1.0])), 0)):
            h = PLQFunction(2, [Hyperplane([1.0, 0.0], 0.0)],
                            [Piece([-1], Qs[0], [0.0, 0.0]), Piece([1], Qs[1], [0.0, 0.0])])
            p = CompositeProblem(h, SmoothMap.from_strings(["x1", "x2"], 2))
            md = build_manifold(h, [0.0, 0.0])
            with pytest.raises(StepError, match=f"piece block {block} is singular"):
                restricted_newton_step(p, md, [0.0, 0.0], [0.0, 0.0])


class TestNewtonSolve:
    def test_b1_converges_to_analytic_pair(self):
        b, md = _b1_setup()
        tr = newton_solve(b.problem, md, (b.start_x, b.start_y), SolveOptions(),
                          reference=(b.xbar, b.ybar))
        assert tr.converged
        assert np.linalg.norm(tr.final.x - b.xbar) <= 1e-12
        assert np.linalg.norm(tr.final.y - b.ybar) <= 1e-12
        assert tr.final.k <= 8

    def test_start_at_solution_immediate(self):
        b, md = _b1_setup()
        mu = mu_of(md, b.problem.c.value(b.xbar), b.ybar)
        tr = newton_solve(b.problem, md, (b.xbar, b.ybar, mu.blocks), SolveOptions())
        assert tr.converged and tr.final.k == 0
        assert tr.final.stat_res <= 1e-12

    def test_gluing_and_identification_monitors(self):
        for bench in (b1_minimax(), b1_cubic(), l1_kink(), cross_l1()):
            md = build_manifold(bench.problem.h, bench.problem.c.value(bench.xbar))
            tr = newton_solve(bench.problem, md, (bench.start_x, bench.start_y),
                              SolveOptions(), reference=(bench.xbar, bench.ybar))
            assert tr.converged, bench.name
            for row in tr.rows[1:]:
                scale = 1 + np.linalg.norm(row.x) + np.linalg.norm(row.y)
                assert row.gluing_gap <= 1e-10 * scale
                assert row.on_manifold
                assert row.mu_min > 1e-8
                assert row.model_sosc_ok
                assert row.lin_active == md.active_pieces

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_far_start_fails_or_runs_out(self):
        b = b1_cubic()
        md = build_manifold(b.problem.h, b.problem.c.value(b.xbar))
        try:
            tr = newton_solve(b.problem, md, (np.array([10.0, 10.0]),
                                              np.array([0.5, 0.5])), SolveOptions())
            assert not tr.converged
        except (DivergenceError, Exception):
            pass

    def test_bootstrap_manifold_from_first_step(self):
        b = l1_kink()
        tr = newton_solve(b.problem, None, (b.start_x, b.start_y), SolveOptions(),
                          reference=(b.xbar, b.ybar))
        assert tr.converged
        assert np.linalg.norm(tr.final.x - b.xbar) <= 1e-10

    def test_restricted_step_equals_enum_best_along_iteration(self):
        # On every accepted iteration the structure enumeration's best pair
        # coincides with the restricted step's (d, y).
        for bench in (b1_cubic(), l1_kink(), cross_l1()):
            md = build_manifold(bench.problem.h, bench.problem.c.value(bench.xbar))
            tr = newton_solve(bench.problem, md, (bench.start_x, bench.start_y),
                              SolveOptions(), reference=(bench.xbar, bench.ybar))
            assert tr.converged
            for prev, cur in zip(tr.rows[:-1], tr.rows[1:]):
                H = bench.problem.c.weighted_hessian(prev.x, prev.y)
                sols = solve_subproblem_enum(bench.problem, prev.x, H)
                assert sols
                best = sols[0]
                gap = (np.linalg.norm(prev.x + best.d - cur.x)
                       + np.linalg.norm(best.y - cur.y))
                assert gap <= 1e-9, (bench.name, cur.k, gap)


class TestSubproblemEnum:
    def test_b1_unique_pair_matches_restricted_step(self):
        b, md = _b1_setup()
        x_hat = np.array([0.1, 0.1])
        y_hat = np.array([0.5, 0.5])
        H = b.problem.c.weighted_hessian(x_hat, y_hat)
        assert np.allclose(H, 2 * np.eye(2))
        sols = solve_subproblem_enum(b.problem, x_hat, H)
        assert len(sols) == 1
        best = sols[0]
        stepped = restricted_newton_step(b.problem, md, x_hat, y_hat)[0]
        assert np.linalg.norm(x_hat + best.d - stepped[:2]) <= 1e-9
        assert np.linalg.norm(best.y - stepped[2:4]) <= 1e-9

    def test_single_piece_is_single_solve(self):
        p = CompositeProblem(sumsq_plq(2), SmoothMap.from_strings(["x1", "x2"], 2))
        x_hat = np.array([1.0, -2.0])
        sols = solve_subproblem_enum(p, x_hat, np.eye(2))
        assert len(sols) == 1
        # Model: 0.5||x_hat + d||^2 + 0.5 d'd minimized at d = -x_hat / 2.
        assert np.allclose(sols[0].d, -x_hat / 2, atol=1e-10)

    def test_negative_normal_curvature_multiple_structures(self):
        # Indefinite model along the kink normal: several critical structures;
        # the list is sorted by model value and the best matches a brute-force
        # grid minimization of the model over the box.
        h = max2_plq()
        p = CompositeProblem(h, SmoothMap.from_strings(["x1", "x2"], 2))
        u = np.array([1.0, 1.0]) / np.sqrt(2)
        v = np.array([1.0, -1.0]) / np.sqrt(2)
        H = np.outer(u, u) - 0.2 * np.outer(v, v)
        x_hat = np.zeros(2)
        sols = solve_subproblem_enum(p, x_hat, H)
        assert len(sols) >= 3
        values = [s.model_value for s in sols]
        assert values == sorted(values)
        # Grid oracle at resolution 2e-3.
        g = np.arange(-2.0, 2.0 + 1e-12, 2e-3)
        D1, D2 = np.meshgrid(g, g, indexing="ij")
        s = D1 + D2
        delta = D1 - D2
        phi = np.maximum(D1, D2) + 0.5 * (0.5 * s ** 2 - 0.1 * delta ** 2)
        idx = np.unravel_index(np.argmin(phi), phi.shape)
        d_star = np.array([g[idx[0]], g[idx[1]]])
        assert np.linalg.norm(sols[0].d - d_star) <= 5e-3
        assert sols[0].model_value == pytest.approx(-0.25, abs=1e-6)
        # Structure-wise curvature labels: the kink structure is sound, the
        # interior ones carry the indefinite Hessian.
        kink = [s for s in sols if s.active_set]
        interior = [s for s in sols if not s.active_set]
        assert kink and interior
        assert all(s.model_sosc_ok for s in kink)
        assert all(not s.model_sosc_ok for s in interior)

    def test_flat_problem_reports_solution_family(self):
        b = b1_flat()
        H = b.problem.c.weighted_hessian(b.xbar, b.ybar)
        sols = solve_subproblem_enum(b.problem, b.xbar, H)
        assert sols
        fam = [s for s in sols if not s.unique]
        assert fam, "expected a non-unique solution family"
        s = fam[0]
        assert s.alternate is not None
        d2, y2 = s.alternate
        assert np.linalg.norm(d2 - s.d) + np.linalg.norm(y2 - s.y) > 1e-3
        # Both points solve the linearized conditions.
        for d, y in ((s.d, s.y), (d2, y2)):
            r = H @ d + b.problem.c.jacobian(b.xbar).T @ y
            assert np.linalg.norm(r) <= 1e-8


class TestSingularSolve:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_singular_value_is_dropped(self):
        # sv = 1e-320 falls below the rank threshold; inverting it would
        # overflow. Alone and next to a full-rank system in one stack.
        M, rhs = np.diag([1.0, 1e-320]), np.array([1.0, 0.0])
        sol, alt = _solve_possibly_singular(M, rhs)
        assert np.array_equal(sol, [1.0, 0.0])
        assert alt is not None and abs(alt[1]) == 0.05
        sols, _, full, ok = _solve_stack(np.stack([np.eye(2), M]), np.stack([rhs, rhs]))
        assert full.tolist() == [True, False] and ok.all()
        assert np.array_equal(sols, [[1.0, 0.0], [1.0, 0.0]])

    def test_stack_solves_as_one_system_each(self):
        # A stack gives each system the bits of solving it alone, singular,
        # inconsistent and full-rank ones alike.
        rng = np.random.default_rng(5)
        M = rng.standard_normal((6, 4, 4))
        M[1, 3] = M[1, 2]                            # singular, consistent below
        M[2, :, 3] = 0.0                             # singular, inconsistent below
        rhs = rng.standard_normal((6, 4))
        rhs[1, 3] = rhs[1, 2]
        sols, alts, full, ok = _solve_stack(M, rhs)
        assert full.tolist() == [True, False, False, True, True, True]
        assert ok.tolist() == [True, True, False, True, True, True]
        for i in range(6):
            sol, alt = _solve_possibly_singular(M[i], rhs[i])
            assert (sol is None) == (not ok[i])
            if sol is not None:
                assert np.array_equal(sol, sols[i]) and (alt is None) == full[i]
                assert alt is None or np.array_equal(alt, alts[i])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_shared_factorization_solves_each_system_alone(self, seed):
        # R matrices, each of rank >= 1, shared by B systems: matrix 0 has
        # full rank, the others are singular. System 1 is consistent with
        # matrix 1 (an alternate row) and system 2 is not (an inconsistent
        # row); the rest draw their matrix and consistency at random. Each
        # system gets, bit for bit, its solve as a stack of one.
        rng = np.random.default_rng(seed)
        N, R = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        M = rng.standard_normal((R, N, N))
        for r in range(1, R):
            rank = int(rng.integers(1, N))
            M[r] = M[r][:, :rank] @ rng.standard_normal((rank, N))
        B = int(rng.integers(R + 2, 4 * R + 3))
        rep = np.concatenate([[0, 1, 1], np.arange(2, R), rng.integers(0, R, B - R - 1)])
        consistent = np.concatenate([[True, True, False], rng.uniform(size=B - 3) < 0.5])
        rhs = rng.standard_normal((B, N))
        z = rng.standard_normal((int(consistent.sum()), N, 1))
        rhs[consistent] = (M[rep[consistent]] @ z)[:, :, 0]
        sols, alts, full, ok = _solve_stack(M, rhs, rep)
        kinds = set()
        for i in range(B):
            sol, alt = _solve_possibly_singular(M[rep[i]], rhs[i])
            assert (sol is None) == (not ok[i])
            if sol is None:
                kinds.add("inconsistent")
                continue
            assert sol.tobytes() == sols[i].tobytes()
            assert (alt is None) == full[i]
            if alt is not None:
                kinds.add("alternate")
                assert alt.tobytes() == alts[i].tobytes()
        assert kinds == {"inconsistent", "alternate"}
        assert full.tolist() == (rep == 0).tolist()


def _subsets(s):
    return itertools.chain.from_iterable(itertools.combinations(range(s), r)
                                         for r in range(s + 1))


def _on_piece_ref(p, k, sol, cx, jac):
    """The active profile at c + Jac d when sol = (d, y, lam) is consistent
    for piece k (lam >= 0, k active there, y a subgradient there); None
    otherwise."""
    d, y, lam = sol[:p.n], sol[p.n:p.n + p.m], sol[p.n + p.m:]
    if lam.size and np.min(lam) < -1e-8:
        return None
    c_lin = cx + jac @ d
    prof = plq.eval_with_active(p.h, c_lin)
    if not prof.is_finite or k not in prof.active_pieces \
            or not subdiff_hrep_at(p.h, prof, c_lin).contains(y, slack=1e-7):
        return None
    return prof


def _structure_solves(p, H, cx, jac):
    """(piece, subset, solution, alternate) of every (piece, subset) structure
    whose KKT system is solved on its own, in the enumeration's order."""
    A_all, alpha = p.h.hyperplane_matrix()
    n, m = p.n, p.m
    for k in range(p.h.n_pieces):
        signs, Q, b = p.h.pieces[k].signs, p.h.pieces[k].Q, p.h.pieces[k].b
        for subset in _subsets(p.h.n_hyperplanes):
            na = len(subset)
            cols, rows, rhs = np.empty((m, na)), np.empty((na, n)), np.zeros(n + m + na)
            rhs[n:n + m] = Q @ cx + b
            for t, j in enumerate(subset):
                cols[:, t] = signs[j] * A_all[j]
                rows[t] = A_all[j] @ jac
                rhs[n + m + t] = alpha[j] - A_all[j] @ cx
            sol, alt = _solve_possibly_singular(kkt_matrix(H, jac, Q, cols, rows), rhs)
            if sol is not None:
                yield k, subset, sol, alt


def _per_structure_enum(p, H, lin):
    """Every (piece, subset) structure solved and tested on its own, in the
    same order: the enumeration that sharing one solve per face must
    reproduce."""
    cx, jac, _ = lin
    A_all, _ = p.h.hyperplane_matrix()
    n, m = p.n, p.m
    out = []
    for k, subset, sol, alt in _structure_solves(p, H, cx, jac):
        d, y = sol[:n], sol[n:n + m]
        if any(np.linalg.norm(d - q.d) + np.linalg.norm(y - q.y) <= 1e-9 for q in out):
            continue
        prof = _on_piece_ref(p, k, sol, cx, jac)
        if prof is None:
            continue
        alternate = None
        if alt is not None and _on_piece_ref(p, k, alt, cx, jac) is not None:
            alternate = (alt[:n], alt[n:n + m])
        out.append(SubproblemSolution(
            d=d, y=y, lam=sol[n + m:], piece=k, active_set=subset,
            model_value=prof.value.value + 0.5 * float(d @ H @ d),
            model_check=_model_sosc_ok(A_all[list(prof.active_set)] @ jac, jac, H,
                                       [p.h.pieces[j].Q for j in prof.active_pieces]),
            unique=alternate is None, alternate=alternate, profile=prof))
    out.sort(key=lambda q: (round(q.model_value, 12), q.piece))
    return out


def _huber_pair(t, a):
    """huber_t1(c1) + huber_t2(c2), c_i = x_i + a_i x_j^2 (j the other index),
    with hyperplanes c_i = -t_i and c_i = t_i. Each quadratic piece
    c_i^2 / (2 t_i) borders two linear ones, so Q differs across a face."""
    # Per coordinate: (signs on c_i = -t_i and c_i = t_i, Q, b, beta).
    sides = [[((1, 1), 0.0, -1.0, -ti / 2), ((-1, 1), 1.0 / ti, 0.0, 0.0),
              ((-1, -1), 0.0, 1.0, -ti / 2)] for ti in t]
    pieces = [{"signs": list(s1[0] + s2[0]), "Q": [[s1[1], 0.0], [0.0, s2[1]]],
               "b": [s1[2], s2[2]], "beta": s1[3] + s2[3]}
              for s1, s2 in itertools.product(*sides)]
    doc = {"name": "huber2", "n": 2, "m": 2,
           "h": {"m": 2, "pieces": pieces,
                 "hyperplanes": [{"a": list(np.eye(2)[i]), "alpha": sg * t[i]}
                                 for i in range(2) for sg in (-1.0, 1.0)]},
           "c": [f"x1 + {a[0]}*x2^2", f"x2 + {a[1]}*x1^2"]}
    return parse_problem_dict(doc).problem


def _split_q_pair(w, a):
    """w |c1| + max(c2, 0)^2 / 2, c = (x1 + a1 x2^2, x2 + a2 x1^2), with
    hyperplanes c1 = 0 and c2 = 0. Pieces with the same sign on c1 = 0 differ
    in Q by their side of c2 = 0, so holding c1 = 0 they assemble different
    KKT matrices."""
    pieces = [{"signs": [s1, s2], "Q": [[0.0, 0.0], [0.0, float(s2 < 0)]], "b": [-s1 * w, 0.0]}
              for s1, s2 in itertools.product((-1, 1), repeat=2)]
    doc = {"name": "split_q", "n": 2, "m": 2,
           "h": {"m": 2, "pieces": pieces,
                 "hyperplanes": [{"a": list(np.eye(2)[i]), "alpha": 0.0} for i in range(2)]},
           "c": [f"x1 + {a[0]}*x2^2", f"x2 + {a[1]}*x1^2"]}
    return parse_problem_dict(doc).problem


def _enum_step(seed):
    """(family, problem, x, y, H) of one enumeration step at a random (x, y),
    with H the model Hessian or I: a weighted-l1 crossing with s <= 4 and
    its pieces in random order, a Huber pair, b1_flat (singular systems), or
    a pair whose pieces split on Q (`_split_q_pair`). In family "kink" the
    crossing has c = x, H = I and x = b_k for a random piece k: every subset
    of piece k then gives d = -b_k, so distinct faces share one (d, y)."""
    rng = np.random.default_rng(seed)
    family = ("crossing", "huber", "flat", "kink", "split")[seed % 5]
    if family in ("crossing", "kink"):
        s = int(rng.integers(1, 5))
        a = rng.uniform(-0.6, 0.6, s) if family == "crossing" else np.zeros(s)
        p = _weighted_l1_crossing(w=tuple(rng.uniform(0.5, 2.0, s)), a=tuple(a)).problem
        if family == "crossing":  # a subset's faces may start at pieces of other signs on it
            pieces = [p.h.pieces[k] for k in rng.permutation(p.h.n_pieces)]
            p = CompositeProblem(plq.PLQFunction(s, p.h.hyperplanes, pieces), p.c)
        x, y = rng.uniform(-0.3, 0.3, s), rng.uniform(-2.0, 2.0, s)
        if family == "kink":
            x = p.h.pieces[int(rng.integers(p.h.n_pieces))].b.copy()
    elif family == "huber":
        p = _huber_pair(rng.uniform(0.5, 1.5, 2), rng.uniform(-0.6, 0.6, 2))
        x, y = rng.uniform(-2.5, 2.5, 2), rng.uniform(-1.2, 1.2, 2)
    elif family == "split":
        w = rng.uniform(0.5, 2.0)
        p = _split_q_pair(w, rng.uniform(-0.6, 0.6, 2))
        x, y = rng.uniform(-0.5, 0.5, 2), rng.uniform(-w, w, 2)
    else:
        p = b1_flat().problem
        x, y = rng.uniform(-1.0, 1.0, 2), rng.uniform(0.0, 1.0, 2)
    H = p.c.weighted_hessian(x, y) if family != "kink" and rng.uniform() < 0.5 \
        else np.eye(p.n)
    return family, p, x, y, H


def _face(p, sol):
    """The face of an accepted entry: its active set with its piece's signs
    off that set."""
    signs = p.h.pieces[sol.piece].signs
    return sol.active_set, tuple(np.delete(signs, list(sol.active_set)))


def _systems(stacks):
    """The number of systems (right-hand sides) in the stacks recorded from
    `_solve_stack`."""
    return sum(len(args[1]) for args in stacks)


def _count_svds(monkeypatch):
    """The number of matrices of each `np.linalg.svd` call."""
    svd, sizes = np.linalg.svd, []

    def counted(M, *args, **kwargs):
        sizes.append(len(M))
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return sizes


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFaceEnumeration:
    """One KKT solve and one consistency test per face (subset held at
    equality, signs off it): at an off-kink point of a weighted-l1 crossing
    every face is nonsingular, so a step hands 3^s systems to the batched
    solver, not the 4^s of one per (piece, subset), in one stack (one SVD)
    per system size, and evaluates h at most once per face."""

    @pytest.mark.parametrize("w,a,faces", [
        ((0.7, 1.3, 1.9), (0.3, -0.5, 0.4), 27),
        ((0.7, 1.3, 1.9, 0.9), (0.3, -0.5, 0.4, 0.6), 81)])
    def test_one_solve_per_face(self, monkeypatch, w, a, faces):
        p = _weighted_l1_crossing(w=w, a=a).problem
        x = np.array([0.05, -0.06, 0.045, -0.055])[:len(w)]
        y = np.array([0.1, -0.05, 0.12, 0.02])[:len(w)]
        lin = p.c.evaluate(x, y)
        assert all(abs(r) > 1e-3 for r in p.h.residuals(lin.c))
        stacks = _count_calls(monkeypatch, solver, "_solve_stack")
        evals = _count_calls(monkeypatch, plq, "eval_with_active")
        sols = solve_subproblem_enum(p, x, lin.H, lin)
        assert sols
        assert _systems(stacks) <= faces
        assert len(evals) <= faces
        # Sizes n + m + |S| with n = m = s and |S| = 0..s, one stack each.
        s = len(w)
        assert sorted(args[0].shape[1] for args in stacks) == list(range(2 * s, 3 * s + 1))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 20))
    def test_agrees_with_per_structure_reference(self, seed):
        _, p, x, y, H = _enum_step(seed)
        lin = p.c.evaluate(x, y)
        got = solve_subproblem_enum(p, x, H, lin)
        ref = _per_structure_enum(p, H, lin)
        assert bool(got) == bool(ref)
        # Every face the reference accepts is accepted, and no other. At an
        # ill-conditioned face the reference may keep per-piece copies that
        # differ by more than the duplicate tolerance; sharing keeps one.
        assert {_face(p, q) for q in got} == {_face(p, q) for q in ref}
        assert len(got) <= len(ref)
        if got:
            g, r = got[0], ref[0]
            assert (g.piece, g.active_set, g.unique, g.model_sosc_ok) \
                == (r.piece, r.active_set, r.unique, r.model_sosc_ok)
        # Each pair is the reference's for its structure, multipliers included.
        by_structure = {(r.piece, r.active_set): r for r in ref}
        for g in got:
            r = by_structure[g.piece, g.active_set]
            for u, v in ((g.d, r.d), (g.y, r.y), (g.lam, r.lam)):
                assert np.linalg.norm(u - v) <= 1e-12 * max(1.0, np.linalg.norm(v))

    def test_piece_must_be_active_at_linearized_point(self):
        # h = c^2 / 2 split by the redundant hyperplane c = 0 into two equal
        # pieces, c = x, from x = 1: piece 0's face () (c <= 0) solves to
        # d = -1/2, y = 1/2, with y in dh(c_lin) but piece 0 not active at
        # c_lin = 1/2. Piece 1's face () gives the same pair, and the face
        # (0,) gives y = 1 outside dh(0) = {0}.
        h = plq.PLQFunction(1, [plq.Hyperplane([1.0], 0.0)],
                            [plq.Piece([1], [[1.0]], [0.0]), plq.Piece([-1], [[1.0]], [0.0])])
        p = CompositeProblem(h, SmoothMap.from_strings(["x1"], 1))
        sols = solve_subproblem_enum(p, [1.0], np.eye(1))
        assert [(q.piece, q.active_set) for q in sols] == [(1, ())]

    def test_membership_decides_at_the_slack_edge(self):
        # h = |c|, c = x, from x = -1 - 5e-8: the face (0,) gives
        # d = 1 + 5e-8 and y = -1 - 5e-8, inside dh(0) = [-1, 1] up to the
        # 1e-7 slack, while piece 0 (c <= 0) solves it with lam = -5e-8.
        # The face is accepted on membership, next to the face () of piece 0.
        h = plq.PLQFunction(1, [plq.Hyperplane([1.0], 0.0)],
                            [plq.Piece([1], [[0.0]], [-1.0]), plq.Piece([-1], [[0.0]], [1.0])])
        p = CompositeProblem(h, SmoothMap.from_strings(["x1"], 1))
        sols = solve_subproblem_enum(p, [-1.0 - 5e-8], np.eye(1))
        assert sorted(q.active_set for q in sols) == [(), (0,)]

    def test_generator_covers_every_case(self, monkeypatch):
        solves = _count_calls(monkeypatch, solver, "_solve_stack")
        kinds = set()
        for seed in range(60):
            family, p, x, y, H = _enum_step(seed)
            solves.clear()
            sols = solve_subproblem_enum(p, x, H)
            kinds.update([family] if sols else [])
            kinds.update(["several"] if len(sols) > 1 else [])
            kinds.update(["non-unique"] if any(not q.unique for q in sols) else [])
            # A subset with dependent normals (c_i = -t_i and c_i = t_i) gives
            # singular systems, solved per piece; every other face is solved
            # once, also where its pieces' Q differ.
            A, _ = p.h.hyperplane_matrix()
            subsets = list(_subsets(p.h.n_hyperplanes))
            free = [S for S in subsets if np.linalg.matrix_rank(A[list(S)]) == len(S)]
            faces = {(S, np.delete(piece.signs, list(S)).tobytes())
                     for piece in p.h.pieces for S in free}
            per_piece = p.h.n_pieces * (len(subsets) - len(free))
            if family == "huber" and _systems(solves) == len(faces) + per_piece:
                kinds.add("shared across Q")
        assert kinds == {"crossing", "huber", "flat", "kink", "split", "several", "non-unique",
                         "shared across Q"}

    @pytest.mark.parametrize("w,a,systems,matrices", [
        ((0.7, 1.3, 1.9), (0.3, -0.5, 0.4), 27, 8),
        ((0.7, 1.3, 1.9, 0.9), (0.3, -0.5, 0.4, 0.6), 81, 16)])
    def test_one_svd_per_distinct_matrix(self, monkeypatch, w, a, systems, matrices):
        # Every piece of a weighted-l1 crossing has Q = 0, and the first
        # piece of each face with subset S has the same signs on S, so the
        # 3^s systems of a step assemble 2^s distinct matrices.
        p, x, lin = _crossing_step(w, a, [0.1, -0.05, 0.12, 0.02])
        stacks = _count_calls(monkeypatch, solver, "_solve_stack")
        svds = _count_svds(monkeypatch)
        assert solve_subproblem_enum(p, x, lin.H, lin)
        assert (_systems(stacks), sum(svds)) == (systems, matrices)

    def test_pieces_split_on_q_do_not_share_a_matrix(self, monkeypatch):
        # Off both hyperplanes every face of `_split_q_pair` is solved once:
        # 9 systems. Holding c1 = 0, the faces' first pieces have the same
        # sign there but different Q, so the systems assemble 6 distinct
        # matrices, not the 4 of keying them by S and its signs alone.
        p = _split_q_pair(1.3, (0.3, -0.4))
        x = np.array([0.2, -0.15])
        lin = p.c.evaluate(x, [0.5, 0.1])
        assert all(abs(r) > 1e-3 for r in p.h.residuals(lin.c))
        stacks = _count_calls(monkeypatch, solver, "_solve_stack")
        svds = _count_svds(monkeypatch)
        solve_subproblem_enum(p, x, np.eye(2), lin)
        assert (_systems(stacks), sum(svds)) == (9, 6)

    def test_curvature_checked_only_when_read(self, monkeypatch):
        checks = _count_calls(monkeypatch, solver, "_model_sosc_ok")
        steps = [solve_subproblem_enum(p, x, H) for _, p, x, _, H in map(_enum_step, range(12))]
        assert sum(map(len, steps)) > len(steps) and checks == []
        best = next(sols[0] for sols in steps if sols)
        assert best.model_sosc_ok == best.model_sosc_ok and len(checks) == 1

    def test_lazy_verdict_equals_eager(self):
        for seed in range(40):
            _, p, x, y, H = _enum_step(seed)
            cx, jac, _ = p.c.evaluate(x, y)
            A_all, _ = p.h.hyperplane_matrix()
            for q in solve_subproblem_enum(p, x, H):
                prof = plq.eval_with_active(p.h, cx + jac @ q.d)
                eager = _model_sosc_ok(A_all[list(prof.active_set)] @ jac, jac, H,
                                       [p.h.pieces[j].Q for j in prof.active_pieces])
                assert q.model_sosc_ok is eager, seed

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 20))
    def test_activity_filter_rejects_only_inconsistent_pairs(self, seed):
        # Every (piece, subset) pair solved on its own: the filter's verdict
        # is the activity of plq.active_structure, and a pair it rejects is
        # one `_consistent` rejects.
        _, p, x, y, H = _enum_step(seed)
        cx, jac, _ = p.c.evaluate(x, y)
        for k, _, sol, _ in _structure_solves(p, H, cx, jac):
            c_lin = cx + jac @ sol[:p.n]
            active = plq.pieces_active(p.h, np.array([k]), c_lin[None])[0]
            assert active == (k in plq.active_structure(p.h, c_lin)[0])
            assert active or _consistent(p, k, sol, cx, jac) is None


def _near_duplicate_step():
    """(problem, x, H) of a step with two faces 2e-10 apart, the earlier
    rejected: h = |c| with a redundant hyperplane c = 1e-10 beside the kink,
    c = x, H = 1 and x = 1 + 2.0006e-7. Piece 0 (c <= 0) solves face (0,) to
    y = x, outside dh(0) = [-1, 1] by just more than the membership slack,
    and face (1,) to y = x - 1e-10, just inside. The second is accepted: the
    duplicate rule looks only at accepted pairs."""
    h = plq.PLQFunction(1, [plq.Hyperplane([1.0], 0.0), plq.Hyperplane([1.0], 1e-10)],
                        [plq.Piece([1, 1], [[0.0]], [-1.0]), plq.Piece([-1, 1], [[0.0]], [1.0]),
                         plq.Piece([-1, -1], [[0.0]], [1.0])])
    return CompositeProblem(h, SmoothMap.from_strings(["x1"], 1)), [1.0 + 2.0006e-7], np.eye(1)


# (w, a) of the weighted-l1 crossings at s = 3 and 4.
_CROSSINGS = (((0.7, 1.3, 1.9), (0.3, -0.5, 0.4)), ((0.7, 1.3, 1.9, 0.9), (0.3, -0.5, 0.4, 0.6)))


def _crossing_step(w, a, y):
    """(problem, x, linearization at (x, y)) of a step off every hyperplane
    of the weighted-l1 crossing (w, a); y is cut to s entries."""
    p = _weighted_l1_crossing(w=w, a=a).problem
    x = np.array([0.05, -0.06, 0.045, -0.055])[:len(w)]
    return p, x, p.c.evaluate(x, np.array(y[:len(w)]))


def _assert_same_pairs(got, ref):
    """Every field of every pair equal, floats by ==, arrays by value."""
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        for f in dataclasses.fields(SubproblemSolution):
            a, b = getattr(g, f.name), getattr(r, f.name)
            if f.name == "model_check":
                a, b = g.model_sosc_ok, r.model_sosc_ok
            elif f.name == "alternate" and a is not None and b is not None:
                a, b = np.concatenate(a), np.concatenate(b)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), f.name
            else:
                assert a == b, f.name


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestLazyPairs:
    """`solve_subproblem_enum` decides its pairs when they are read; listed
    in full they are the eager reference's (`oracles.eager_enum`)."""

    def _steps(self):
        for seed in range(60):
            _, p, x, y, H = _enum_step(seed)
            yield p, x, H, None
        for (w, a), y in itertools.product(_CROSSINGS, ([0.1, -0.05, 0.12, 0.02],
                                                        [-0.1, 0.05, -0.12, -0.02])):
            p, x, lin = _crossing_step(w, a, y)
            yield p, x, lin.H, lin
        yield *_near_duplicate_step(), None

    def test_listed_pairs_equal_the_eager_reference(self):
        for p, x, H, lin in self._steps():
            ref = eager_enum(p, x, H, lin)
            sols = solve_subproblem_enum(p, x, H, lin)
            _assert_same_pairs(list(sols), ref)
            _assert_same_pairs(sols[1:], ref[1:])
            if ref:
                _assert_same_pairs([sols[0], sols[-1]], [ref[0], ref[-1]])
            assert bool(solve_subproblem_enum(p, x, H, lin)) == bool(ref)

    def test_near_duplicate_of_a_rejected_pair_is_kept(self):
        sols = solve_subproblem_enum(*_near_duplicate_step())
        assert [(q.piece, q.active_set) for q in sols] == [(0, (1,)), (2, ())]

    def test_disagreement_at_an_unread_pair_raises_when_read(self):
        # An unvalidated h: -c below 0, 0 on [0, 1] and 5 + c above 1, so its
        # pieces disagree at c = 1. From x = 0.5 (c = x, H = 1) the best pair
        # is piece 1's interior, and piece 1 holding c = 1 is a candidate
        # ranked later, so only reading every pair evaluates h there.
        h = plq.PLQFunction(1, [plq.Hyperplane([1.0], 0.0), plq.Hyperplane([1.0], 1.0)],
                            [plq.Piece([1, 1], [[0.0]], [-1.0]),
                             plq.Piece([-1, 1], [[0.0]], [0.0]),
                             plq.Piece([-1, -1], [[0.0]], [1.0], 5.0)])
        p = CompositeProblem(h, SmoothMap.from_strings(["x1"], 1))
        sols = solve_subproblem_enum(p, [0.5], np.eye(1))
        assert (sols[0].piece, sols[0].active_set, sols[0].model_value) == (1, (), 0.0)
        with pytest.raises(RepresentationError, match="disagree in value"):
            len(sols)

    def test_candidate_outside_dom_h_is_rejected_when_read(self, monkeypatch):
        # h = -c below 0 and 0 on [0, 1], so dom h = (-inf, 1]. With every
        # solved pair made a candidate, piece 0's interior solve from x = 0.5
        # lands at c = 1.5, where no piece is active: it is ranked and then
        # rejected when read, and the pairs are those of the unpatched call.
        p = _half_line_pair()
        want = [(q.piece, q.active_set) for q in solve_subproblem_enum(p, [0.5], np.eye(1))]
        monkeypatch.setattr(solver, "pieces_active",
                            lambda h, pieces, c_lin: np.ones(len(pieces), dtype=bool))
        assert [(q.piece, q.active_set)
                for q in solve_subproblem_enum(p, [0.5], np.eye(1))] == want == [(1, ())]

    def test_best_pair_decides_at_most_two_memberships(self, monkeypatch):
        # y makes the model curvature negative on every coordinate: each of
        # the 27 faces gives a candidate. The call ranks them without
        # evaluating h; each read pair is evaluated once, with its membership.
        p, x, lin = _crossing_step(*_CROSSINGS[0], [-0.1, 0.05, -0.12])
        rankings = _count_calls(monkeypatch, solver, "_ranking")
        evals = _count_calls(monkeypatch, plq, "eval_with_active")
        members = _count_calls(monkeypatch, calculus, "subdiff_hrep_at")
        sols = solve_subproblem_enum(p, x, lin.H, lin)
        ranked = [len(args[1]) for args in rankings]  # (h, pieces, c_lin, d, H)
        assert evals == [] and members == [] and len(ranked) == 1 and ranked[0] > 2
        best = sols[0]
        assert 1 <= len(evals) <= 2 and len(members) == len(evals)
        assert len(sols) >= 1 and len(members) == len(evals)
        assert sols[0] is best


def _half_line_pair():
    """h = -c below 0 and 0 on [0, 1], c = x: dom h = (-inf, 1], so a
    linearized point beyond 1 has no active piece."""
    h = plq.PLQFunction(1, [plq.Hyperplane([1.0], 0.0), plq.Hyperplane([1.0], 1.0)],
                        [plq.Piece([1, 1], [[0.0]], [-1.0]), plq.Piece([-1, 1], [[0.0]], [0.0])])
    return CompositeProblem(h, SmoothMap.from_strings(["x1"], 1))


def _ranking_case(seed):
    """(family, h, pieces, c_lin, d, H) of one ranking: every consistent
    solve of an enumeration step (`_enum_step`, or a step on
    `_half_line_pair` from x in [-1, 2]), active at c_lin or not, in a
    random order, and a repeat of some rows under another piece."""
    rng = np.random.default_rng(seed)
    if seed % 6 == 5:
        family, p = "half-line", _half_line_pair()
        x, y, H = rng.uniform(-1.0, 2.0, 1), rng.uniform(-1.0, 1.0, 1), np.eye(1)
    else:
        family, p, x, y, H = _enum_step(seed)
    res = _enum_solves(p, x, H, p.c.evaluate(x, y))[4]
    rows = rng.permutation(res.pairs.size)
    rows = np.concatenate([rows, rng.choice(rows, rng.integers(0, rows.size + 1))])
    pieces = res.pairs[rows] // 2 ** p.h.n_hyperplanes
    pieces[res.pairs.size:] = rng.integers(0, p.h.n_pieces, rows.size - res.pairs.size)
    return family, p.h, pieces, res.c_lin[rows], res.sols[rows, :p.n], H


def _per_candidate_order(h, pieces, c_lin, d, H):
    """The reading order of the candidates ranked one at a time, by the
    model value at the first piece `active_structure` finds active (the
    candidate's own piece where none is), rounded, then by piece, stable."""
    def key(j):
        first = plq.active_structure(h, c_lin[j])[0]
        k = int(pieces[j])
        value = h.piece_value(first[0] if first else k, c_lin[j]) + 0.5 * float(d[j] @ H @ d[j])
        return round(value, 12), k

    return sorted(range(len(pieces)), key=key)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestArrayStep:
    """The step's array pass: one vectorized ranking of the candidates, and
    h-only blocks that the face plan builds once."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 20))
    def test_ranking_equals_the_per_candidate_key(self, seed):
        _, h, pieces, c_lin, d, H = _ranking_case(seed)
        assert _ranking(h, pieces, c_lin, d, H) == _per_candidate_order(h, pieces, c_lin, d, H)

    def test_ranking_cases_cover_every_kind(self):
        kinds = set()
        for seed in range(60):
            family, h, pieces, c_lin, d, H = _ranking_case(seed)
            kinds.add(family)
            firsts = [plq.active_structure(h, c)[0] for c in c_lin]
            kinds.update(["no active piece"] if not all(firsts) else [])
            kinds.update(["first piece not own"] if any(
                f and f[0] != k for f, k in zip(firsts, pieces.tolist())) else [])
            kinds.update(["nonzero Q"] if np.any(h._Q[pieces]) else [])
            order = _ranking(h, pieces, c_lin, d, H)
            values = [round(h.piece_value(f[0] if f else k, c) + 0.5 * float(e @ H @ e), 12)
                      for f, k, c, e in zip(firsts, pieces.tolist(), c_lin, d)]
            for i, j in zip(order, order[1:]):
                if values[i] == values[j]:
                    kinds.add("tie broken by piece" if pieces[i] != pieces[j] else "tie in order")
        assert kinds == {"crossing", "huber", "flat", "kink", "split", "half-line",
                         "no active piece", "first piece not own", "nonzero Q",
                         "tie broken by piece", "tie in order"}

    def test_ranking_rounds_as_round_does(self):
        # Python's round(2.75595e-08, 12) is 2.7559e-08, numpy's gives
        # 2.756e-08. The value 2.75595e-08 at c = -1 (piece 0) and 2.7559e-08
        # at c = 1 (piece 1) then tie, and the tie goes to piece 0.
        h = plq.PLQFunction(1, [plq.Hyperplane([1.0], 0.0)],
                            [plq.Piece([1], [[0.0]], [0.0], 2.75595e-08),
                             plq.Piece([-1], [[0.0]], [0.0], 2.7559e-08)])
        assert _ranking(h, np.array([1, 0]), np.array([[1.0], [-1.0]]), np.zeros((2, 1)),
                        np.eye(1)) == [1, 0]

    def test_singular_face_of_one_piece_needs_no_second_pass(self):
        # One piece, c <= 0, bounded by c = 0 written twice: holding both
        # gives a singular system on a face no other piece reaches.
        h = plq.PLQFunction(1, [plq.Hyperplane([1.0], 0.0), plq.Hyperplane([2.0], 0.0)],
                            [plq.Piece([1, 1], [[1.0]], [0.0])])
        p = CompositeProblem(h, SmoothMap.from_strings(["x1"], 1))
        sols = solve_subproblem_enum(p, [-1.0], np.eye(1))
        _assert_same_pairs(list(sols), eager_enum(p, [-1.0], np.eye(1)))
        assert [(q.piece, q.active_set, q.unique) for q in sols] == [(0, (), True)]

    @pytest.mark.parametrize("case", ["crossing3", "crossing4", "huber", "flat", "split"])
    def test_cached_blocks_equal_a_fresh_construction_and_are_read_only(self, case):
        p = {"crossing3": lambda: _weighted_l1_crossing(*_CROSSINGS[0]).problem,
             "crossing4": lambda: _weighted_l1_crossing(*_CROSSINGS[1]).problem,
             "huber": lambda: _huber_pair((0.7, 1.2), (0.3, -0.4)),
             "flat": lambda: b1_flat().problem,
             "split": lambda: _split_q_pair(1.3, (0.3, -0.4))}[case]()
        h, plan = p.h, _face_plan(p.h)
        assert _face_plan(h) is plan
        A_all = h.hyperplane_matrix()[0]
        systems = 0
        for st in plan.first_groups:
            # The blocks a step would build from the pairs: the first system
            # of each distinct matrix (every system when all are distinct),
            # its signed columns and its Q.
            _, reps, rep = np.unique(plan.matrix[st.pairs], return_index=True,
                                     return_inverse=True)
            if reps.size == st.pairs.size:
                reps, rep = np.arange(reps.size), None
            ks, subs = np.divmod(st.pairs, len(plan.subsets))
            idx = plan.members[subs, :st.ell]
            kr, ir = ks[reps], idx[reps]
            cols = (h._signs[kr[:, None], ir][:, :, None] * A_all[ir]).transpose(0, 2, 1)
            fresh = {"pieces": ks, "members": idx, "rep_members": ir, "cols": cols,
                     "Qs": h._Q[kr], "rep": rep}
            for name, want in fresh.items():
                got = getattr(st, name)
                if want is None:
                    assert got is None, name
                    continue
                assert got.shape == want.shape and got.dtype == want.dtype, name
                assert got.tobytes() == np.ascontiguousarray(want).tobytes(), name
            for name in ("pairs", "pieces", "members", "rep", "rep_members", "cols", "Qs"):
                block = getattr(st, name)
                if block is not None:
                    with pytest.raises(ValueError, match="read-only"):
                        block[...] = 0
            systems += st.pairs.size
        assert systems == plan.faces
        for name in ("members", "size", "face", "first", "matrix"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(plan, name)[...] = 0


class TestQuasiNewton:
    def test_exact_hessian_reproduces_newton(self):
        b, md = _b1_setup()
        opts = SolveOptions(tol=1e-13)
        tr_n = newton_solve(b.problem, md, (b.start_x, b.start_y), opts,
                            reference=(b.xbar, b.ybar))

        def exact(k, x, y, trace):
            return b.problem.c.weighted_hessian(x, y)

        tr_q = quasi_newton_solve(b.problem, (b.start_x, b.start_y), exact, opts,
                                  reference=(b.xbar, b.ybar))
        assert tr_q.converged
        n = min(len(tr_n.rows), len(tr_q.rows))
        for i in range(n):
            assert np.linalg.norm(tr_n.rows[i].x - tr_q.rows[i].x) <= 1e-12
            assert np.linalg.norm(tr_n.rows[i].y - tr_q.rows[i].y) <= 1e-12

    def test_decaying_perturbation_superlinear_dm(self):
        # The shallow-curvature variant sustains enough moving iterations for
        # the Dennis-More ratio to decay below 1e-3 before the double floor.
        from plqnewton.benchmarks import b1_scaled

        b = b1_scaled()
        Hbar = b.problem.c.weighted_hessian(b.xbar, b.ybar)

        def sched(k, x, y, trace):
            return Hbar + (0.5 ** k) * np.eye(2)

        tr = quasi_newton_solve(b.problem, (b.start_x, b.start_y), sched,
                                SolveOptions(tol=1e-14, max_iter=60),
                                reference=(b.xbar, b.ybar))
        assert tr.converged
        dms = [r.dm_ratio for r in tr.rows if r.dm_ratio is not None]
        assert dms[-1] < 1e-3
        assert dms[-1] < dms[0]
        from plqnewton.rates import classify_rate

        assert classify_rate(tr.errors((b.xbar, b.ybar))).classification == "superlinear"

    def test_fixed_perturbation_linear_dm_bounded(self):
        b = b1_minimax()
        Hbar = b.problem.c.weighted_hessian(b.xbar, b.ybar)

        def sched(k, x, y, trace):
            return Hbar + np.eye(2)

        tr = quasi_newton_solve(b.problem, (b.start_x, b.start_y), sched,
                                SolveOptions(tol=1e-15, max_iter=40),
                                reference=(b.xbar, b.ybar))
        dms = [r.dm_ratio for r in tr.rows if r.dm_ratio is not None]
        assert len(dms) >= 12
        assert min(dms[-10:]) >= 1e-2


    @pytest.mark.parametrize("H", [None, np.full((2, 2), np.nan), [[1.0, np.inf], [np.inf, 1.0]],
                                   np.eye(3)])
    def test_bad_model_hessian_is_a_step_error(self, H):
        b = b1_minimax()
        with pytest.raises(StepError, match="model Hessian must be a finite 2 x 2 array"):
            solve_subproblem_enum(b.problem, b.start_x, H)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_nonfinite_schedule_is_a_step_error(self, entry):
        # A NaN passes a symmetry test written as |B - B^T| > 1e-10.
        b = b1_minimax()
        B = np.eye(2)
        B[0, 0] = entry
        with pytest.raises(StepError, match="finite symmetric"):
            quasi_newton_solve(b.problem, (b.start_x, b.start_y), lambda *_: B, SolveOptions())


class TestSmoothNewton:
    def test_rosenbrock_converges_to_root(self):
        r = rosenbrock_ls()
        tr = solve(r.problem, "smooth", r.start_x, None, SolveOptions(),
                   reference=(r.xbar, r.ybar))
        assert tr.converged
        assert np.linalg.norm(tr.final.x - r.xbar) <= 1e-10
        assert tr.final.k <= 10

    def test_expsin_quadratic_tail(self):
        e = expsin_ls()
        tr = solve(e.problem, "smooth", e.start_x, None, SolveOptions(),
                   reference=(e.xbar, e.ybar))
        assert tr.converged and tr.final.k <= 10
        from plqnewton.rates import classify_rate

        verdict = classify_rate(tr.errors((e.xbar, e.ybar)))
        assert verdict.classification == "quadratic"

    def test_linear_c_single_step(self):
        p = CompositeProblem(sumsq_plq(2), SmoothMap.from_strings(
            ["x1 - 3", "2*x2 + 1"], 2))
        tr = solve(p, "smooth", np.array([5.0, 5.0]), None, SolveOptions())
        assert tr.converged and tr.final.k == 1

    def test_fixed_point_at_solution(self):
        r = rosenbrock_ls()
        tr = solve(r.problem, "smooth", r.xbar, r.ybar, SolveOptions())
        assert tr.converged and tr.final.k == 0

    def test_regime_error_when_linearized_point_hits_boundary(self):
        from plqnewton.benchmarks import halfquad_plq

        p = CompositeProblem(halfquad_plq(), SmoothMap.from_strings(["x1 - 1"], 1))
        with pytest.raises(RegimeError):
            solve(p, "smooth", np.array([3.0]), np.array([2.0]), SolveOptions())

    def test_regime_error_on_kink_start(self):
        b = b1_minimax()
        with pytest.raises(RegimeError):
            solve(b.problem, "smooth", b.xbar, b.ybar, SolveOptions())


def _smooth_reference(p, start, opts, reference=None):
    """Method smooth as it ran before it became newton on a one-piece
    manifold: classical Newton on the stationarity equations of the start's
    piece in increment form, x + dx and y + dy, with its two refusals."""
    x = np.asarray(start[0], dtype=float).reshape(-1)
    y = None if start[1] is None else np.asarray(start[1], dtype=float).reshape(-1)
    cx = p.c.value(x)
    prof = plq.eval_with_active(p.h, cx)
    if prof.kbar != 1 or prof.ell != 0:
        raise RegimeError("start is not strictly inside a single piece")
    k0 = prof.active_pieces[0]
    Q, b = p.h.pieces[k0].Q, p.h.pieces[k0].b
    if y is None:
        y = Q @ cx + b

    def step(k, x, y, lin):
        cx, jac, H = lin
        g = np.concatenate([jac.T @ y, y - Q @ cx - b])
        try:
            delta = np.linalg.solve(kkt_matrix(H, jac, Q), -g)
        except np.linalg.LinAlgError:
            raise StepError(f"smooth system singular at iteration {k}") from None
        dx, dy = delta[:p.n], delta[p.n:]
        prof_lin = plq.eval_with_active(p.h, cx + jac @ dx)
        if prof_lin.active_pieces != (k0,) or prof_lin.ell != 0:
            raise RegimeError(
                f"linearized point left the interior of piece {k0} at iteration {k}")
        return x + dx, y + dy, dict(on_manifold=True, lin_active=prof_lin.active_pieces)

    return solver._iterate(p, solver.IterationTrace(method="smooth-newton"), x, y, step,
                           opts, reference, on_manifold=True)


def _chained_rosenbrock(n):
    """0.5 ||r(x)||^2 over the 2n - 1 chained-Rosenbrock residuals; root all-ones."""
    c = []
    for i in range(1, n):
        c += [f"10*(x{i + 1} - x{i}^2)", f"1 - x{i}"]
    c.append(f"1 - x{n}")
    return CompositeProblem(sumsq_plq(len(c)), SmoothMap.from_strings(c, n))


def _smooth_cases():
    """(name, problem, x0, y0, reference) for the smooth-method comparison."""
    for bench in (expsin_ls(), rosenbrock_ls()):
        yield bench.name, bench.problem, bench.start_x, None, (bench.xbar, bench.ybar)
    p20 = _chained_rosenbrock(20)
    for seed in range(4):
        x0 = 1.0 + np.random.default_rng(seed).uniform(-0.1, 0.1, 20)
        yield f"rosen_20/{seed}", p20, x0, None, (np.ones(20), np.zeros(39))
    halfquad = CompositeProblem(halfquad_plq(), SmoothMap.from_strings(["x1 - 1"], 1))
    yield "halfquad", halfquad, np.array([3.0]), np.array([2.0]), None
    # x2 does not enter c, so H + Jac^T Q Jac is singular.
    flat = CompositeProblem(sumsq_plq(1), SmoothMap.from_strings(["x1 - 1"], 2))
    yield "singular", flat, np.array([3.0, 0.0]), None, None
    b = b1_minimax()
    yield "b1_minimax", b.problem, b.xbar, b.ybar, (b.xbar, b.ybar)


class TestSmoothIsOnePieceNewton:
    """Method smooth is newton on the one-piece manifold at c(x0). It refuses
    what the increment-form loop refused, with the same messages, and
    otherwise takes the same iterations to the same pair: the restricted
    step solves for the new (x, y), not for the increment, so the two differ
    by rounding only."""

    @pytest.mark.parametrize("case", list(_smooth_cases()), ids=lambda case: case[0])
    def test_matches_increment_form(self, case):
        _, p, x0, y0, reference = case
        outcomes = []
        for run in (_smooth_reference, None):
            try:
                if run is None:
                    outcomes.append(solve(p, "smooth", x0, y0, SolveOptions(),
                                          reference=reference))
                else:
                    outcomes.append(run(p, (x0, y0), SolveOptions(), reference))
            except (RegimeError, StepError) as err:
                outcomes.append((type(err), str(err)))
        want, got = outcomes
        if isinstance(want, tuple):
            assert got == want
            return
        assert (got.final.k, got.converged) == (want.final.k, want.converged)
        if want.converged:
            assert np.max(np.abs(got.final.x - want.final.x)) <= 1e-14
            assert np.max(np.abs(got.final.y - want.final.y)) <= 1e-14

    def test_cases_cover_every_refusal_and_convergence(self):
        kinds = set()
        for _, p, x0, y0, reference in _smooth_cases():
            try:
                kinds.add(_smooth_reference(p, (x0, y0), SolveOptions(), reference).converged)
            except (RegimeError, StepError) as err:
                kinds.add(str(err).split(" ")[0])
        assert kinds == {True, "start", "linearized", "smooth"}


class TestNewtonNonlinearProgram:
    """newton on one piece with an active domain hyperplane: the restricted
    step is the local SQP step of min c1 s.t. c2 <= 0."""

    def test_reference_instance_is_solved_by_one_step(self):
        # A quadratic objective under a linear constraint: with y1 = 1 the
        # Hessian is exact, and one SQP step lands on (xbar, ybar).
        p = _nlp()
        tr = solve(p, "newton", np.array([1.3, 0.2]), np.array([1.0, 1.5]), SolveOptions(),
                   reference=(NLP_XBAR, NLP_YBAR))
        assert tr.converged and tr.final.k == 1
        assert tr.errors((NLP_XBAR, NLP_YBAR))[-1] <= 1e-14
        row = tr.rows[1]
        assert row.on_manifold and row.model_sosc_ok and row.gluing_gap == 0.0
        assert row.mu_min == pytest.approx(2.0)

    @pytest.mark.parametrize("x0,y0", [((1.5, 0.5), (1.0, 1.5)), ((2.0, 1.0), None),
                                       ((1.2, -0.4), (2.0, 1.0))])
    def test_curved_constraint_quadratic_tail(self, x0, y0):
        from plqnewton.rates import classify_rate

        p = _nlp(c2="1 - x1 - 0.25*x2^2")
        tr = solve(p, "newton", np.array(x0), None if y0 is None else np.array(y0),
                   SolveOptions(), reference=(NLP_XBAR, NLP_YBAR))
        assert tr.converged and tr.final.k <= 8
        errs = tr.errors((NLP_XBAR, NLP_YBAR))
        assert errs[-1] <= 1e-12
        assert classify_rate(errs).classification == "quadratic"
        assert all(r.on_manifold and r.model_sosc_ok for r in tr.rows[1:])
        assert tr.final.mu_min == pytest.approx(2.0)

    def test_model_curvature_monitor_reads_each_step_model(self):
        # The negative-curvature twin on the curved constraint. On the
        # critical subspace span{e2} the model curvature is -2 y1 - y2 / 2:
        # positive at the start's y1 = -1, negative once y1 = 1.
        p = _nlp(c1="x1^2 - x2^2", c2="1 - x1 - 0.25*x2^2")
        tr = solve(p, "newton", np.array([1.2, 0.1]), np.array([-1.0, 1.0]), SolveOptions(),
                   reference=(NLP_XBAR, NLP_YBAR))
        assert tr.converged
        md = build_manifold(p.h, p.c.value(NLP_XBAR))
        for prev, row in zip(tr.rows, tr.rows[1:]):
            lin = p.c.evaluate(prev.x, prev.y)
            assert row.model_sosc_ok is _model_sosc_ok(md.A.T @ lin.J, lin.J, lin.H,
                                                       [p.h.pieces[md.active_pieces[0]].Q])
        assert [r.model_sosc_ok for r in tr.rows] == [None, True] + [False] * (len(tr.rows) - 2)

    def test_step_leaving_the_face_is_refused(self):
        # A second domain constraint c3 = x2 - 1/2 <= 0, inactive at x0 = (1, 0)
        # where c2 = 1 - x1 <= 0 is active: the SQP step to the minimizer
        # (1, 1) of x1^2 + (x2 - 1)^2 on x1 = 1 takes c3 to 1/2.
        h = plq.PLQFunction(3, [plq.Hyperplane([0.0, 1.0, 0.0], 0.0),
                                plq.Hyperplane([0.0, 0.0, 1.0], 0.0)],
                            [plq.Piece([1, 1], np.zeros((3, 3)), [1.0, 0.0, 0.0])])
        p = CompositeProblem(h, SmoothMap.from_strings(
            ["x1^2 + (x2 - 1)^2", "1 - x1", "x2 - 0.5"], 2))
        x0 = np.array([1.0, 0.0])
        md = build_manifold(h, p.c.value(x0))
        assert (md.kbar, md.active_hyperplanes) == (1, (0,))
        with pytest.raises(RegimeError,
                           match="^linearized point left the face of piece 0 at iteration 1$"):
            newton_solve(p, md, (x0, np.array([1.0, 2.0, 0.0])), SolveOptions())

    def test_bootstrapped_manifold_without_reference(self):
        p = _nlp(c2="1 - x1 - 0.25*x2^2")
        tr = solve(p, "newton", np.array([1.5, 0.5]), np.array([1.0, 1.5]), SolveOptions())
        assert tr.converged
        assert np.linalg.norm(tr.final.x - NLP_XBAR) <= 1e-12


class TestStartY:
    """Without y0, every method starts from the gradient of the start's one
    active piece; at a kink start it needs y0."""

    @pytest.mark.parametrize("method", ["newton", "enum", "quasi", "smooth"])
    def test_one_piece_start_defaults_to_piece_gradient(self, method):
        r = rosenbrock_ls()
        cx = r.problem.c.value(r.start_x)
        tr = solve(r.problem, method, r.start_x, None, SolveOptions(max_iter=1),
                   reference=(r.xbar, r.ybar))
        assert np.array_equal(tr.rows[0].y, r.problem.h.piece_gradient(0, cx))

    @pytest.mark.parametrize("method,message", [
        ("newton", "newton method needs a start y"),
        ("enum", "enum method needs a start y at a kink start"),
        ("quasi", "quasi method needs a start y at a kink start")])
    def test_kink_start_needs_y(self, method, message):
        b = b1_minimax()
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            solve(b.problem, method, b.xbar, None, SolveOptions(), reference=(b.xbar, b.ybar))


class TestTraceCSV:
    def test_roundtrip_columns(self, tmp_path):
        b, md = _b1_setup()
        tr = newton_solve(b.problem, md, (b.start_x, b.start_y), SolveOptions(),
                          reference=(b.xbar, b.ybar))
        path = tmp_path / "trace.csv"
        tr.write_csv(path)
        import csv as csvmod

        with open(path) as fh:
            rows = list(csvmod.reader(fh))
        assert rows[0][:5] == ["iter", "x1", "x2", "y1", "y2"]
        assert rows[0][-5:] == ["stat_res", "sub_viol", "err", "dm_ratio", "on_manifold"]
        assert len(rows) == len(tr.rows) + 1
        final = rows[-1]
        assert float(final[1]) == pytest.approx(tr.final.x[0])

    def test_monitor_columns_read_back(self, tmp_path):
        # The monitors sit before stat_res; empty where a method records none.
        b = b1_cubic()
        md = build_manifold(b.problem.h, b.problem.c.value(b.xbar))
        traces = {
            "newton": newton_solve(b.problem, md, (b.start_x, b.start_y), SolveOptions(),
                                   reference=(b.xbar, b.ybar)),
            "quasi": quasi_newton_solve(b.problem, (b.start_x, b.start_y), None,
                                        SolveOptions(), reference=(b.xbar, b.ybar))}
        for method, tr in traces.items():
            assert tr.converged and len(tr.rows) > 3
            path = tmp_path / f"{method}.csv"
            tr.write_csv(path)
            with open(path) as fh:
                lines = list(csv.DictReader(fh))
            assert list(lines[0])[-9:-5] == ["mu_min", "gluing_gap", "model_sosc_ok",
                                             "lin_active"]
            assert len(lines) == len(tr.rows)
            for line, row in zip(lines, tr.rows):
                for name in ("mu_min", "gluing_gap"):
                    want = getattr(row, name)
                    assert line[name] == "" if want is None else float(line[name]) == want
                assert line["model_sosc_ok"] == ("" if row.model_sosc_ok is None
                                                 else str(int(row.model_sosc_ok)))
                got = tuple(int(j) for j in line["lin_active"].split(";") if j)
                assert got == (row.lin_active or ())
            for line in lines[1:]:
                assert line["model_sosc_ok"] == "1" and line["lin_active"] == "0;1"
                if method == "newton":
                    assert float(line["mu_min"]) > 0 and float(line["gluing_gap"]) <= 1e-8
                else:  # no block multipliers, no gluing
                    assert line["mu_min"] == line["gluing_gap"] == ""


class TestMapPasses:
    """One linearization of c per iterate: at most iterations + 1 evaluate
    passes per solve (the start's and one per step; quasi's frozen Hessian is
    the start's), and no value pass once the iteration has begun."""

    # Smooth needs a start inside one piece; b1_flat's restricted system is
    # singular.
    SOLVES = ([("newton", name) for name in ("b1_cubic", "b1_minimax", "b1_negated",
                                             "b1_scaled", "cross_l1", "expsin_ls", "l1_kink",
                                             "rosenbrock_ls")]
              + [("smooth", name) for name in ("expsin_ls", "rosenbrock_ls")]
              + [(method, name) for method in ("quasi", "enum") for name in sorted(BENCHMARKS)])

    @pytest.mark.parametrize("method,name", SOLVES)
    def test_solve_linearizes_once_per_iterate(self, monkeypatch, method, name):
        passes = []

        def counted(kind, fn):
            def wrapper(*args, **kwargs):
                passes.append(kind)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(SmoothMap, "evaluate", counted("evaluate", SmoothMap.evaluate))
        monkeypatch.setattr(SmoothMap, "value", counted("value", SmoothMap.value))
        pf = parse_problem_dict(BENCHMARKS[name]().as_problem_dict())
        report, _ = run_report(pf, "solve", {"method": method})
        assert passes.count("evaluate") <= report["iterations"] + 1
        assert "value" not in passes[passes.index("evaluate"):]
