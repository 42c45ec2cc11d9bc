import numpy as np
import pytest

from plqnewton.benchmarks import (
    BENCHMARKS,
    b1_cubic,
    b1_flat,
    b1_minimax,
    cross_l1,
    expsin_ls,
    l1_kink,
    max2_plq,
    rosenbrock_ls,
    sumsq_plq,
)
from plqnewton.cli import run_report
from plqnewton.composite import CompositeProblem
from plqnewton.errors import DivergenceError, RegimeError
from plqnewton.exprmap import SmoothMap
from plqnewton.manifold import build_manifold, mu_of
from plqnewton.problems import parse_problem_dict
from plqnewton.solver import (
    RestrictedState,
    SolveOptions,
    newton_solve,
    quasi_newton_solve,
    restricted_newton_step,
    smooth_newton_solve,
    solve_subproblem_enum,
)


def _b1_setup():
    b = b1_minimax()
    md = build_manifold(b.problem.h, b.problem.c.value(b.xbar))
    return b, md


class TestRestrictedStep:
    def test_solution_is_fixed_point(self):
        b, md = _b1_setup()
        mu = mu_of(md, b.problem.c.value(b.xbar), b.ybar)
        state = RestrictedState(b.xbar.copy(), b.ybar.copy(), mu.blocks.copy())
        for j in range(md.kbar):
            new = restricted_newton_step(b.problem, md, state, j)
            assert np.linalg.norm(new.x - b.xbar) <= 1e-12
            assert np.linalg.norm(new.y - b.ybar) <= 1e-12
            assert np.linalg.norm(new.mu_blocks[j] - mu.blocks[j]) <= 1e-12

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
            mu0 = np.maximum(mu_of(md, b.problem.c.value(b.xbar), b.ybar).blocks, 1e-3)
            state = RestrictedState(x0, y0, mu0)
            err_old = np.linalg.norm(x0 - b.xbar) + np.linalg.norm(y0 - b.ybar)
            new = restricted_newton_step(b.problem, md, state, 0)
            err_new = np.linalg.norm(new.x - b.xbar) + np.linalg.norm(new.y - b.ybar)
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
        state = RestrictedState(x_hat, y_hat, np.array([[0.5], [0.5]]))
        new = restricted_newton_step(p, md, state, 1)
        M = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, 0.0]])
        rhs = np.array([0.0, 0.0, 0.0])  # x_hat = 0, c(0) = 0 = cbar
        direct = np.linalg.solve(M, rhs)
        assert np.allclose([new.x[0], new.y[0], new.mu_blocks[1, 0]], direct, atol=1e-12)


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
                sols = solve_subproblem_enum(bench.problem, prev.x, prev.y, H)
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
        sols = solve_subproblem_enum(b.problem, x_hat, y_hat, H)
        assert len(sols) == 1
        best = sols[0]
        mu0 = np.array([[0.5], [0.5]])
        state = RestrictedState(x_hat, y_hat, mu0)
        stepped = restricted_newton_step(b.problem, md, state, 0)
        assert np.linalg.norm(x_hat + best.d - stepped.x) <= 1e-9
        assert np.linalg.norm(best.y - stepped.y) <= 1e-9

    def test_single_piece_is_single_solve(self):
        p = CompositeProblem(sumsq_plq(2), SmoothMap.from_strings(["x1", "x2"], 2))
        x_hat = np.array([1.0, -2.0])
        sols = solve_subproblem_enum(p, x_hat, p.c.value(x_hat), np.eye(2))
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
        sols = solve_subproblem_enum(p, x_hat, np.array([0.5, 0.5]), H)
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
        sols = solve_subproblem_enum(b.problem, b.xbar, b.ybar, H)
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


class TestSmoothNewton:
    def test_rosenbrock_converges_to_root(self):
        r = rosenbrock_ls()
        tr = smooth_newton_solve(r.problem, (r.start_x, None), SolveOptions(),
                                 reference=(r.xbar, r.ybar))
        assert tr.converged
        assert np.linalg.norm(tr.final.x - r.xbar) <= 1e-10
        assert tr.final.k <= 10

    def test_expsin_quadratic_tail(self):
        e = expsin_ls()
        tr = smooth_newton_solve(e.problem, (e.start_x, None), SolveOptions(),
                                 reference=(e.xbar, e.ybar))
        assert tr.converged and tr.final.k <= 10
        from plqnewton.rates import classify_rate

        verdict = classify_rate(tr.errors((e.xbar, e.ybar)))
        assert verdict.classification == "quadratic"

    def test_linear_c_single_step(self):
        p = CompositeProblem(sumsq_plq(2), SmoothMap.from_strings(
            ["x1 - 3", "2*x2 + 1"], 2))
        tr = smooth_newton_solve(p, (np.array([5.0, 5.0]), None), SolveOptions())
        assert tr.converged and tr.final.k == 1

    def test_fixed_point_at_solution(self):
        r = rosenbrock_ls()
        tr = smooth_newton_solve(r.problem, (r.xbar, r.ybar), SolveOptions())
        assert tr.converged and tr.final.k == 0

    def test_regime_error_when_linearized_point_hits_boundary(self):
        from plqnewton.benchmarks import halfquad_plq

        p = CompositeProblem(halfquad_plq(), SmoothMap.from_strings(["x1 - 1"], 1))
        with pytest.raises(RegimeError):
            smooth_newton_solve(p, (np.array([3.0]), np.array([2.0])), SolveOptions())

    def test_regime_error_on_kink_start(self):
        b = b1_minimax()
        with pytest.raises(RegimeError):
            smooth_newton_solve(b.problem, (b.xbar, b.ybar), SolveOptions())


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


class TestMapPasses:
    """One linearization of c per iterate: at most iterations + 1 evaluate
    passes per solve (the start's and one per step; quasi's frozen Hessian is
    the start's), and no value pass once the iteration has begun."""

    # Newton needs a kink at the reference and smooth a start inside one
    # piece; b1_flat's restricted system is singular.
    SOLVES = ([("newton", name) for name in ("b1_cubic", "b1_minimax", "b1_negated",
                                             "b1_scaled", "cross_l1", "l1_kink")]
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
