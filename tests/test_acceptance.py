"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success; a failure prints FAIL through the
assertion. Run with `pytest tests/test_acceptance.py -v -s` for the full
criterion-by-criterion output.
"""

import time

import numpy as np
import pytest

from plqnewton.benchmarks import (
    b1_cubic,
    b1_flat,
    b1_minimax,
    b1_scaled,
    cross_l1,
    expsin_ls,
    halfquad_plq,
    l1_kink,
    l1_plq,
    l1sq_plq,
    max2_plq,
    rosenbrock_ls,
    sample_basin_start,
)
from plqnewton.calculus import PolyhedronH, dir_deriv_first, dir_deriv_second, subdiff_hrep
from plqnewton.certify import certify_subregularity
from plqnewton.composite import CompositeProblem, check_cqs, qualification_chain
from plqnewton.exprmap import SmoothMap, fd_jacobian, fd_weighted_hessian
from plqnewton.manifold import build_manifold, certify_partial_smoothness
from plqnewton.plq import eval_with_active, finite_value
from plqnewton.rates import classify_rate
from plqnewton.solver import (
    SolveOptions,
    newton_solve,
    quasi_newton_solve,
    solve,
    solve_subproblem_enum,
)

from oracles import is_empty
from plq_sampling import sample_domain_point

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_quadratic_convergence_on_kink_benchmarks():
    """Newton from 5 random basin starts on three kink benchmarks: quadratic
    verdicts, residual <= 1e-12 within 8 iterations, under 5 seconds total."""
    t0 = time.time()
    benches = (b1_cubic(), l1_kink(), cross_l1())
    kbars = []
    for bench in benches:
        cbar = bench.problem.c.value(bench.xbar)
        md = build_manifold(bench.problem.h, cbar)
        kbars.append(md.kbar)
        # The hypotheses behind the quadratic-rate theorem hold and certify.
        assert md.nondegenerate
        assert check_cqs(bench.problem, bench.xbar).sc
        assert certify_partial_smoothness(md, cbar, bench.ybar).certified
        assert certify_subregularity(bench.problem, bench.xbar).conclusion \
            == "strongly-metrically-subregular"
        rng = np.random.default_rng(42)
        for trial in range(5):
            x0, y0 = sample_basin_start(bench, rng)
            tr = newton_solve(bench.problem, md, (x0, y0), SolveOptions(tol=1e-12),
                              reference=(bench.xbar, bench.ybar))
            assert tr.converged, (bench.name, trial)
            assert tr.final.k <= 8, (bench.name, trial, tr.final.k)
            assert tr.final.stat_res <= 1e-12 and tr.final.sub_viol <= 1e-12
            errs = tr.errors((bench.xbar, bench.ybar))
            assert errs[-1] <= 1e-9, "converged to a different stationary pair"
            verdict = classify_rate(errs)
            assert verdict.classification == "quadratic", (bench.name, trial, verdict)
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s"
    assert sorted(set(kbars)) == [2, 4]
    _report(1, f"3 benchmarks x 5 starts quadratic, <=8 iterations, {elapsed:.2f}s")


def test_criterion_2_smooth_case_quadratic():
    """Zero-residual least squares converges quadratically to the known root
    in at most 10 iterations."""
    e = expsin_ls()
    tr = solve(e.problem, "smooth", e.start_x, None, SolveOptions(tol=1e-12),
               reference=(e.xbar, e.ybar))
    assert tr.converged and tr.final.k <= 10
    errs = tr.errors((e.xbar, e.ybar))
    assert errs[-1] <= 1e-10
    verdict = classify_rate(errs)
    assert verdict.classification == "quadratic", verdict
    # The classical polynomial least-squares root is reached as well (its
    # finite termination makes it a convergence check, not a rate check).
    r = rosenbrock_ls()
    tr2 = solve(r.problem, "smooth", r.start_x, None, SolveOptions(tol=1e-12),
                reference=(r.xbar, r.ybar))
    assert tr2.converged and tr2.final.k <= 10
    assert np.linalg.norm(tr2.final.x - r.xbar) <= 1e-10
    _report(2, f"smooth Newton quadratic in {tr.final.k} iterations")


def test_criterion_3_superlinear_vs_linear_separation():
    """Decaying Hessian error: superlinear with vanishing Dennis-More ratio.
    Fixed Hessian error: linear with the ratio bounded away from zero. Exact
    Hessians reproduce the restricted Newton trace."""
    b = b1_scaled()
    Hbar = b.problem.c.weighted_hessian(b.xbar, b.ybar)

    def decaying(k, x, y, trace):
        return Hbar + (0.5 ** k) * np.eye(2)

    tr_s = quasi_newton_solve(b.problem, (b.start_x, b.start_y), decaying,
                              SolveOptions(tol=1e-14, max_iter=60),
                              reference=(b.xbar, b.ybar))
    assert tr_s.converged
    v_s = classify_rate(tr_s.errors((b.xbar, b.ybar)))
    assert v_s.classification == "superlinear", v_s
    dms = [r.dm_ratio for r in tr_s.rows if r.dm_ratio is not None]
    assert dms[-1] < 1e-3, dms[-1]

    def fixed(k, x, y, trace):
        return Hbar + np.eye(2)

    tr_l = quasi_newton_solve(b.problem, (b.start_x, b.start_y), fixed,
                              SolveOptions(tol=1e-15, max_iter=40),
                              reference=(b.xbar, b.ybar))
    v_l = classify_rate(tr_l.errors((b.xbar, b.ybar)))
    assert v_l.classification == "linear", v_l
    dms_l = [r.dm_ratio for r in tr_l.rows if r.dm_ratio is not None]
    assert len(dms_l) >= 10 and min(dms_l[-10:]) >= 1e-2

    # Exact-Hessian schedule against the restricted Newton trace.
    for bench in (b1_minimax(), b1_cubic()):
        md = build_manifold(bench.problem.h, bench.problem.c.value(bench.xbar))
        opts = SolveOptions(tol=1e-13)
        tr_n = newton_solve(bench.problem, md, (bench.start_x, bench.start_y), opts,
                            reference=(bench.xbar, bench.ybar))

        def exact(k, x, y, trace, p=bench.problem):
            return p.c.weighted_hessian(x, y)

        tr_q = quasi_newton_solve(bench.problem, (bench.start_x, bench.start_y),
                                  exact, opts, reference=(bench.xbar, bench.ybar))
        n = min(len(tr_n.rows), len(tr_q.rows))
        for i in range(n):
            gap = (np.linalg.norm(tr_n.rows[i].x - tr_q.rows[i].x)
                   + np.linalg.norm(tr_n.rows[i].y - tr_q.rows[i].y))
            assert gap <= 1e-12, (bench.name, i, gap)
    _report(3, f"superlinear dm {dms[-1]:.1e}, linear rho {v_l.rho:.2f}, "
               f"dm floor {min(dms_l[-10:]):.2f}, exact-B trace gap <= 1e-12")


def test_criterion_4_calculus_oracle_equivalence():
    """First and second directional derivative formulas against difference
    quotients at 1e-5/1e-4, exact local expansion at 1e-9, and subdifferential
    membership against the subgradient-inequality oracle on a grid."""
    rng = np.random.default_rng(4242)
    builders = (l1_plq, max2_plq, l1sq_plq, halfquad_plq)
    for build in builders:
        h = build()
        for _ in range(1000):
            c = sample_domain_point(h, rng)
            c2 = sample_domain_point(h, rng)
            w = c2 - c
            if np.linalg.norm(w) < 1e-6:
                continue
            w = w / np.linalg.norm(w)  # tolerances are for unit directions
            d1 = dir_deriv_first(h, c, w)
            assert d1.is_finite
            t = 1e-6
            fd1 = (finite_value(h, c + t * w) - finite_value(h, c)) / t
            assert abs(fd1 - d1.value) <= 1e-5 * (1 + abs(d1.value))
            d2 = dir_deriv_second(h, c, w)
            # Second quotient with a step small enough to freeze the active set
            # and stay on the sampled feasible segment.
            t2 = min(1e-3, 0.9 * np.linalg.norm(c2 - c))
            K_c = set(eval_with_active(h, c).active_pieces)
            for _ in range(40):
                if set(eval_with_active(h, c + t2 * w).active_pieces) <= K_c:
                    break
                t2 *= 0.5
            fd2 = (finite_value(h, c + t2 * w) - finite_value(h, c)
                   - t2 * d1.value) / (0.5 * t2 * t2)
            assert abs(fd2 - d2.value) <= 1e-4 * (1 + abs(d2.value))
            # Exact local expansion.
            d = t2 * w
            lhs = finite_value(h, c + d)
            rhs = (finite_value(h, c) + dir_deriv_first(h, c, d).value
                   + 0.5 * dir_deriv_second(h, c, d).value)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))

    # Subdifferential membership vs the brute-force oracle, zero disagreements.
    disagreements = 0
    for h, base in ((l1_plq(), [0.0, 0.0]), (l1_plq(), [1.0, 0.0]),
                    (max2_plq(), [1.0, 1.0]), (l1sq_plq(), [1.0, 1.0])):
        base = np.asarray(base)
        P = subdiff_hrep(h, base)
        hc = finite_value(h, base)
        cprimes = [sample_domain_point(h, rng) for _ in range(400)]
        cprimes += [np.array([a, b]) for a in np.arange(-2, 2.01, 0.5)
                    for b in np.arange(-2, 2.01, 0.5)
                    if eval_with_active(h, np.array([a, b])).is_finite]
        for y1 in np.arange(-2, 2.01, 0.25):
            for y2 in np.arange(-2, 2.01, 0.25):
                y = np.array([y1, y2])
                member = P.contains(y)
                oracle = all(finite_value(h, cp) >= hc + y @ (cp - base) - 1e-8
                             for cp in cprimes)
                if member != oracle:
                    disagreements += 1
    assert disagreements == 0
    _report(4, "4000 directional-derivative oracles and 4 subdifferential grids agree")


def test_criterion_5_gluing_and_identification():
    """Every accepted Newton iteration on every benchmark: cross-piece
    agreement within 1e-10, linearized point on the manifold, multiplier
    blocks above 1e-8."""
    total_rows = 0
    for bench in (b1_minimax(), b1_cubic(), b1_scaled(), l1_kink(), cross_l1()):
        md = build_manifold(bench.problem.h, bench.problem.c.value(bench.xbar))
        rng = np.random.default_rng(7)
        starts = [(bench.start_x, bench.start_y)]
        if bench.basin is not None:
            starts += [sample_basin_start(bench, rng) for _ in range(3)]
        for x0, y0 in starts:
            tr = newton_solve(bench.problem, md, (x0, y0), SolveOptions(tol=1e-12),
                              reference=(bench.xbar, bench.ybar))
            assert tr.converged
            for row in tr.rows[1:]:
                scale = 1 + np.linalg.norm(row.x) + np.linalg.norm(row.y)
                assert row.gluing_gap <= 1e-10 * scale
                assert row.on_manifold
                assert row.mu_min > 1e-8
                total_rows += 1
    assert total_rows >= 30
    _report(5, f"{total_rows} accepted iterations glued, identified, strictly positive")


def test_criterion_6_linearized_equation_uniqueness_spot_check():
    """At the minimax solution the structure enumeration finds the solution
    pair as the unique critical point within radius 0.1 (all other structures
    infeasible); the flat variant produces a nontrivial solution family and is
    not certified."""
    b = b1_minimax()
    H = b.problem.c.weighted_hessian(b.xbar, b.ybar)
    sols = solve_subproblem_enum(b.problem, b.xbar, H)
    assert len(sols) == 1, [s.active_set for s in sols]
    s = sols[0]
    assert s.unique
    assert np.linalg.norm(s.d) <= 1e-10
    assert np.linalg.norm(s.y - b.ybar) <= 1e-10
    cert = certify_subregularity(b.problem, b.xbar)
    assert cert.conclusion == "strongly-metrically-subregular"

    flat = b1_flat()
    Hf = flat.problem.c.weighted_hessian(flat.xbar, flat.ybar)
    sols_f = solve_subproblem_enum(flat.problem, flat.xbar, Hf)
    family = [s for s in sols_f if not s.unique and s.alternate is not None]
    assert family, "expected a nontrivial solution family"
    sf = family[0]
    d2, y2 = sf.alternate
    sep = np.linalg.norm(d2 - sf.d) + np.linalg.norm(y2 - sf.y)
    assert 1e-3 <= sep <= 0.1, sep
    cert_f = certify_subregularity(flat.problem, flat.xbar)
    assert cert_f.conclusion == "not-certified"
    _report(6, "unique linearized solution for the minimax benchmark; "
               "solution segment found and certificate refused for the flat variant")


def test_criterion_7_partial_smoothness_suite():
    """The l1 face at (1, 0) is certified; the squared l1 at the origin is
    not; the l1 subdifferential at zero is the unit sup-norm ball."""
    h1 = l1_plq()
    md1 = build_manifold(h1, [1.0, 0.0])
    cert1 = certify_partial_smoothness(md1, [1.0, 0.0], [1.0, 0.5])
    assert cert1.certified and cert1.parallel_identity

    h2 = l1sq_plq()
    md2 = build_manifold(h2, [0.0, 0.0])
    cert2 = certify_partial_smoothness(md2, [0.0, 0.0], [0.0, 0.0])
    assert not cert2.certified

    P = subdiff_hrep(h1, [0.0, 0.0])
    # Set equality with the unit box by support values in the axis directions
    # and vertex membership.
    for i in range(2):
        for sgn in (1.0, -1.0):
            w = np.zeros(2)
            w[i] = sgn
            val, _ = P.support(w)
            assert val == pytest.approx(1.0, abs=1e-9)
    for vx in (-1, 1):
        for vy in (-1, 1):
            assert P.contains([vx, vy])
    assert not P.contains([1.2, 0.0])
    _report(7, "l1 face certified, squared-l1 origin refused, subdifferential box confirmed")


def test_criterion_8_qualification_implication_chain():
    """1000 randomized instances produce zero counterexamples to the
    implication chain (strict criticality, transversality, uniqueness,
    basic qualification)."""
    rng = np.random.default_rng(2718)
    checked = 0
    # Pure subspace/polyhedron instances.
    while checked < 600:
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
            continue
        k = int(rng.integers(0, dim + 1))
        # S = span of the first k columns of Q, as the null space of the rest.
        Q = np.linalg.qr(rng.standard_normal((dim, dim)))[0] if k else np.eye(dim)
        _, rep = qualification_chain(poly, Q[:, k:].T)
        assert not (rep.sc and not rep.tc)
        assert not (rep.sc and not rep.m_singleton)
        assert not (rep.tc and not rep.bcq)
        assert not (rep.m_singleton and not rep.bcq)
        checked += 1

    # Composite instances over the library functions with random affine maps.
    builders = (l1_plq, l1sq_plq, max2_plq, halfquad_plq)
    composites = 0
    while composites < 400:
        h = builders[int(rng.integers(len(builders)))]()
        n = int(rng.integers(1, 4))
        M = rng.standard_normal((h.m, n))
        q = sample_domain_point(h, rng)
        exprs = []
        for i in range(h.m):
            terms = [f"({M[i, j]:.6f})*x{j + 1}" for j in range(n)]
            exprs.append(" + ".join(terms) + f" + ({q[i]:.6f})")
        p = CompositeProblem(h, SmoothMap.from_strings(exprs, n))
        rep = check_cqs(p, np.zeros(n))
        assert not (rep.sc and not rep.tc)
        assert not (rep.tc and not rep.bcq)
        assert not (rep.m_singleton and not rep.bcq)
        composites += 1
    _report(8, f"{checked + composites} randomized instances, zero counterexamples")


def test_criterion_9_ad_against_central_differences():
    """Jacobians within 1e-6 and weighted Hessians within 1e-5 of central
    finite differences over 100 random points per benchmark map."""
    rng = np.random.default_rng(99)
    benches = (b1_minimax(), b1_cubic(), l1_kink(), cross_l1(),
               rosenbrock_ls(), expsin_ls())
    worst_j = worst_h = 0.0
    for bench in benches:
        c = bench.problem.c
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5, size=c.n)
            jac = c.jacobian(x)
            dev_j = np.max(np.abs(jac - fd_jacobian(c, x))) / (1 + np.max(np.abs(jac)))
            y = rng.standard_normal(c.m)
            wh = c.weighted_hessian(x, y)
            dev_h = np.max(np.abs(wh - fd_weighted_hessian(c, x, y))) / (1 + np.max(np.abs(wh)))
            worst_j = max(worst_j, float(dev_j))
            worst_h = max(worst_h, float(dev_h))
    assert worst_j <= 1e-6, worst_j
    assert worst_h <= 1e-5, worst_h
    _report(9, f"600 points: max jacobian dev {worst_j:.1e}, hessian dev {worst_h:.1e}")
