import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plqnewton import calculus, plq
from plqnewton.benchmarks import halfquad_plq, l1_plq, l1sq_plq, max2_plq, nlp_plq, sumsq_plq
from plqnewton.calculus import (
    MEMB_TOL,
    PolyhedronH,
    cone_contains,
    cone_generators,
    dir_deriv_first,
    dir_deriv_second,
    second_subderivative,
    subdiff_hrep,
    subdiff_hrep_at,
)
from plqnewton.composite import qualification_chain
from plqnewton.errors import DomainError, MembershipError
from plqnewton.plq import eval_with_active, finite_value
from plqnewton.simplex import feasible_point

from oracles import first_copies, is_empty, subdiff_hrep_of_pieces
from plq_sampling import sample_domain_point
from test_certify import _weighted_l1_crossing
from test_solver import _huber_pair


class TestDoubleDescription:
    def test_quadrant(self):
        rays, lin = cone_generators([[-1.0, 0.0], [0.0, -1.0]])
        assert not lin
        R = sorted(tuple(np.round(r, 9)) for r in rays)
        assert R == [(0.0, 1.0), (1.0, 0.0)]

    def test_halfspace_keeps_lineality(self):
        rays, lin = cone_generators([[1.0, 0.0]])
        assert len(rays) == 1 and np.allclose(rays[0], [-1, 0])
        assert len(lin) == 1 and abs(lin[0][1]) == pytest.approx(1.0)

    def test_full_space(self):
        rays, lin = cone_generators(np.zeros((0, 3)))
        assert not rays and len(lin) == 3

    def test_pointed_3d(self):
        # {v : v_i <= v_3-ish}: octant cone rotated; verify count and feasibility.
        B = np.array([[-1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0], [1.0, 1.0, -1.0]])
        rays, lin = cone_generators(B)
        assert not lin
        for r in rays:
            assert np.all(B @ r <= 1e-9)

    def test_random_cones_double_dual(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            m = int(rng.integers(2, 5))
            rows = int(rng.integers(1, 6))
            B = rng.standard_normal((rows, m))
            rays, lin = cone_generators(B)
            # Generators lie in the cone.
            for r in rays:
                assert np.all(B @ r <= 1e-8)
            for l in lin:
                assert np.max(np.abs(B @ l)) <= 1e-8
            # Conversely, cone members found by LP decompose over the generators.
            for _ in range(4):
                w = rng.standard_normal(m)
                box = np.vstack([np.eye(m), -np.eye(m)])
                v = feasible_point(F=np.vstack([B, box, -w[None, :]]),
                                   f=np.concatenate([np.zeros(rows), np.ones(2 * m), [-0.05]]))
                if v is None:
                    continue
                G = np.array(rays + lin + [-l for l in lin]).T
                lam = feasible_point(F=-np.eye(G.shape[1]), f=np.zeros(G.shape[1]),
                                     E=G, e=v, dim=G.shape[1])
                assert lam is not None, "cone member not covered by generators"


class TestDirDeriv:
    def test_l1_at_origin(self):
        d = dir_deriv_first(l1_plq(), [0, 0], [1, -2])
        assert d.is_finite and d.value == pytest.approx(3.0)

    def test_nlp_leaves_domain(self):
        d = dir_deriv_first(nlp_plq(), [0, 0], [1, 1])
        assert d.is_inf

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            dir_deriv_first(nlp_plq(), [0, 1], [1, 0])

    def test_halfquad_left_derivative(self):
        # Oracle: finite-difference limit (h(t w) - h(0)) / t as t -> 0+.
        h = halfquad_plq()
        d = dir_deriv_first(h, [0.0], [-1.0])
        fd = (finite_value(h, [-1e-8]) - finite_value(h, [0.0])) / 1e-8
        assert d.is_finite and d.value == pytest.approx(fd, abs=1e-10)
        assert d.value == pytest.approx(0.0)

    def test_second_l1_zero(self):
        for w in ([1, 0], [0, -1], [2, 3]):
            d = dir_deriv_second(l1_plq(), [0, 0], w)
            assert d.is_finite and d.value == pytest.approx(0.0)

    def test_second_halfquad_right(self):
        # Oracle: (h(t) - h(0) - t h'(0;1)) / (t^2/2) = 1 for t > 0.
        h = halfquad_plq()
        t = 1e-5
        oracle = (finite_value(h, [t]) - finite_value(h, [0.0])) / (0.5 * t * t)
        d = dir_deriv_second(h, [0.0], [1.0])
        assert d.is_finite and d.value == pytest.approx(oracle) == pytest.approx(1.0)

    def test_second_l1sq_diagonal(self):
        # Oracle: <w, Q w> with Q = 2[[1,1],[1,1]] gives 8; FD of (|t|+|t|)^2 agrees.
        w = np.array([1.0, 1.0])
        Q = 2.0 * np.array([[1.0, 1.0], [1.0, 1.0]])
        assert w @ Q @ w == pytest.approx(8.0)
        t = 1e-6
        fd = ((2 * t) ** 2) / (0.5 * t * t)
        assert fd == pytest.approx(8.0)
        d = dir_deriv_second(l1sq_plq(), [0, 0], w)
        assert d.is_finite and d.value == pytest.approx(8.0)

    def test_second_nonnegative_when_finite(self):
        rng = np.random.default_rng(11)
        for build in (l1_plq, l1sq_plq, max2_plq, halfquad_plq):
            h = build()
            for _ in range(100):
                c = sample_domain_point(h, rng)
                w = rng.standard_normal(h.m)
                d = dir_deriv_second(h, c, w)
                if d.is_finite:
                    assert d.value >= -1e-12


def _box(dim, lo, hi):
    F = np.vstack([np.eye(dim), -np.eye(dim)])
    f = np.concatenate([np.full(dim, hi), np.full(dim, -lo)])
    return PolyhedronH(np.zeros((0, dim)), np.zeros(0), F, f)


def _poly_equal(P: PolyhedronH, Q: PolyhedronH, tol=1e-7) -> bool:
    """Mutual inclusion of two bounded H-form polyhedra by support comparison."""
    dim = P.dim
    dirs = [np.eye(dim)[i] * s for i in range(dim) for s in (1, -1)]
    rng = np.random.default_rng(5)
    dirs += [v / np.linalg.norm(v) for v in rng.standard_normal((24, dim))]
    for w in dirs:
        vp, _ = P.support(w)
        vq, _ = Q.support(w)
        if vp is None or vq is None or abs(vp - vq) > tol:
            return False
    return True


def _subdiff_reference(h, c):
    """The subdifferential built the direct way: every active piece's tangent
    cone converted at c, one dot per row, rows normalized by PolyhedronH,
    then each unit row kept once, with the first piece's right-hand side."""
    prof = eval_with_active(h, c)
    E, e, F, f = [], [], [], []
    for k in prof.active_pieces:
        g = h.piece_gradient(k, c)
        rays, lin = cone_generators(h.tangent_rows_at(k, plq.active_structure(h, c)[1]))
        E += lin
        e += [float(l @ g) for l in lin]
        F += rays
        f += [float(r @ g) for r in rays]
    P = PolyhedronH(np.array(E).reshape(len(E), h.m), np.array(e),
                    np.array(F).reshape(len(F), h.m), np.array(f))
    return PolyhedronH.from_unit_rows(*first_copies(P.E, P.e), *first_copies(P.F, P.f))


def _oblique_pair(w, Q):
    """w1 |c1 + c2| + w2 |c1 - 2 c2| + c^T Q c / 2: two hyperplanes through
    0 whose normals (1, 1) and (1, -2) are no signed axes."""
    A = np.array([[1.0, 1.0], [1.0, -2.0]])
    return plq.PLQFunction(2, [plq.Hyperplane(a, 0.0) for a in A],
                           [plq.Piece(sg, Q, -(np.array(sg) * w) @ A)
                            for sg in itertools.product((-1, 1), repeat=2)])


def _stacked_subdiff_case(seed):
    """(h, c) for a weighted-l1 crossing with s <= 4, a Huber pair or an
    oblique pair, c on a random subset of h's hyperplanes."""
    rng = np.random.default_rng(seed)
    family = seed % 3
    if family == 0:
        s = int(rng.integers(1, 5))
        h = _weighted_l1_crossing(w=tuple(rng.uniform(0.5, 2.0, s)), a=(0.0,) * s).problem.h
    elif family == 1:
        h = _huber_pair(rng.uniform(0.5, 1.5, 2), (0.0, 0.0)).h
    else:
        B = rng.standard_normal((2, 2))
        h = _oblique_pair(rng.uniform(0.5, 2.0, 2), B @ B.T)
    A, alpha = h.hyperplane_matrix()
    c = rng.standard_normal(h.m) * rng.choice([1e-3, 1.0, 10.0])
    on = np.flatnonzero(rng.random(h.n_hyperplanes) < 0.6)
    if on.size:
        c = c - np.linalg.lstsq(A[on], A[on] @ c - alpha[on], rcond=None)[0]
    return h, c


class TestSubdiff:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 100_000))
    def test_stacked_rows_equal_the_piece_by_piece_loop(self, seed):
        h, c = _stacked_subdiff_case(seed)
        prof = eval_with_active(h, c)
        for _ in range(2):  # stacking, then reading the cache
            got, want = subdiff_hrep_at(h, prof, c), subdiff_hrep_of_pieces(h, prof, c)
            for name in "EeFf":
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape and np.array_equal(a, b), name
                assert np.array_equal(np.signbit(a), np.signbit(b)), name

    def test_profile_outside_dom_h_is_refused(self):
        # halfquad is +inf below -1: dh is empty there, and no piece is active.
        h, c = halfquad_plq(), np.array([-2.0])
        with pytest.raises(DomainError):
            subdiff_hrep_at(h, eval_with_active(h, c), c)

    def test_stacked_cases_cover_both_rules_and_crossings(self):
        # Each family reaches one, two and four or more active pieces; only
        # the oblique pair's kinks take the one-dot-per-row rule.
        kbars, per_row = {0: set(), 1: set(), 2: set()}, set()
        for seed in range(60):
            h, c = _stacked_subdiff_case(seed)
            prof = eval_with_active(h, c)
            kbars[seed % 3].add(min(prof.kbar, 4))
            if calculus._subdiff_rows(h, prof.active_pieces, prof.active_set).axes is None:
                per_row.add((seed % 3, min(prof.kbar, 4)))
        assert all(k == {1, 2, 4} for k in kbars.values())
        assert per_row == {(2, 2), (2, 4)}

    def test_cached_cones_give_the_direct_construction_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for build in (l1_plq, l1sq_plq, max2_plq, nlp_plq, halfquad_plq, sumsq_plq):
            h = build()
            grid = [np.array(p, dtype=float) for p in np.ndindex(*(3,) * h.m)] if h.m <= 2 else []
            pts = [sample_domain_point(h, rng) for _ in range(20)]
            pts += [p - 1.0 for p in grid if eval_with_active(h, p - 1.0).is_finite]
            for c in pts:
                want = _subdiff_reference(h, c)
                for _ in range(2):  # converting, then reading the cache
                    got = subdiff_hrep(h, c)
                    for a, b in ((got.E, want.E), (got.e, want.e), (got.F, want.F), (got.f, want.f)):
                        assert a.shape == b.shape and np.array_equal(a, b), (build.__name__, c)
                        assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_l1_at_origin_is_unit_box(self):
        P = subdiff_hrep(l1_plq(), [0, 0])
        assert _poly_equal(P, _box(2, -1.0, 1.0))

    def test_l1sq_at_origin_is_zero(self):
        P = subdiff_hrep(l1sq_plq(), [0, 0])
        single, pt = P.is_singleton()
        assert single and np.allclose(pt, 0, atol=1e-9)

    def test_l1_on_face(self):
        # {1} x [-1, 1]: brute-force candidates on a grid agree with the H-form.
        h = l1_plq()
        c = np.array([1.0, 0.0])
        P = subdiff_hrep(h, c)
        rng = np.random.default_rng(9)
        cprimes = [sample_domain_point(h, rng) for _ in range(300)]
        cprimes += [np.array([a, b]) for a in np.arange(-2, 2.1, 0.5)
                    for b in np.arange(-2, 2.1, 0.5)]
        grid = [np.array([y1, y2]) for y1 in np.arange(-2, 2.01, 0.25)
                for y2 in np.arange(-2, 2.01, 0.25)]
        hc = finite_value(h, c)
        for y in grid:
            oracle = all(finite_value(h, cp) >= hc + y @ (cp - c) - 1e-8 for cp in cprimes)
            assert P.contains(y) == oracle, y
        # And the set is exactly the expected segment.
        E = np.array([[1.0, 0.0]])
        seg = PolyhedronH(E, np.array([1.0]), np.array([[0, 1.0], [0, -1.0]]), np.array([1.0, 1.0]))
        assert _poly_equal(P, seg)

    def test_subgradient_inequality_both_directions(self):
        # Membership in the H-form iff the subgradient inequality holds on samples.
        rng = np.random.default_rng(23)
        for build, c in ((l1_plq, [0.0, 0.0]), (max2_plq, [1.0, 1.0]), (l1sq_plq, [1.0, 1.0])):
            h = build()
            c = np.array(c)
            P = subdiff_hrep(h, c)
            hc = finite_value(h, c)
            cprimes = [sample_domain_point(h, rng) for _ in range(200)]
            cprimes += [p for p in (np.array([a, b]) for a in np.arange(-2, 2.1, 0.5)
                                    for b in np.arange(-2, 2.1, 0.5))
                        if eval_with_active(h, p).is_finite]
            for _ in range(60):
                y = rng.uniform(-3, 3, size=h.m)
                member = P.contains(y, slack=1e-12)
                oracle = all(finite_value(h, cp) >= hc + y @ (cp - c) - 1e-8 for cp in cprimes)
                if member:
                    assert oracle
                elif P.violation(y) > 1e-6:
                    # Clearly outside: the oracle should find a witness.
                    assert not oracle

    def test_nonempty_for_all_domain_points(self):
        rng = np.random.default_rng(4)
        for build in (l1_plq, l1sq_plq, max2_plq, nlp_plq, halfquad_plq):
            h = build()
            for _ in range(40):
                c = sample_domain_point(h, rng)
                assert not is_empty(subdiff_hrep(h, c))


class TestSecondSubderivative:
    def test_l1_inside_critical_cone(self):
        d = second_subderivative(l1_plq(), [0, 0], [1, 1], [1, 1])
        assert d.is_finite and d.value == pytest.approx(0.0)

    def test_l1_outside_critical_cone(self):
        # h'(0; (-1,0)) = 1 while <y, w> = -1: outside K(c, y).
        d = second_subderivative(l1_plq(), [0, 0], [1, 1], [-1, 0])
        assert d.is_inf

    def test_l1sq_smooth_point(self):
        h = l1sq_plq()
        c = np.array([1.0, 1.0])
        y = np.array([4.0, 4.0])  # gradient of the active piece
        w = np.array([0.3, -0.7])
        d = second_subderivative(h, c, y, w)
        Q = 2.0 * np.array([[1.0, 1.0], [1.0, 1.0]])
        assert d.is_finite and d.value == pytest.approx(w @ Q @ w)
        t = 1e-5
        fd = (finite_value(h, c + t * w) - finite_value(h, c) - t * (y @ w)) / (0.5 * t * t)
        assert d.value == pytest.approx(fd, abs=1e-4)

    def test_rejects_non_subgradient(self):
        with pytest.raises(MembershipError):
            second_subderivative(l1_plq(), [0, 0], [2.0, 0.0], [1, 0])


class TestFiniteDifferenceOracles:
    def test_first_and_second_match_difference_quotients(self):
        rng = np.random.default_rng(17)
        for build in (l1_plq, l1sq_plq, max2_plq, halfquad_plq):
            h = build()
            for _ in range(250):
                c = sample_domain_point(h, rng)
                c2 = sample_domain_point(h, rng)
                w = c2 - c
                if np.linalg.norm(w) < 1e-9:
                    continue
                t = 1e-6
                d1 = dir_deriv_first(h, c, w)
                assert d1.is_finite
                fd1 = (finite_value(h, c + t * w) - finite_value(h, c)) / t
                assert abs(fd1 - d1.value) <= 1e-5 * (1 + abs(d1.value))
                d2 = dir_deriv_second(h, c, w)
                assert d2.is_finite
                # The expansion is exact once the step keeps the active set
                # inside the active set at c, so a larger step avoids the
                # catastrophic cancellation of the second quotient.
                t2 = 1e-3
                K_c = set(eval_with_active(h, c).active_pieces)
                for _ in range(40):
                    if set(eval_with_active(h, c + t2 * w).active_pieces) <= K_c:
                        break
                    t2 *= 0.5
                fd2 = (finite_value(h, c + t2 * w) - finite_value(h, c) - t2 * d1.value) / (0.5 * t2 * t2)
                assert abs(fd2 - d2.value) <= 1e-4 * (1 + abs(d2.value))

    def test_exact_local_expansion(self):
        # h(c + d) = h(c) + h'(c; d) + 0.5 h''(c; d) exactly once the step keeps
        # the active set inside the active set at c.
        rng = np.random.default_rng(29)
        for build in (l1_plq, l1sq_plq, max2_plq, halfquad_plq):
            h = build()
            checked = 0
            for _ in range(200):
                c = sample_domain_point(h, rng)
                c2 = sample_domain_point(h, rng)
                w = c2 - c
                if np.linalg.norm(w) < 1e-9:
                    continue
                t = 1e-2
                K_c = set(eval_with_active(h, c).active_pieces)
                for _ in range(40):
                    if set(eval_with_active(h, c + t * w).active_pieces) <= K_c:
                        break
                    t *= 0.5
                d = t * w
                lhs = finite_value(h, c + d)
                rhs = (finite_value(h, c)
                       + dir_deriv_first(h, c, d).value
                       + 0.5 * dir_deriv_second(h, c, d).value)
                assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))
                checked += 1
            assert checked > 150


class TestPolyhedronH:
    def test_membership_and_violation(self):
        P = _box(2, -1, 1)
        assert P.contains([0.5, -0.5])
        assert not P.contains([1.5, 0.0])
        assert P.violation([1.5, 0.0]) == pytest.approx(0.5)

    def test_singleton_detection(self):
        E = np.array([[1.0, 0.0], [0.0, 1.0]])
        P = PolyhedronH(E, np.array([2.0, -1.0]), np.zeros((0, 2)), np.zeros(0))
        single, pt = P.is_singleton()
        assert single and np.allclose(pt, [2, -1])
        assert not _box(2, -1, 1).is_singleton()[0]

    def test_singleton_via_opposing_inequalities(self):
        F = np.array([[1.0], [-1.0]])
        P = PolyhedronH(np.zeros((0, 1)), np.zeros(0), F, np.array([1.0, -1.0]))
        single, pt = P.is_singleton()
        assert single and pt[0] == pytest.approx(1.0)

    def test_ri_point_of_segment(self):
        E = np.array([[1.0, 0.0]])
        seg = PolyhedronH(E, np.array([1.0]), np.array([[0, 1.0], [0, -1.0]]), np.array([1.0, 1.0]))
        y, depth = seg.ri_point()
        assert depth == pytest.approx(1.0)
        assert np.allclose(y, [1.0, 0.0], atol=1e-9)

    def test_empty(self):
        F = np.array([[1.0], [-1.0]])
        P = PolyhedronH(np.zeros((0, 1)), np.zeros(0), F, np.array([-2.0, 1.0]))
        assert is_empty(P)

    def test_parallel_basis_of_face(self):
        E = np.array([[1.0, 0.0]])
        seg = PolyhedronH(E, np.array([1.0]), np.array([[0, 1.0], [0, -1.0]]), np.array([1.0, 1.0]))
        par = seg.parallel_basis()
        assert par.shape == (2, 1)
        assert abs(par[1, 0]) == pytest.approx(1.0)

    def test_cone_contains_scale(self):
        assert cone_contains([[1.0, 0.0]], [-5.0, 3.0])
        assert not cone_contains([[1.0, 0.0]], [0.1, 0.0])


def _support_loop_mask(P: PolyhedronH):
    """The implicit-equality mask by one support LP per inequality row: the
    reference the max-slack shortcut must reproduce."""
    mask = np.zeros(P.F.shape[0], dtype=bool)
    for i in range(P.F.shape[0]):
        val, _ = P.support(-P.F[i])
        if val is None:
            return mask
        if np.isinf(val):
            continue
        mask[i] = P.f[i] + val <= MEMB_TOL
    return mask


def _random_polyhedron(rng):
    """Small-integer data in dim 2-4 around an integer point y0: rows tight or
    slack at y0, opposed pairs a y <= b, -a y <= -b (forced implicit
    equalities; now and then shifted apart so the set is empty), exact and
    scaled duplicates, non-unit rows and an equality block. With few rows the
    set is unbounded."""
    d = int(rng.integers(2, 5))
    y0 = rng.integers(-2, 3, d).astype(float)

    def row():
        while True:
            a = rng.integers(-3, 4, d).astype(float)
            if np.any(a):
                return a

    F, f = [], []
    for _ in range(int(rng.integers(1, 6))):
        a = row()
        F.append(a)
        f.append(a @ y0 + rng.choice([0.0, 0.0, 1.0, 2.0]))
    for _ in range(int(rng.integers(0, 3))):
        a, gap = row(), float(rng.random() < 0.1)
        k1, k2 = rng.integers(1, 4, 2)
        F += [k1 * a, -k2 * a]
        f += [k1 * (a @ y0), -k2 * (a @ y0 + gap)]
    for i in rng.integers(0, len(F), int(rng.integers(0, 4))):
        F.append(F[i] * rng.choice([1.0, 1.0, 2.0, 0.5]))
        f.append(f[i] * (F[-1] @ F[i]) / (F[i] @ F[i]))
    E = [row() for _ in range(int(rng.integers(0, 3)))]
    e = [a @ y0 + float(rng.random() < 0.1) for a in E]
    order = rng.permutation(len(F))
    return PolyhedronH(np.array(E).reshape(len(E), d), np.array(e),
                       np.array(F)[order], np.array(f)[order])


class TestImplicitEqualityMask:
    """`implicit_equality_mask` clears rows with slack at one max-slack point
    and runs a support LP per remaining row; it must give the per-row
    support-LP mask."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_one_support_lp_per_row(self, seed):
        P = _random_polyhedron(np.random.default_rng(seed))
        assert np.array_equal(P.implicit_equality_mask(), _support_loop_mask(P))

    def test_generator_covers_every_case(self):
        kinds = set()
        for seed in range(200):
            P = _random_polyhedron(np.random.default_rng(seed))
            if is_empty(P):
                kinds.add("empty")
                continue
            if np.isinf(P.support(np.ones(P.dim))[0]):
                kinds.add("unbounded")
            if P.implicit_equality_mask().any():
                kinds.add("implicit")
            if len({r.tobytes() for r in P.F}) < P.F.shape[0]:
                kinds.add("duplicate")
            if P.E.shape[0]:
                kinds.add("equalities")
        assert kinds == {"empty", "unbounded", "implicit", "duplicate", "equalities"}

    def test_point_outside_clears_no_row(self, monkeypatch):
        # {0} as y1 <= 0, y2 <= 0, -y1 - y2 <= 0: every row is an implicit
        # equality. At (-1, 0) row 1 has slack 1, more than the violation
        # 1/sqrt(2), so only the membership check keeps it in the mask.
        P = PolyhedronH(np.zeros((0, 2)), np.zeros(0),
                        np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]), np.zeros(3))
        monkeypatch.setattr(calculus, "max_slack_point",
                            lambda *args, **kwargs: (np.array([-1.0, 0.0]), 1.0))
        supports = []
        real_support = PolyhedronH.support
        monkeypatch.setattr(PolyhedronH, "support",
                            lambda self, w: supports.append(w) or real_support(self, w))
        assert P.implicit_equality_mask().tolist() == [True, True, True]
        assert len(supports) == 3

    def test_thin_set_point_just_outside_clears_no_implicit_row(self, monkeypatch):
        # {0} as the thin wedge (1, s) y <= 0, (-1, s) y <= 0 and -y2 <= 0,
        # rows normalized: every row is an implicit equality. At (0, t) the
        # wedge rows are violated by s t / sqrt(1 + s^2), inside `contains`,
        # while -y2 <= 0 has slack t, about 100 times that: above MEMB_TOL
        # plus the violation, below CLEAR_MARGIN, so a support LP keeps it.
        s = 0.01
        t = 0.5 * calculus.MEMB_TOL * np.sqrt(1 + s * s) / s
        P = PolyhedronH(np.zeros((0, 2)), np.zeros(0),
                        np.array([[1.0, s], [-1.0, s], [0.0, -1.0]]), np.zeros(3))
        y = np.array([0.0, t])
        assert P.contains(y) and t > calculus.MEMB_TOL + P.violation(y)
        monkeypatch.setattr(calculus, "max_slack_point", lambda *args, **kwargs: (y, 0.0))
        assert P.implicit_equality_mask().tolist() == [True, True, True]


class TestDistinctRows:
    """`subdiff_hrep_at` stacks each unit row once, -0.0 equal to 0.0, with
    the first active piece's right-hand side; the set, and every verdict the
    analysis reads from it, is the one of the piece-by-piece stack that
    keeps a copy per piece."""

    def test_box_facets_of_the_l1_origin_once(self):
        P = subdiff_hrep(l1_plq(), [0, 0])
        assert P.E.shape == (0, 2) and P.F.shape == (4, 2)
        assert _poly_equal(P, _box(2, -1.0, 1.0))

    @pytest.mark.parametrize("s", range(1, 5))
    def test_crossing_holds_2s_facets(self, s):
        # Each of the 2^s active pieces has s of the 2s box facets, so the
        # per-piece stack holds s 2^s rows.
        rng = np.random.default_rng(s)
        w = rng.uniform(0.5, 2.0, s)
        h, c = _weighted_l1_crossing(w=tuple(w), a=(0.0,) * s).problem.h, np.zeros(s)
        prof = eval_with_active(h, c)
        P = subdiff_hrep_at(h, prof, c)
        assert P.E.shape == (0, s) and P.F.shape == (2 * s, s)
        assert subdiff_hrep_of_pieces(h, prof, c, repeats=True).F.shape == (s * 2 ** s, s)
        assert _poly_equal(P, PolyhedronH(np.zeros((0, s)), np.zeros(0),
                                          np.vstack([np.eye(s), -np.eye(s)]), np.r_[w, w]))

    def test_one_equality_at_the_max2_kink(self):
        h, c = max2_plq(), np.array([1.0, 1.0])
        prof = eval_with_active(h, c)
        P = subdiff_hrep_at(h, prof, c)
        assert P.E.shape == (1, 2) and P.F.shape == (2, 2)
        assert subdiff_hrep_of_pieces(h, prof, c, repeats=True).E.shape == (2, 2)

    def test_signed_zero_twins_are_repeats(self):
        F = np.array([[1.0, 0.0], [1.0, -0.0], [-0.0, 1.0], [0.0, 1.0]])
        first = calculus._first_copies(F)
        assert first.tolist() == [0, 2]
        assert not np.signbit(F[first][0, 1]) and np.signbit(F[first][1, 0])
        assert calculus._first_copies(np.zeros((0, 2))).tolist() == []
        # The pieces' rays at a crossing have such twins: at s = 3 the 24
        # stacked rows hold 8 byte patterns for the 6 facets.
        h, c = _weighted_l1_crossing(w=(1.0,) * 3, a=(0.0,) * 3).problem.h, np.zeros(3)
        prof = eval_with_active(h, c)
        rows = subdiff_hrep_of_pieces(h, prof, c, repeats=True).F
        assert len(rows) == 24 and len({r.tobytes() for r in rows}) == 8
        assert subdiff_hrep_at(h, prof, c).F.shape == (6, 3)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 100_000))
    def test_same_set_and_verdicts_without_repeats(self, seed):
        h, c = _stacked_subdiff_case(seed)
        prof = eval_with_active(h, c)
        D, P = subdiff_hrep_at(h, prof, c), subdiff_hrep_of_pieces(h, prof, c, repeats=True)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            # A repeat's right-hand side may differ from the kept one by a
            # rounding error (another piece's gradient), and a matrix product
            # may sum a row in an order that depends on the row count.
            y = rng.integers(-3, 4, h.m) + rng.choice([0.0, 0.5, 1e-10], h.m)
            assert D.contains(y) == P.contains(y)
            rhs = np.abs(np.r_[P.e, P.f]).max(initial=0.0)
            rounding = 8 * np.finfo(float).eps * (1.0 + np.abs(y).sum() + rhs)
            assert abs(D.violation(y) - P.violation(y)) <= rounding
        rows = rng.integers(-2, 3, (int(rng.integers(0, h.m)), h.m)).astype(float)
        mult_p, cqs_p = qualification_chain(P, rows)
        mult_d, cqs_d = qualification_chain(D, rows)
        assert mult_d.status == mult_p.status
        assert (cqs_d.tc, cqs_d.bcq, cqs_d.sc) == (cqs_p.tc, cqs_p.bcq, cqs_p.sc)
