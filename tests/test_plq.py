import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from plqnewton.benchmarks import halfquad_plq, l1_plq, l1sq_plq, max2_plq, nlp_plq, sumsq_plq
from plqnewton.errors import RepresentationError
from plqnewton.plq import (
    VALUE_TOL,
    Hyperplane,
    Piece,
    PLQFunction,
    active_structure,
    eval_with_active,
    finite_value,
    piece_interior_point,
    validate_representation,
)
from plqnewton.simplex import feasible_point

from oracles import piece_contains
from plq_sampling import sample_domain_point


class TestEvalWithActive:
    def test_l1_origin_all_pieces_active(self):
        prof = eval_with_active(l1_plq(), [0.0, 0.0])
        assert prof.value.is_finite and prof.value.value == pytest.approx(0.0, abs=1e-15)
        assert prof.active_pieces == (0, 1, 2, 3)
        assert prof.active_set == (0, 1)
        assert prof.kbar == 4 and prof.ell == 2

    def test_nlp_outside_domain(self):
        prof = eval_with_active(nlp_plq(), [3.0, 1.0])
        assert prof.value.is_inf
        assert prof.active_pieces == () and prof.kbar == 0

    def test_l1sq_interior_point(self):
        # Oracle: (|1| + |2|)^2 = 9, cross-checked against the quadratic form.
        h = l1sq_plq()
        c = np.array([1.0, 2.0])
        Q = 2.0 * np.array([[1.0, 1.0], [1.0, 1.0]])
        assert 0.5 * c @ Q @ c == pytest.approx(9.0)
        prof = eval_with_active(h, c)
        assert prof.value.value == pytest.approx(9.0)
        assert prof.active_pieces == (0,)
        assert prof.active_set == ()

    def test_deterministic(self):
        h = l1_plq()
        a = eval_with_active(h, [0.5, -0.25])
        b = eval_with_active(h, [0.5, -0.25])
        assert a == b

    def test_two_active_pieces_agree(self):
        h = max2_plq()
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = rng.uniform(-3, 3)
            prof = eval_with_active(h, [t, t])
            assert prof.kbar == 2
            v1 = h.piece_value(0, [t, t])
            v2 = h.piece_value(1, [t, t])
            assert abs(v1 - v2) <= 1e-8 * (1 + abs(prof.value.value))

    def test_inconsistent_values_raise(self):
        hps = [Hyperplane([1.0], 0.0)]
        pieces = [Piece([1], [[0.0]], [0.0], 0.0), Piece([-1], [[0.0]], [0.0], 1.0)]
        h = PLQFunction(1, hps, pieces)
        with pytest.raises(RepresentationError):
            eval_with_active(h, [0.0])


def _random_plq(rng):
    """A PLQ function with small-integer hyperplanes (so integer points sit
    exactly on them and on their crossings), s = 0 allowed, and K random sign
    patterns. Pieces share one quadratic half of the time (values agree
    wherever pieces meet) and have their own otherwise (eval may refuse)."""
    m = int(rng.integers(1, 4))
    s = int(rng.integers(0, 4))
    hps = []
    while len(hps) < s:
        a = rng.integers(-2, 3, size=m).astype(float)
        if np.any(a):
            hps.append(Hyperplane(a, float(rng.integers(-2, 3))))
    shared = rng.random() < 0.5

    def quadratic():
        L = rng.standard_normal((m, m))
        return L @ L.T, rng.standard_normal(m), float(rng.standard_normal())

    common = quadratic()
    pieces = [Piece(rng.choice((-1.0, 1.0), size=s), *(common if shared else quadratic()))
              for _ in range(int(rng.integers(1, 7)))]
    return PLQFunction(m, hps, pieces)


def _random_points(rng, h):
    """Integer points (on hyperplanes and crossings), the point of each
    hyperplane nearest the origin (on it up to rounding), and generic points."""
    A, alpha = h.hyperplane_matrix()
    pts = [rng.integers(-2, 3, size=h.m).astype(float) for _ in range(6)]
    for j in range(h.n_hyperplanes):
        pts.append(alpha[j] / (A[j] @ A[j]) * A[j])
    pts += [rng.uniform(-3, 3, size=h.m) for _ in range(4)]
    return pts


class TestVectorizedActivity:
    """`eval_with_active` tests every piece at once; it must agree exactly with
    the piece-by-piece definitions."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_piece_by_piece(self, seed):
        rng = np.random.default_rng(seed)
        h = _random_plq(rng)
        for c in _random_points(rng, h):
            active = tuple(k for k in range(h.n_pieces) if piece_contains(h, k, c))
            if not active:
                prof = eval_with_active(h, c)
                assert prof.value.is_inf and prof.active_pieces == () and prof.kbar == 0
                continue
            vals = [h.piece_value(k, c) for k in active]
            if any(abs(v - vals[0]) > VALUE_TOL * (1.0 + abs(vals[0])) for v in vals):
                with pytest.raises(RepresentationError):
                    eval_with_active(h, c)
                continue
            prof = eval_with_active(h, c)
            act = h.active_hyperplane_set(c)
            assert active_structure(h, c) == (active, act)
            assert prof.value.value == vals[0]
            assert prof.active_pieces == active and prof.kbar == len(active)
            assert prof.active_set == act and prof.ell == len(act)


class TestConstruction:
    def test_rejects_asymmetric_q(self):
        with pytest.raises(ValueError):
            Piece([1], [[0.0, 1.0], [0.0, 0.0]], [0.0, 0.0])

    def test_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            Hyperplane([0.0, 0.0], 1.0)

    def test_rejects_bad_signs(self):
        with pytest.raises(ValueError):
            Piece([2], [[0.0]], [0.0])

    def test_immutable_arrays(self):
        h = l1_plq()
        with pytest.raises(ValueError):
            h.pieces[0].b[0] = 5.0


class TestValidate:
    def test_l1_all_pass(self):
        rep = validate_representation(l1_plq())
        assert rep.all_pass
        assert all(rep.piece_feasible)
        # Every pair of the four quadrants meets: on a half-axis or at 0.
        pairs = [(k1, k2) for k1 in range(4) for k2 in range(k1 + 1, 4)]
        assert [(k1, k2) for k1, k2, _ in rep.continuity] == pairs
        assert [pair for pair, _ in rep.qq_range_checks] == pairs

    def test_discontinuous_pair_fails(self):
        hps = [Hyperplane([1.0], 0.0)]
        pieces = [Piece([1], [[0.0]], [0.0], 0.0), Piece([-1], [[0.0]], [0.0], 1.0)]
        h = PLQFunction(1, hps, pieces)
        rep = validate_representation(h)
        assert not rep.all_pass
        assert rep.continuity_failures

    def test_halfquad_all_pass(self):
        # Hand oracle: continuous at 0 (0.5*0^2 = 0) and convex per piece.
        rep = validate_representation(halfquad_plq())
        assert rep.all_pass

    def test_interior_overlap_detected(self):
        hps = [Hyperplane([1.0], 0.0)]
        pieces = [Piece([1], [[0.0]], [1.0]), Piece([1], [[0.0]], [1.0])]
        h = PLQFunction(1, hps, pieces)
        rep = validate_representation(h)
        assert rep.interior_overlaps == [(0, 1)]
        assert not rep.all_pass

    def test_strict_interior_overlap(self):
        hps = [Hyperplane([1.0], 0.0), Hyperplane([1.0], -1.0)]
        # Two copies of [-1, 0]: interiors coincide, which the sign rule must flag.
        pieces = [Piece([1, -1], [[0.0]], [0.0]), Piece([1, -1], [[0.0]], [0.0])]
        h = PLQFunction(1, hps, pieces)
        rep = validate_representation(h)
        assert rep.interior_overlaps

    def test_nonconvex_midpoint_detected(self):
        # -|u| is PLQ but concave; midpoint convexity must fail.
        hps = [Hyperplane([1.0], 0.0)]
        pieces = [Piece([-1], [[0.0]], [-1.0]), Piece([1], [[0.0]], [1.0])]
        h = PLQFunction(1, hps, pieces)
        rep = validate_representation(h)
        assert not rep.all_pass
        assert rep.convexity_violations

    def test_all_library_functions_pass(self):
        for build in (l1_plq, l1sq_plq, max2_plq, nlp_plq, halfquad_plq, sumsq_plq):
            rep = validate_representation(build())
            assert rep.all_pass, (build.__name__, rep.messages)


class TestExactChecks:
    """Curvature, continuity and the range condition are decided on a face
    basis, independent of the rng."""

    @pytest.mark.parametrize("seed", [42, 2, 3])
    def test_negative_curvature_found_at_every_seed(self, seed):
        # 0.5 (c1^2 + c2^2 - 1e-3 c3^2): the samples at these seeds miss it.
        h = PLQFunction(3, [], [Piece([], np.diag([1.0, 1.0, -1e-3]), np.zeros(3))])
        rep = validate_representation(h)
        assert not rep.all_pass
        assert rep.curvature_violations == [pytest.approx(-1e-3, rel=1e-12)]

    def test_curvature_threshold_scales_with_q(self):
        # 0.5 1e8 (v^T c)^2 is convex; eigvalsh rounds its zero eigenvalues
        # to about -4e-10, below an absolute -1e-10.
        v = np.array([1.0, 0.3, -0.7])
        h = PLQFunction(3, [], [Piece([], 1e8 * np.outer(v, v), np.zeros(3))])
        rep = validate_representation(h)
        assert rep.all_pass, rep.messages
        assert rep.curvature_violations == []

    @staticmethod
    def _split(Q0, Q1, b0, b1):
        """c1 <= 0 carries (Q0, b0), c1 >= 0 carries (Q1, b1)."""
        return PLQFunction(2, [Hyperplane([1.0, 0.0], 0.0)],
                           [Piece([1], Q0, b0), Piece([-1], Q1, b1)])

    def test_range_condition_on_the_common_face(self):
        h = self._split(np.diag([0.0, 1.0]), np.diag([0.0, 2.0]), [0.0, 0.0], [0.0, 0.0])
        rep = validate_representation(h)
        assert not rep.all_pass
        assert rep.qq_range_failures == [((0, 1), 1 / 3)]

    def test_tangential_gradient_gap_is_a_continuity_failure(self):
        h = self._split(np.diag([0.0, 1.0]), np.diag([0.0, 1.0]), [0.0, 0.0], [0.0, 1e-3])
        rep = validate_representation(h)
        assert not rep.all_pass
        assert rep.continuity_failures == [(0, 1, pytest.approx(1e-3, rel=1e-12))]
        assert rep.qq_range_failures == []


def _pairwise_lp_overlaps(h):
    """Interior overlaps by one exact LP per piece pair, the check the sign
    rule replaced: pieces k1 < k2 overlap when k1 has interior depth above
    1e-9 and B1 x <= g1 - 1e-7, B2 x <= g2 - 1e-7 is feasible."""
    out = []
    for k1 in range(h.n_pieces):
        x, t = piece_interior_point(h, k1)
        if x is None or t <= 1e-9:
            continue
        for k2 in range(k1 + 1, h.n_pieces):
            if piece_interior_point(h, k2)[0] is None:
                continue
            (B1, g1), (B2, g2) = h.piece_rows(k1), h.piece_rows(k2)
            if feasible_point(F=np.vstack([B1, B2]), f=np.concatenate([g1, g2]) - 1e-7,
                              dim=h.m) is not None:
                out.append((k1, k2))
    return out


@st.composite
def _sign_families(draw):
    """A PLQ function whose pieces take their sign vectors from a family of
    at most three, so equal sign vectors are common: s = 0-3 small-integer
    hyperplanes (parallel, coincident and degenerate crossings included) in
    m = 1-3 dimensions, scaled by 1e-3 to 10, and zero quadratics."""
    m, s = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    scale = draw(st.sampled_from((1e-3, 0.1, 1.0, 10.0)))
    coef = st.integers(-2, 2)
    hps = [Hyperplane(scale * np.array(draw(st.lists(coef, min_size=m, max_size=m).filter(any)),
                                       dtype=float), scale * draw(coef))
           for _ in range(s)]
    signs = st.lists(st.sampled_from((-1.0, 1.0)), min_size=s, max_size=s)
    family = draw(st.lists(signs, min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(family) - 1), min_size=1, max_size=6))
    return PLQFunction(m, hps, [Piece(family[i], np.zeros((m, m)), np.zeros(m)) for i in picks])


class TestSignRule:
    """Interior disjointness from the sign vectors agrees with the exact LP
    per piece pair."""

    @settings(max_examples=150, deadline=None)
    @given(_sign_families())
    # A one-point piece (a sample ray's bounds there are 0.0 and -0.0).
    @example(PLQFunction(1, [Hyperplane([1e-3], 0.0), Hyperplane([-1e-3], 0.0)],
                         [Piece([-1, -1], [[0.0]], [0.0])]))
    def test_matches_pairwise_lp(self, h):
        rep = validate_representation(h)
        assert rep.interior_overlaps == _pairwise_lp_overlaps(h)


def _chain(t0, gaps, q, jumps):
    """A continuous PLQ function on the line with breakpoints t0, t0 + gaps[0],
    ..., curvature q[k] on piece k and derivative jump jumps[k] at breakpoint
    k: convex exactly when every jump is >= 0."""
    t = t0 + np.concatenate([[0.0], np.cumsum(gaps)])
    b, beta = [0.3], [-0.2]
    for k, tk in enumerate(t):
        b.append(q[k] * tk + b[k] + jumps[k] - q[k + 1] * tk)
        beta.append(0.5 * (q[k] - q[k + 1]) * tk ** 2 + (b[k] - b[k + 1]) * tk + beta[k])
    return PLQFunction(1, [Hyperplane([1.0], tk) for tk in t],
                       [Piece([1.0 if j >= k else -1.0 for j in range(len(t))], [[q[k]]], [b[k]],
                              beta[k]) for k in range(len(t) + 1)])


def _crossing(w, Q):
    """0.5 c^T Q c + sum_i w_i |c_i|, one piece per sign vector: convex
    exactly when every w_i >= 0 (Q is PSD)."""
    s = len(w)
    return PLQFunction(s, [Hyperplane(np.eye(s)[i], 0.0) for i in range(s)],
                       [Piece(sg, Q, [-si * wi for si, wi in zip(sg, w)])
                        for sg in itertools.product((-1.0, 1.0), repeat=s)])


def _split(w, omega):
    """Q = I on c1 <= 0; f2 - f1 = c1 (w c2 + omega) on c1 >= 0; dom h is
    c2 >= -1. The jump w c2 + omega across c1 = 0 is >= 0 on the facet
    exactly when 0 <= w <= omega; |w| < 1 keeps both pieces convex."""
    return PLQFunction(2, [Hyperplane([1.0, 0.0], 0.0), Hyperplane([0.0, -1.0], 1.0)],
                       [Piece([1, 1], np.eye(2), [0.0, 0.0]),
                        Piece([-1, 1], [[1.0, w], [w, 1.0]], [omega, 0.0])])


_signed = st.floats(0.05, 2.0).flatmap(lambda v: st.sampled_from((v, -v)))


class TestExactConvexity:
    """Convexity is decided on faces: derivative jumps across shared facets
    and the domain at boundary facets. Each family's convexity is known in
    closed form, and the verdict must equal it."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda s: st.tuples(
        st.floats(-2.0, 0.0), st.lists(st.floats(0.2, 1.0), min_size=s - 1, max_size=s - 1),
        st.lists(st.floats(0.0, 2.0), min_size=s + 1, max_size=s + 1),
        st.lists(_signed, min_size=s, max_size=s))))
    def test_chain_with_signed_jumps(self, args):
        t0, gaps, q, jumps = args
        rep = validate_representation(_chain(t0, gaps, q, jumps))
        assert rep.all_pass == all(j >= 0 for j in jumps), rep.messages
        assert [v for _, _, v in rep.facet_jumps] == pytest.approx(jumps, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda s: st.tuples(
        st.lists(_signed, min_size=s, max_size=s),
        st.lists(st.floats(-1.0, 1.0), min_size=s * s, max_size=s * s))))
    def test_weighted_l1_crossing_with_signed_weights(self, args):
        w, entries = args
        L = np.reshape(entries, (len(w), len(w)))
        rep = validate_representation(_crossing(w, L @ L.T))
        assert rep.all_pass == all(wi >= 0 for wi in w), rep.messages

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-0.9, 0.9), st.floats(-0.5, 1.0))
    def test_split_with_a_jump_that_changes_sign(self, w, omega):
        assume(min(abs(w), abs(w - omega)) >= 0.02)
        rep = validate_representation(_split(w, omega))
        assert rep.all_pass == (0.0 <= w <= omega), rep.messages
        assert rep.facet_jumps == [(0, 1, -np.inf if w < 0 else pytest.approx(omega - w))]

    def test_split_reports_its_jump(self):
        rep = validate_representation(_split(0.2, 0.1))
        assert rep.facet_jumps == [(0, 1, -0.1)]
        assert not rep.all_pass and rep.convexity_violations == [-0.1]

    def test_quadrant_plus_ray_is_not_a_convex_domain(self):
        # c1, c2 <= 0 and {c2 = 0, c1 >= 0}: the segment from (-1, -1) to
        # (1, 0) leaves dom h.
        zero = (np.zeros((2, 2)), np.zeros(2))
        h = PLQFunction(2, [Hyperplane([0.0, 1.0], 0.0), Hyperplane([1.0, 0.0], 0.0),
                            Hyperplane([0.0, -1.0], 0.0)],
                        [Piece([1, 1, -1], *zero), Piece([1, -1, 1], *zero)])
        rep = validate_representation(h)
        assert not rep.all_pass and rep.convexity_violations == [np.inf]
        assert any(m.startswith("dom h is not convex") for m in rep.messages)

    def test_lower_dimensional_domain(self):
        # The line c1 = 0 in three pieces, c2 <= 0, 0 <= c2 <= 1 and c2 >= 1:
        # convex. Without the middle piece it has a gap.
        hps = [Hyperplane([1.0, 0.0], 0.0), Hyperplane([-1.0, 0.0], 0.0),
               Hyperplane([0.0, 1.0], 0.0), Hyperplane([0.0, 1.0], 1.0)]
        zero = (np.zeros((2, 2)), np.zeros(2))
        pieces = [Piece([1, 1, 1, 1], *zero), Piece([1, 1, -1, -1], *zero),
                  Piece([1, 1, -1, 1], *zero)]
        rep = validate_representation(PLQFunction(2, hps, pieces))
        assert rep.all_pass and not rep.full_dimensional, rep.messages
        assert rep.facet_jumps == [(0, 2, 0.0), (1, 2, 0.0)]
        rep = validate_representation(PLQFunction(2, hps, pieces[:2]))
        assert not rep.all_pass and rep.convexity_violations == [np.inf]

    def test_point_off_the_flat_of_the_top_pieces(self):
        # The line c1 = 0 (two half-lines) and the point (1, 0): no boundary
        # facet separates them, but the point leaves the line.
        hps = [Hyperplane([1.0, 0.0], 0.0), Hyperplane([-1.0, 0.0], 0.0),
               Hyperplane([1.0, 0.0], 1.0), Hyperplane([-1.0, 0.0], -1.0),
               Hyperplane([0.0, 1.0], 0.0), Hyperplane([0.0, -1.0], 0.0)]
        zero = (np.zeros((2, 2)), np.zeros(2))
        pieces = [Piece([1, 1, 1, -1, 1, -1], *zero), Piece([1, 1, 1, -1, -1, 1], *zero),
                  Piece([-1, 1, 1, 1, 1, 1], *zero)]
        rep = validate_representation(PLQFunction(2, hps, pieces))
        assert rep.convexity_violations == [np.inf]
        assert rep.messages[-1] == ("dom h is not convex: piece 2 leaves the flat of "
                                    "the 1-dimensional pieces")
        assert validate_representation(PLQFunction(2, hps, pieces[:2])).all_pass


class TestConvexityProperty:
    def test_segment_convexity_sampled(self):
        rng = np.random.default_rng(7)
        for build in (l1_plq, l1sq_plq, max2_plq, halfquad_plq):
            h = build()
            for _ in range(200):
                c1 = sample_domain_point(h, rng)
                c2 = sample_domain_point(h, rng)
                t = rng.uniform()
                mid = t * c1 + (1 - t) * c2
                lhs = finite_value(h, mid)
                rhs = t * finite_value(h, c1) + (1 - t) * finite_value(h, c2)
                assert lhs <= rhs + 1e-8 * (1 + abs(rhs))
