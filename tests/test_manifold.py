import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plqnewton.benchmarks import l1_plq, l1sq_plq, max2_plq
from plqnewton.calculus import subdiff_hrep
from plqnewton.errors import MembershipError, DomainError
from plqnewton.manifold import (
    SC_TOL,
    _zeta_realizable,
    build_manifold,
    certify_partial_smoothness,
    manifold_contains,
    mu_of,
    strictness_check,
)
from plqnewton.numerics import nullspace_basis, range_basis
from plqnewton.plq import eval_with_active


class TestBuildManifold:
    def test_l1_face(self):
        md = build_manifold(l1_plq(), [1.0, 0.0])
        assert md.kbar == 2 and md.ell == 1
        assert np.allclose(md.A, [[0.0], [1.0]])
        assert md.nondegenerate
        # Sign matrices: reference (last) piece is identity.
        assert np.allclose(md.P[-1], [1.0])
        assert np.allclose(md.P[0], [-1.0])

    def test_l1_origin(self):
        md = build_manifold(l1_plq(), [0.0, 0.0])
        assert md.kbar == 4 and md.ell == 2
        assert np.allclose(md.A, np.eye(2))
        assert md.nondegenerate

    def test_max2_diagonal(self):
        md = build_manifold(max2_plq(), [1.0, 1.0])
        assert md.kbar == 2 and md.ell == 1
        assert np.allclose(md.A[:, 0], [1.0, -1.0])

    def test_structure_data_is_shared_and_read_only(self):
        # Two points of one face share A and P (h-only data); the base point
        # is each point's own, and another face gets its own A.
        h = l1_plq()
        md1, md2 = build_manifold(h, [1.0, 0.0]), build_manifold(h, [2.0, 0.0])
        assert md1.A is md2.A and md1.P is md2.P
        assert np.array_equal(md1.base_point, [1.0, 0.0])
        assert np.array_equal(md2.base_point, [2.0, 0.0])
        assert not md1.A.flags.writeable and not any(v.flags.writeable for v in md1.P)
        other = build_manifold(h, [0.0, 1.0])
        assert other.active_hyperplanes != md1.active_hyperplanes
        assert np.allclose(other.A, [[1.0], [0.0]])

    def test_ap_equals_active_gradient_matrix(self):
        # A P_j must reproduce each active piece's active constraint gradients.
        for h, c in ((l1_plq(), [1.0, 0.0]), (l1_plq(), [0.0, 0.0]), (max2_plq(), [2.0, 2.0])):
            md = build_manifold(h, c)
            for j, k in enumerate(md.active_pieces):
                grads = np.column_stack(
                    [h.pieces[k].signs[jj] * h.hyperplane_matrix()[0][jj]
                     for jj in md.active_hyperplanes])
                assert np.allclose(md.AP(j), grads)

    def test_smooth_point_is_one_piece_manifold(self):
        # Inside one piece: k_bar = 1, no active hyperplane, A is m x 0, and
        # the one sign vector is empty.
        md = build_manifold(l1_plq(), [1.0, 1.0])
        assert md.active_pieces == (0,) and md.active_hyperplanes == ()
        assert md.kbar == 1 and md.ell == 0
        assert md.A.shape == (2, 0)
        assert len(md.P) == 1 and md.P[0].shape == (0,)
        assert md.nondegenerate
        assert manifold_contains(md, [2.0, 3.0])
        assert not manifold_contains(md, [0.0, 3.0])  # a hyperplane becomes active
        assert not manifold_contains(md, [-1.0, 3.0])  # another piece

    def test_domain_boundary_is_one_piece_manifold(self):
        # One piece with an active domain hyperplane (a nonlinear program's
        # active constraint): A is the piece's signed gradient, P = (ones,).
        from plqnewton.benchmarks import nlp_plq

        md = build_manifold(nlp_plq(), [1.0, 0.0])
        assert md.active_pieces == (0,) and md.active_hyperplanes == (0,)
        assert md.kbar == 1 and md.ell == 1
        assert np.array_equal(md.A, [[0.0], [1.0]])
        assert len(md.P) == 1 and np.array_equal(md.P[0], [1.0])
        assert md.nondegenerate
        assert manifold_contains(md, [-4.0, 0.0])
        assert not manifold_contains(md, [1.0, -0.5])  # the constraint is inactive

    def test_outside_domain_raises(self):
        from plqnewton.benchmarks import nlp_plq

        with pytest.raises(DomainError):
            build_manifold(nlp_plq(), [0.0, 1.0])


class TestManifoldContains:
    def test_same_face(self):
        md = build_manifold(l1_plq(), [1.0, 0.0])
        assert manifold_contains(md, [5.0, 0.0])
        assert not manifold_contains(md, [0.0, 0.0])   # extra active hyperplane
        assert not manifold_contains(md, [1.0, 0.1])   # equality fails

    def test_active_profile_constant_on_manifold(self):
        rng = np.random.default_rng(3)
        md = build_manifold(l1_plq(), [1.0, 0.0])
        count = 0
        for _ in range(100):
            c = np.array([rng.uniform(0.05, 6.0), 0.0])
            assert manifold_contains(md, c)
            prof = eval_with_active(md.h, c)
            assert tuple(sorted(prof.active_pieces)) == md.active_pieces
            assert prof.active_set == md.active_hyperplanes
            count += 1
        assert count == 100


class TestMuOf:
    def test_l1_face_values(self):
        # Hand oracle: y - b_k must lie in span(a_2) with the stated coefficient.
        md = build_manifold(l1_plq(), [1.0, 0.0])
        mu = mu_of(md, [1.0, 0.0], [1.0, 0.5])
        assert mu.blocks.shape == (2, 1)
        assert mu.blocks[0, 0] == pytest.approx(0.5)
        assert mu.blocks[1, 0] == pytest.approx(1.5)
        assert mu.min_entry >= 0

    def test_l1_face_center(self):
        md = build_manifold(l1_plq(), [1.0, 0.0])
        mu = mu_of(md, [1.0, 0.0], [1.0, 0.0])
        assert mu.blocks[0, 0] == pytest.approx(1.0)
        assert mu.blocks[1, 0] == pytest.approx(1.0)

    def test_non_subgradient_rejected(self):
        md = build_manifold(l1_plq(), [1.0, 0.0])
        with pytest.raises(MembershipError):
            mu_of(md, [1.0, 0.0], [1.0, 2.0])

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(5)
        md = build_manifold(l1_plq(), [1.0, 0.0])
        for _ in range(50):
            c = np.array([rng.uniform(0.1, 4.0), 0.0])
            y = np.array([1.0, rng.uniform(-1, 1)])
            mu = mu_of(md, c, y)
            # The averaged identity y = mean_j (Q_j c + b_j + A P_j mu_j).
            recon = sum(md.piece(j).Q @ c + md.piece(j).b + md.AP(j) @ mu.blocks[j]
                        for j in range(md.kbar)) / md.kbar
            assert np.linalg.norm(recon - y) <= 1e-10 * (1 + np.linalg.norm(y))

    def test_block_system_identity(self):
        md = build_manifold(max2_plq(), [2.0, 2.0])
        c = np.array([0.5, 0.5])
        y = np.array([0.3, 0.7])
        mu = mu_of(md, c, y)
        for j in range(md.kbar):
            piece = md.piece(j)
            rhs = piece.Q @ c + piece.b + md.AP(j) @ mu.blocks[j]
            assert np.allclose(y, rhs, atol=1e-10)


def dist_to_range(v, M):
    """Euclidean distance from v to Ran(M)."""
    R = range_basis(M)
    return float(np.linalg.norm(v - R @ (R.T @ v)))


class TestTangentNormal:
    def test_nullspace_complements_range(self):
        for h, c in ((l1_plq(), [1.0, 0.0]), (l1_plq(), [0.0, 0.0]), (max2_plq(), [1.0, 1.0])):
            md = build_manifold(h, c)
            N = nullspace_basis(md.A.T)
            assert N.shape[1] + md.ell == md.m
            for p in range(N.shape[1]):
                assert dist_to_range(N[:, p], md.A) == pytest.approx(
                    np.linalg.norm(N[:, p]), rel=1e-12)

    def test_q_difference_range_condition(self):
        for h, c in ((l1sq_plq(), [1.0, 0.0]), (l1sq_plq(), [0.0, 0.0]), (l1_plq(), [1.0, 0.0])):
            md = build_manifold(h, c)
            W = nullspace_basis(md.A.T)
            scale = 1.0 + max(np.max(np.abs(md.piece(j).Q)) for j in range(md.kbar))
            for i in range(md.kbar):
                for j in range(md.kbar):
                    dQ = md.piece(i).Q - md.piece(j).Q
                    for p in range(W.shape[1]):
                        assert dist_to_range(dQ @ W[:, p], md.A) <= 1e-9 * scale


class TestStrictness:
    def test_ri_and_kstrict_inside(self):
        md = build_manifold(l1_plq(), [1.0, 0.0])
        rep = strictness_check(md, [1.0, 0.0], [1.0, 0.5])
        assert rep.ri_member and rep.k_strict

    def test_boundary_not_ri(self):
        md = build_manifold(l1_plq(), [1.0, 0.0])
        rep = strictness_check(md, [1.0, 0.0], [1.0, 1.0])
        assert not rep.ri_member
        # Zero block sits at a coordinate with opposite signs: not k-strict.
        assert not rep.k_strict

    def test_ri_implies_kstrict_randomized(self):
        rng = np.random.default_rng(11)
        checked = 0
        for h_build, base in ((l1_plq, [1.0, 0.0]), (max2_plq, [1.0, 1.0])):
            h = h_build()
            md = build_manifold(h, base)
            sub_dir = nullspace_basis(md.A.T)
            for _ in range(500):
                c = np.asarray(base) + sub_dir @ rng.uniform(-0.4, 2.0, size=sub_dir.shape[1])
                if not manifold_contains(md, c):
                    continue
                P = subdiff_hrep(h, c)
                y, depth = P.ri_point()
                if y is None or depth < 1e-7:
                    continue
                rep = strictness_check(md, c, y)
                if rep.ri_member:
                    assert rep.k_strict
                    checked += 1
        assert checked >= 500


class TestSegmentTransport:
    def test_convex_combination_of_multipliers(self):
        # Transporting a relative-interior subgradient along the manifold by a
        # convex combination keeps the block multiplier the same combination.
        rng = np.random.default_rng(13)
        h = l1_plq()
        md = build_manifold(h, [1.0, 0.0])
        for _ in range(200):
            c = np.array([rng.uniform(0.2, 3.0), 0.0])
            c2 = np.array([rng.uniform(0.2, 3.0), 0.0])
            lam = rng.uniform(0.05, 0.95)
            cprime = lam * c + (1 - lam) * c2
            y = np.array([1.0, rng.uniform(-0.95, 0.95)])
            y2 = np.array([1.0, rng.uniform(-1.0, 1.0)])
            yprime = lam * y + (1 - lam) * y2
            mu = mu_of(md, c, y)
            mu2 = mu_of(md, c2, y2)
            mup = mu_of(md, cprime, yprime)
            combo = lam * mu.blocks + (1 - lam) * mu2.blocks
            assert np.allclose(mup.blocks, combo, atol=1e-9)
            assert subdiff_hrep(h, cprime).contains(yprime)


class TestPartialSmoothness:
    def test_l1_face_certified(self):
        md = build_manifold(l1_plq(), [1.0, 0.0])
        cert = certify_partial_smoothness(md, [1.0, 0.0], [1.0, 0.5])
        assert cert.certified
        assert cert.parallel_identity
        assert all(cert.zeta_realizable)

    def test_l1sq_origin_not_certified(self):
        # The subdifferential at the origin is {0}: its parallel subspace is
        # trivial while the manifold normal space is the whole plane.
        md = build_manifold(l1sq_plq(), [0.0, 0.0])
        assert md.nondegenerate
        cert = certify_partial_smoothness(md, [0.0, 0.0], [0.0, 0.0])
        assert not cert.certified
        assert cert.k_strict is False

    def test_max2_certified(self):
        md = build_manifold(max2_plq(), [1.0, 1.0])
        # Oracle: the one-dimensional system gives mu = (1/2, 1/2) > 0.
        mu = mu_of(md, [1.0, 1.0], [0.5, 0.5])
        assert np.allclose(mu.flat, [0.5, 0.5])
        cert = certify_partial_smoothness(md, [1.0, 1.0], [0.5, 0.5])
        assert cert.certified

    def test_degenerate_a_reported(self):
        # A diagonal split of the quadrants puts two hyperplanes through the
        # diagonal manifold, making A rank-deficient there.
        from plqnewton.plq import Hyperplane, Piece, PLQFunction

        hps = [Hyperplane([1.0, -1.0], 0.0), Hyperplane([2.0, -2.0], 0.0)]
        pieces = [
            Piece([-1, -1], np.zeros((2, 2)), [1.0, 0.0]),
            Piece([1, 1], np.zeros((2, 2)), [0.0, 1.0]),
        ]
        h = PLQFunction(2, hps, pieces)
        md = build_manifold(h, [1.0, 1.0])
        assert not md.nondegenerate
        cert = certify_partial_smoothness(md, [1.0, 1.0], [0.5, 0.5])
        assert not cert.certified
        assert "degenerate A" in cert.reasons


def _realizable_by_lp(A, P, mu, p):
    """The LP oracle of realizability: maximize t <= 1 over two nonnegative
    solutions mu+, mu- of the block system (Q_j c + b_j + A P_j mu_j equal for
    every j; its right-hand side is taken from mu, so mu solves it) with
    mu+ - mu- = t zeta_p; zeta_p is realizable when the optimum exceeds 1e-9."""
    from scipy.optimize import linprog

    k, ell = P.shape
    m = A.shape[0]
    q = k * ell
    block_A = np.zeros((k * m, q))
    for r in range(k):
        for j in range(k):
            coef = (1.0 - k) if r == j else 1.0
            block_A[r * m:(r + 1) * m, j * ell:(j + 1) * ell] = coef * A * P[j]
    rhs = block_A @ mu.reshape(-1)
    zeta = np.zeros(q)
    zeta[p::ell] = P[:, p]
    zero_block, zero_col = np.zeros_like(block_A), np.zeros((k * m, 1))
    A_eq = np.block([[block_A, zero_block, zero_col],
                     [zero_block, block_A, zero_col],
                     [np.eye(q), -np.eye(q), -zeta[:, None]]])
    b_eq = np.concatenate([rhs, rhs, np.zeros(q)])
    obj = np.zeros(2 * q + 1)
    obj[-1] = -1.0
    # HiGHS's default tolerances (1e-7) call LPs whose optimum is a few SC_TOL
    # infeasible; its tightest ones resolve them.
    res = linprog(obj, A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * (2 * q) + [(None, 1.0)],
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    return res.status == 0 and -res.fun > 1e-9


_above_sc = st.one_of(st.floats(SC_TOL * (1 + 1e-6), 3 * SC_TOL), st.floats(1e-3, 3.0))
_at_most_sc = st.sampled_from((0.0, 1e-12, 0.5 * SC_TOL, SC_TOL))


@st.composite
def _block_multipliers(draw):
    """(A, P, mu, k_strict): k_bar in 2..4 sign vectors, the last all +1 as
    for the reference piece, a full-column-rank m x ell matrix A with m in
    {ell, ell + 1}, and a block multiplier mu >= 0. When k_strict, entries of
    mu at or below SC_TOL, exact zeros included, lie only in columns whose
    signs are all +1, every other entry is above SC_TOL, down to just above
    it, and one block is wholly above SC_TOL; otherwise any entry may be
    small."""
    k = draw(st.integers(2, 4))
    ell = draw(st.integers(1, 3))
    P = np.ones((k, ell))
    for p in range(ell):
        if not draw(st.booleans()):  # a column with both signs
            P[:k - 1, p] = [draw(st.sampled_from((-1.0, 1.0))) for _ in range(k - 1)]
            P[draw(st.integers(0, k - 2)), p] = -1.0
    k_strict = draw(st.booleans())
    positive_block = draw(st.integers(0, k - 1))
    mu = np.array([[draw(_above_sc if k_strict and (j == positive_block or np.any(P[:, p] < 0))
                         else st.one_of(_at_most_sc, _above_sc))
                    for p in range(ell)] for j in range(k)])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    A = rng.standard_normal((ell + draw(st.integers(0, 1)), ell))
    return A, P, mu, k_strict


class TestZetaRealizable:
    @settings(max_examples=150, deadline=None)
    @given(_block_multipliers())
    @example((np.eye(3),
              np.array([[-1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [1.0, 1.0, 1.0]]),
              np.array([[1.50e-8, 1.72e-8, 2.24e-8],
                        [1.331, 0.330, 0.534],
                        [1.199, 1.847, 1.654]]), True))
    @example((np.array([[-0.00497750284237397, -0.5501650895403997, 0.6629321996878393],
                        [-1.7794762312288845, -0.941111704254921, 0.2865549998432787],
                        [0.6923258043006366, -0.3377568766073392, -0.28005759670090796],
                        [1.2466833968408477, -0.38517668092320306, 1.6225324783979806]]),
              np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, 1.0]]),
              np.array([[1.4e-8, 2.4, 1.3e-8], [1.6, 2.5e-8, 1.6e-8],
                        [2.3e-8, 0.92, 5e-9], [0.88, 2.9e-8, 5e-9]]), True))
    @example((np.array([[1.18380392, -0.49153562], [0.46059857, 0.96042997],
                        [-0.46554071, -0.18438057]]),
              np.array([[-1.0, 1.0], [1.0, 1.0]]),
              np.array([[2.40135401e-8, 1.000001e-8], [1.42206237e-8, 0.0]]), True))
    def test_closed_form_agrees_with_lp(self, case):
        # The first two examples are k-strict points where the in-house
        # simplex, solving this LP, found no t > 0. The first is quoted rounded
        # and without its A; on the second it reports the LP of p = 2
        # infeasible. The third needs the oracle's tight tolerances: its
        # optimum at p = 0 is t = 3.8e-8.
        A, P, mu, k_strict = case
        got = _zeta_realizable(tuple(P), mu)
        assert got == tuple(_realizable_by_lp(A, P, mu, p) for p in range(P.shape[1]))
        # At a k-strict point every direction is realizable.
        assert all(got) or not k_strict
