"""Randomized one-dimensional convex PLQ functions exercised across modules.

The generator chains pieces along sorted breakpoints with nonnegative
curvatures and nonnegative derivative jumps, which is exactly the class of
convex piecewise linear-quadratic functions on the line in shared-hyperplane
form. Validation, the derivative formulas, the subdifferential intervals and
the breakpoint manifolds must all agree with closed-form expectations.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plqnewton.calculus import dir_deriv_first, dir_deriv_second, subdiff_hrep
from plqnewton.manifold import build_manifold, mu_of, strictness_check
from plqnewton.plq import (
    Hyperplane,
    Piece,
    PLQFunction,
    eval_with_active,
    finite_value,
    validate_representation,
)


def random_convex_plq_1d(rng, n_breaks=None):
    """A convex PLQ function on the line with derivative jumps at breakpoints.

    Piece k lives on [t_{k-1}, t_k] (unbounded at the ends); its quadratic is
    0.5 q_k u^2 + b_k u + beta_k with q_k >= 0, the derivative jumps upward at
    each breakpoint, and the values are chained continuously.
    """
    s = int(rng.integers(1, 4)) if n_breaks is None else n_breaks
    t = np.sort(rng.uniform(-2.0, 2.0, size=s))
    while np.any(np.diff(t) < 0.2):  # keep breakpoints separated
        t = np.sort(rng.uniform(-2.0, 2.0, size=s))
    q = rng.uniform(0.0, 2.0, size=s + 1) * (rng.random(s + 1) > 0.3)
    jumps = rng.uniform(0.0, 1.5, size=s) * (rng.random(s) > 0.2)
    b = np.empty(s + 1)
    beta = np.empty(s + 1)
    b[0] = rng.uniform(-2.0, 2.0)
    beta[0] = rng.uniform(-1.0, 1.0)
    for k in range(s):
        # Derivative continuity up to the nonnegative jump at t_k.
        b[k + 1] = q[k] * t[k] + b[k] + jumps[k] - q[k + 1] * t[k]
        val_left = 0.5 * q[k] * t[k] ** 2 + b[k] * t[k] + beta[k]
        beta[k + 1] = val_left - 0.5 * q[k + 1] * t[k] ** 2 - b[k + 1] * t[k]
    hps = [Hyperplane([1.0], tk) for tk in t]
    pieces = []
    for k in range(s + 1):
        signs = np.array([1.0 if j >= k else -1.0 for j in range(s)])
        pieces.append(Piece(signs, [[q[k]]], [b[k]], beta[k]))
    h = PLQFunction(1, hps, pieces, name="random1d")
    return h, t, q, b, beta, jumps


def _value_oracle(u, t, q, b, beta):
    k = int(np.searchsorted(t, u))
    return 0.5 * q[k] * u * u + b[k] * u + beta[k]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_random_1d_plq_properties(seed):
    rng = np.random.default_rng(seed)
    h, t, q, b, beta, jumps = random_convex_plq_1d(rng)
    s = len(t)

    rep = validate_representation(h)
    assert rep.all_pass, rep.messages

    # Values match the closed-form chain at random points.
    for _ in range(25):
        u = rng.uniform(-3.5, 3.5)
        assert finite_value(h, [u]) == pytest.approx(_value_oracle(u, t, q, b, beta),
                                                     rel=1e-10, abs=1e-10)

    # One-sided derivatives at each breakpoint straddle the jump.
    for k, tk in enumerate(t):
        left = q[k] * tk + b[k]
        right = q[k + 1] * tk + b[k + 1]
        assert right - left == pytest.approx(jumps[k], abs=1e-10)
        d_minus = dir_deriv_first(h, [tk], [-1.0])
        d_plus = dir_deriv_first(h, [tk], [1.0])
        assert d_minus.value == pytest.approx(-left, abs=1e-9)
        assert d_plus.value == pytest.approx(right, abs=1e-9)
        s_minus = dir_deriv_second(h, [tk], [-1.0])
        s_plus = dir_deriv_second(h, [tk], [1.0])
        assert s_minus.value == pytest.approx(q[k], abs=1e-9)
        assert s_plus.value == pytest.approx(q[k + 1], abs=1e-9)

        # The subdifferential is exactly the interval [left, right].
        P = subdiff_hrep(h, [tk])
        mid = 0.5 * (left + right)
        assert P.contains([left]) and P.contains([right]) and P.contains([mid])
        assert not P.contains([right + 1e-4 + 0.1])
        assert not P.contains([left - 1e-4 - 0.1])
        lo, _ = P.support([-1.0])
        hi, _ = P.support([1.0])
        assert -lo == pytest.approx(left, abs=1e-9)
        assert hi == pytest.approx(right, abs=1e-9)

        # Breakpoint manifold: two active pieces, A is the single normal.
        prof = eval_with_active(h, [tk])
        assert prof.kbar == 2
        md = build_manifold(h, [tk])
        assert md.nondegenerate and md.ell == 1
        if right - left > 1e-6:
            # Block system consistency at the breakpoint: y = Q_j c + b_j +
            # A P_j mu_j for each of the two active pieces.
            y = np.array([mid])
            mu = mu_of(md, [tk], y)
            for j, k in enumerate(md.active_pieces):
                grad = h.pieces[k].Q @ [tk] + h.pieces[k].b
                assert np.allclose(grad + md.stacked[2][j] @ mu.blocks[j], y, atol=1e-8)
            strict = strictness_check(md, [tk], y)
            assert strict.ri_member and strict.k_strict


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_random_1d_plq_subgradient_inequality(seed):
    rng = np.random.default_rng(seed ^ 0x5EED)
    h, t, q, b, beta, jumps = random_convex_plq_1d(rng)
    for _ in range(10):
        u = rng.uniform(-3.0, 3.0)
        P = subdiff_hrep(h, [u])
        y = rng.uniform(-6.0, 6.0)
        member = P.contains([y], slack=1e-12)
        hu = finite_value(h, [u])
        # Violations of the subgradient inequality for a convex function show
        # up arbitrarily close to u, so local witnesses make the brute-force
        # oracle decisive; the uniform ones cover the global direction.
        witnesses = list(rng.uniform(-5.0, 5.0, size=200))
        for step in np.logspace(-4, 0.5, 12):
            witnesses.extend((u - step, u + step))
        oracle = all(finite_value(h, [v]) >= hu + y * (v - u) - 1e-8 for v in witnesses)
        if member:
            assert oracle
        elif P.violation([y]) > 1e-5:
            assert not oracle
