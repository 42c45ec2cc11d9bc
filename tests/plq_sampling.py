"""Random points of a PLQ function's pieces and domain, for the property tests.

Each draw starts at a piece's interior point (`oracles.piece_interior_point`) and
takes a random feasible step along a random ray, so the tests reach the inside
of pieces, their faces and their crossings.
"""

import numpy as np

from plqnewton.errors import DomainError
from plqnewton.plq import PLQFunction

from oracles import piece_interior_point


def sample_point_in_piece(h: PLQFunction, k, rng, radius=8.0):
    """A random point of piece k reached by a feasible ray step from its interior point."""
    base, _ = piece_interior_point(h, k)
    if base is None:
        return None
    B, g = h.piece_rows(k)
    d = rng.standard_normal(h.m)
    nrm = np.linalg.norm(d)
    if nrm == 0:
        return base
    d = d / nrm
    lo, hi = -radius, radius
    if B.shape[0]:
        r = g - B @ base
        coef = B @ d
        for i in range(B.shape[0]):
            if coef[i] > 1e-12:
                hi = min(hi, r[i] / coef[i])
            elif coef[i] < -1e-12:
                lo = max(lo, r[i] / coef[i])
    if hi <= lo:  # base alone; equal bounds may be 0.0 and -0.0, which uniform refuses
        return base
    t = rng.uniform(lo, hi) * 0.98
    return base + t * d


def sample_domain_point(h: PLQFunction, rng, radius=8.0):
    """A random point of dom h (uniform piece choice, then a ray sample)."""
    for _ in range(32):
        k = int(rng.integers(h.n_pieces))
        x = sample_point_in_piece(h, k, rng, radius=radius)
        if x is not None:
            return x
    raise DomainError("could not sample a domain point; is dom h empty?")
