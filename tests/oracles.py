"""Reference helpers that only the tests call.

Each restates a piece of the library in its plainest form, for tests that
compare the library's faster paths against it: a linear solve that tolerates
singular systems (a stack of one through `solver._solve_stack`), the value of
an expression tree, an orthonormal basis of a matrix's range, and one piece's
membership test.
"""

import numpy as np

from plqnewton.exprmap import _sweep
from plqnewton.numerics import RANK_RTOL
from plqnewton.solver import _solve_stack


def solve_possibly_singular(M, rhs, tol=1e-9):
    """(solution, alternate solution or None), or (None, None) when the
    system is singular and inconsistent: `_solve_stack` on a stack of one."""
    sols, alts, full, ok = _solve_stack(np.asarray(M, dtype=float)[None],
                                        np.asarray(rhs, dtype=float).reshape(1, -1), tol)
    if not ok[0]:
        return None, None
    return sols[0], None if full[0] else alts[0]


def eval_value(node, x) -> float:
    """The value of the expression tree `node` at x."""
    return _sweep(node, np.asarray(x, dtype=float).tolist(), 0)[0]


def range_basis(M, rtol=RANK_RTOL) -> np.ndarray:
    """Orthonormal basis (columns) of Ran(M)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return np.zeros((M.shape[0], 0))
    u, s, _ = np.linalg.svd(M)
    tol = rtol * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > tol))
    return u[:, :rank].copy()


def piece_contains(h, k, c) -> bool:
    """Whether piece k of h holds c, up to h's activity tolerance."""
    return bool(np.all(h._signs[k] * h.residuals(c) <= h._act_tol))
