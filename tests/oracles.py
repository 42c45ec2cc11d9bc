"""Reference helpers that only the tests call.

Each restates a piece of the library in its plainest form, for tests that
compare the library's faster paths against it: a linear solve that tolerates
singular systems (a stack of one through `solver._solve_stack`), one active
piece's restricted Newton step and the pairwise gluing gap, the value of an
expression tree, an orthonormal basis of a matrix's range, one piece's
membership test and interior point; also the test-only helpers: the text
form of an expression tree, the map x -> c(Mx) and the emptiness of an
H-form polyhedron.
"""

import itertools

import numpy as np

from plqnewton.exprmap import BinOp, Const, Func, IntPow, Neg, SmoothMap, Var, _sweep
from plqnewton.numerics import RANK_RTOL
from plqnewton.simplex import max_slack_point
from plqnewton.solver import _solve_stack, kkt_matrix


def solve_possibly_singular(M, rhs, tol=1e-9):
    """(solution, alternate solution or None), or (None, None) when the
    system is singular and inconsistent: `_solve_stack` on a stack of one."""
    sols, alts, full, ok = _solve_stack(np.asarray(M, dtype=float)[None],
                                        np.asarray(rhs, dtype=float).reshape(1, -1), tol)
    if not ok[0]:
        return None, None
    return sols[0], None if full[0] else alts[0]


def restricted_step_of_piece(p, md, x, y, j):
    """(x_j, y_j, mu_j): piece j's restricted Newton step at (x, y), its
    system assembled and solved alone."""
    cx, jac, H = p.c.evaluate(x, y)
    piece, jx = md.piece(j), jac @ x
    rhs = [H @ x, piece.Q @ (cx - jx) + piece.b]
    rows = None
    if md.ell:
        rows = md.A.T @ jac
        rhs.append(md.A.T @ (md.base_point - cx + jx))
    cols = md.A * md.P[j][None, :]
    return np.linalg.solve(kkt_matrix(H, jac, piece.Q, cols, rows), np.concatenate(rhs))


def pairwise_gluing_gap(sols, n, m) -> float:
    """max over rows i < j of |x_i - x_j| + |y_i - y_j|, pair by pair."""
    gap = 0.0
    for a, b in itertools.combinations(sols, 2):
        gap = max(gap, float(np.linalg.norm(a[:n] - b[:n])
                             + np.linalg.norm(a[n:n + m] - b[n:n + m])))
    return gap


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


def piece_interior_point(h, k):
    """A point of maximal uniform slack inside piece k and its depth t (at
    most 4.0), or (None, None) when the piece is empty (t < -1e-9)."""
    x, t = max_slack_point(*h.piece_rows(k), cap=4.0)
    return (None, None) if x is None or t < -1e-9 else (x, t)


def format_expr(node) -> str:
    """Fully parenthesized text form; parse(format(ast)) reproduces the ast."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Neg):
        # The child is always parenthesized: '-x1^2' would re-associate the
        # power onto the negated base under this grammar.
        return f"(-({format_expr(node.child)}))"
    if isinstance(node, BinOp):
        return f"({format_expr(node.left)} {node.op} {format_expr(node.right)})"
    if isinstance(node, IntPow):
        return f"{_pow_base(node.child)}^{node.power}"
    if isinstance(node, Func):
        return f"{node.name}({format_expr(node.child)})"
    raise TypeError(f"not an expression node: {node!r}")


def _pow_base(node) -> str:
    if isinstance(node, (Var,)):
        return format_expr(node)
    return f"({format_expr(node)})"


def substitute_linear(node, M):
    """Replace each variable x_i by the linear form sum_j M[i-1, j] * x_j."""
    M = np.atleast_2d(np.asarray(M, dtype=float))

    def repl(i):
        terms = None
        for j in range(M.shape[1]):
            coef = M[i - 1, j]
            if coef == 0.0:
                continue
            t = BinOp("*", Const(coef), Var(j + 1))
            terms = t if terms is None else BinOp("+", terms, t)
        return terms if terms is not None else Const(0.0)

    def walk(nd):
        if isinstance(nd, Const):
            return nd
        if isinstance(nd, Var):
            return repl(nd.index)
        if isinstance(nd, Neg):
            return Neg(walk(nd.child))
        if isinstance(nd, BinOp):
            return BinOp(nd.op, walk(nd.left), walk(nd.right))
        if isinstance(nd, IntPow):
            return IntPow(walk(nd.child), nd.power)
        if isinstance(nd, Func):
            return Func(nd.name, walk(nd.child))
        raise TypeError(nd)

    return walk(node)


def rotated_map(c, M) -> SmoothMap:
    """The map x -> c(Mx), by substituting linear forms into each component."""
    return SmoothMap(c.n, c.m, tuple(substitute_linear(cmp, M) for cmp in c.components))


def is_empty(P) -> bool:
    """Whether the H-form polyhedron P has no point."""
    return P.feasible_point() is None
