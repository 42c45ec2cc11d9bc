"""Reference helpers that only the tests call.

Each restates a piece of the library in its plainest form, for tests that
compare the library's faster paths against it: a linear solve that tolerates
singular systems (a stack of one through `solver._solve_stack`), one active
piece's restricted Newton step, the block multipliers piece by piece and the
pairwise gluing gap, the value of an expression tree, an orthonormal basis
of a matrix's range, one piece's membership test and interior point, the
subdifferential assembled piece by piece; also
the test-only helpers: one piece's restricted system matrix, the text form
of an expression tree, the map x -> c(Mx) and the emptiness of an H-form
polyhedron; and the structure enumeration with every pair decided up front.
"""

import functools
import itertools

import numpy as np

from plqnewton.calculus import PolyhedronH, cone_generators
from plqnewton.exprmap import BinOp, Const, Func, IntPow, Neg, SmoothMap, Var, _sweep
from plqnewton.errors import PreconditionError
from plqnewton.numerics import RANK_RTOL, as_vector, matrix_rank_rel
from plqnewton.simplex import max_slack_point
from plqnewton.solver import (
    SubproblemSolution,
    _consistent,
    _enum_solves,
    _model_sosc_ok,
    _solve_stack,
    kkt_matrix,
    restricted_systems,
)


def solve_possibly_singular(M, rhs, tol=1e-9):
    """(solution, alternate solution or None), or (None, None) when the
    system is singular and inconsistent: `_solve_stack` on a stack of one."""
    sols, alts, full, ok = _solve_stack(np.asarray(M, dtype=float)[None],
                                        np.asarray(rhs, dtype=float).reshape(1, -1), tol=tol)
    if not ok[0]:
        return None, None
    return sols[0], None if full[0] else alts[0]


def restricted_step_of_piece(p, md, x, y, j):
    """(x_j, y_j, mu_j): piece j's restricted Newton step at (x, y), its
    system assembled and solved alone."""
    cx, jac, H = p.c.evaluate(x, y)
    piece, jx = md.h.pieces[md.active_pieces[j]], jac @ x
    rhs = [H @ x, piece.Q @ (cx - jx) + piece.b]
    rows = None
    if md.ell:
        rows = md.A.T @ jac
        rhs.append(md.A.T @ (md.base_point - cx + jx))
    cols = md.A * md.P[j][None, :]
    return np.linalg.solve(kkt_matrix(H, jac, piece.Q, cols, rows), np.concatenate(rhs))


def restricted_kkt_matrix(p, md, x, y, j):
    """(matrix, nonsingular): the (n + m + ell) square system matrix of the
    j-th active piece's restricted Newton step at (x, y), row j of the
    solver's stack (`restricted_systems`), judged by the relative rank test."""
    if not md.nondegenerate:
        raise PreconditionError("degenerate A")
    x = as_vector(x, p.n, "x")
    M = restricted_systems(md, x, p.c.evaluate(x, as_vector(y, p.m, "y")))[0][j]
    return M, matrix_rank_rel(M) == M.shape[0]


def mu_projection_of_pieces(md, c, y):
    """`ManifoldData.mu_projection` piece by piece: the residuals
    r_j = y - Q_j c - b_j and the blocks P_j (A^T A)^{-1} A^T r_j."""
    AtA = md.A.T @ md.A
    pieces = [md.h.pieces[k] for k in md.active_pieces]
    resids = [y - piece.Q @ c - piece.b for piece in pieces]
    blocks = [md.P[j] * np.linalg.solve(AtA, md.A.T @ r) for j, r in enumerate(resids)]
    return np.array(blocks).reshape(md.kbar, md.ell), np.array(resids)


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


def first_copies(M, rhs):
    """(M, rhs) without the later copies of a row of M; rows compare by
    value, so -0.0 equals 0.0, and each kept row keeps its own bits and
    right-hand side."""
    kept = []
    for i, row in enumerate(M):
        if not any(np.array_equal(row, M[k]) for k in kept):
            kept.append(i)
    return M[kept], rhs[kept]


def subdiff_hrep_of_pieces(h, prof, c, repeats=False):
    """`calculus.subdiff_hrep_at` piece by piece: each active piece's tangent
    cone converted alone, its lineality and ray rows normalized, and their
    right-hand sides <raw_i, grad_k(c)> / norm_i taken by one matrix product
    for a part whose rows are signed axes and one dot per row otherwise.
    Each unit row is kept once (`first_copies`), or, with `repeats`, once
    per piece that has it."""
    E, e, F, f = [], [], [], []
    for k in prof.active_pieces:
        g = h.piece_gradient(k, c)
        rays, lin = cone_generators(h.tangent_rows_at(k, prof.active_set))
        for gens, rows, rhs in ((lin, E, e), (rays, F, f)):
            raw = np.array(gens, dtype=float).reshape(len(gens), h.m)
            norm = np.array([np.linalg.norm(r) for r in raw])
            axes = np.all(np.count_nonzero(raw, axis=1) <= 1) \
                and np.all(np.isin(raw[raw != 0.0], (-1.0, 1.0)))
            rows.append(raw / norm[:, None])
            rhs.append((raw @ g if axes else np.array([float(r @ g) for r in raw])) / norm)
    E, e, F, f = map(np.concatenate, (E, e, F, f))
    if not repeats:
        (E, e), (F, f) = first_copies(E, e), first_copies(F, f)
    return PolyhedronH.from_unit_rows(E, e, F, f)


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


def eager_enum(p, x_hat, H, lin=None) -> list:
    """`solver.solve_subproblem_enum` with every pair decided when the call
    is made: over the same batched solves, the visiting order is replayed,
    and each pair not on a solved face is tested (`_consistent`), dropped
    when an accepted pair lies within 1e-9, and built with its alternate in
    turn; the list is then sorted by model value, ties by piece."""
    H, cx, jac, plan, res = _enum_solves(p, x_hat, H, lin)
    h, n, m = p.h, p.n, p.m
    A_all = h.hyperplane_matrix()[0]
    solved, out, found = set(), [], np.empty((0, n + m))
    for row in np.argsort(res.pairs).tolist():
        q = int(res.pairs[row])
        face = plan.face[q]
        if face in solved:
            continue
        sol, alt = res.sols[row], None if res.full[row] else res.alts[row]
        if alt is None:
            solved.add(face)
        k, i = divmod(q, len(plan.subsets))
        prof = _consistent(p, k, sol, cx, jac) if res.active[row] else None
        if prof is None:
            continue
        d, y = sol[:n], sol[n:n + m]
        if out and np.any(np.linalg.norm(found[:, :n] - d, axis=1)
                          + np.linalg.norm(found[:, n:] - y, axis=1) <= 1e-9):
            continue
        alternate = None
        if alt is not None and _consistent(p, k, alt, cx, jac) is not None:
            alternate = (alt[:n], alt[n:n + m])
        out.append(SubproblemSolution(
            d=d, y=y, lam=sol[n + m:n + m + len(plan.subsets[i])], piece=k,
            active_set=plan.subsets[i],
            model_value=prof.value.value + 0.5 * float(d @ H @ d),
            model_check=functools.partial(
                _model_sosc_ok, A_all[list(prof.active_set)] @ jac, jac, H,
                [h.pieces[j].Q for j in prof.active_pieces]),
            unique=alternate is None, alternate=alternate, profile=prof))
        found = np.vstack([found, sol[:n + m]])
    out.sort(key=lambda q: (round(q.model_value, 12), q.piece))
    return out
