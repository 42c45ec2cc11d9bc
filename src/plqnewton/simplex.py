"""Dense two-phase simplex for the small LPs used throughout the package.

All feasibility, interior-slack and support-function queries run through
`solve_lp`. Variables are free; the standard-form split x = u - v plus one
slack per inequality keeps everything dense. Bland's rule (lowest index in
and out) makes every solve deterministic and cycle-free. Problem sizes are
desk scale (tens of rows), so no factorization reuse is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PIVOT_TOL = 1e-10
_FEAS_TOL = 1e-9


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(A, b, row, col):
    """Pivot the system A z = b in place on (row, col): scale the row to a
    unit entry in col, then clear col from every other row with a nonzero
    entry there."""
    piv = A[row, col]
    A[row] /= piv
    b[row] /= piv
    for i in range(A.shape[0]):
        if i != row and abs(A[i, col]) > 0:
            f = A[i, col]
            A[i] -= f * A[row]
            b[i] -= f * b[row]


def _bland_simplex(A, b, c, basis):
    """Minimize c'z over Az = b, z >= 0 from the given feasible basis.

    A is modified in place to keep basis columns at identity. Returns
    ("optimal"|"unbounded", objective, z).
    """
    m, n = A.shape
    # Price out the starting basis.
    red = c.astype(float).copy()
    for i, j in enumerate(basis):
        if abs(red[j]) > 0:
            red -= red[j] * A[i]
    obj = 0.0
    for i, j in enumerate(basis):
        obj += c[j] * b[i]

    while True:
        enter = -1
        for j in range(n):
            if red[j] < -_PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            z = np.zeros(n)
            z[basis] = b
            return "optimal", obj, z
        # Ratio test with Bland tie-breaking on the leaving basic variable.
        leave = -1
        best = np.inf
        for i in range(m):
            if A[i, enter] > _PIVOT_TOL:
                ratio = b[i] / A[i, enter]
                if ratio < best - 1e-12 or (ratio < best + 1e-12 and (leave < 0 or basis[i] < basis[leave])):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded", -np.inf, None
        _pivot(A, b, leave, enter)
        f = red[enter]
        obj += f * b[leave]
        red -= f * A[leave]
        basis[leave] = enter


def solve_lp(c, F=None, f=None, E=None, e=None) -> LPResult:
    """Minimize c'x subject to Fx <= f and Ex = e, x free.

    Any of the constraint blocks may be None. Infeasibility and
    unboundedness are reported in the result status.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    n = c.shape[0]
    F = np.zeros((0, n)) if F is None else np.atleast_2d(np.asarray(F, dtype=float))
    f = np.zeros(0) if f is None else np.asarray(f, dtype=float).reshape(-1)
    E = np.zeros((0, n)) if E is None else np.atleast_2d(np.asarray(E, dtype=float))
    e = np.zeros(0) if e is None else np.asarray(e, dtype=float).reshape(-1)
    if F.shape[0] != f.shape[0] or E.shape[0] != e.shape[0]:
        raise ValueError("constraint row/rhs mismatch")
    if F.shape[0] and F.shape[1] != n:
        raise ValueError("F column count mismatch")
    if E.shape[0] and E.shape[1] != n:
        raise ValueError("E column count mismatch")

    p, q = F.shape[0], E.shape[0]
    rows = p + q
    # Standard form columns: u (n), v (n), s (p slacks).
    nz = 2 * n + p
    A = np.zeros((rows, nz))
    A[:p, :n] = F
    A[:p, n:2 * n] = -F
    A[:p, 2 * n:] = np.eye(p)
    A[p:, :n] = E
    A[p:, n:2 * n] = -E
    b = np.concatenate([f, e])
    # Make b nonnegative.
    for i in range(rows):
        if b[i] < 0:
            A[i] *= -1.0
            b[i] *= -1.0

    # Phase I: artificial basis.
    A1 = np.hstack([A, np.eye(rows)])
    c1 = np.zeros(nz + rows)
    c1[nz:] = 1.0
    basis = list(range(nz, nz + rows))
    status, obj1, _ = _bland_simplex(A1, b, c1, basis)
    if status != "optimal" or obj1 > _FEAS_TOL:
        return LPResult("infeasible")

    # Drive remaining artificials out of the basis; drop redundant rows.
    keep = []
    for i in range(len(basis)):
        if basis[i] < nz:
            keep.append(i)
            continue
        pivot_col = -1
        for j in range(nz):
            if abs(A1[i, j]) > _PIVOT_TOL:
                pivot_col = j
                break
        if pivot_col < 0:
            continue  # redundant row
        _pivot(A1, b, i, pivot_col)
        basis[i] = pivot_col
        keep.append(i)

    A2 = A1[np.ix_(keep, range(nz))].copy()
    b2 = np.maximum(b[keep].copy(), 0.0)
    basis2 = [basis[i] for i in keep]

    c2 = np.zeros(nz)
    c2[:n] = c
    c2[n:2 * n] = -c
    status, obj, z = _bland_simplex(A2, b2, c2, basis2)
    if status == "unbounded":
        return LPResult("unbounded")
    x = z[:n] - z[n:2 * n]
    return LPResult("optimal", x=x, objective=float(obj))


def feasible_point(F=None, f=None, E=None, e=None, dim=None) -> np.ndarray | None:
    """A point of {x : Fx <= f, Ex = e}, or None when the set is empty."""
    if dim is None:
        if F is not None and np.size(F):
            dim = np.atleast_2d(F).shape[1]
        elif E is not None and np.size(E):
            dim = np.atleast_2d(E).shape[1]
        else:
            raise ValueError("cannot infer dimension")
    res = solve_lp(np.zeros(dim), F, f, E, e)
    return res.x if res.optimal else None


def max_slack_point(F, f, E=None, e=None, cap=1.0):
    """Maximize the uniform slack t with Fx + t <= f (rows normalized), Ex = e, t <= cap.

    The slack is signed: t > 0 certifies a point at geometric depth t inside
    the inequalities relative to the equality-constrained affine set, while
    t < 0 means the system Fx <= f, Ex = e is infeasible (by roughly |t|).
    Returns (None, None) only when the equalities themselves are infeasible.
    F is k x n with k >= 0 rows; n, the number of variables, is its column
    count. Without rows or equalities the answer is the origin and t = cap,
    returned without an LP.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    f = np.asarray(f, dtype=float).reshape(-1)
    rows, n = F.shape
    has_eq = E is not None and np.size(E)
    if not rows and not has_eq:
        return np.zeros(n), float(cap)
    norms = np.linalg.norm(F, axis=1)
    norms = np.where(norms > 0, norms, 1.0)
    Fn = F / norms[:, None]
    fn = f / norms
    # Variables (x, t); rows: Fn x + t <= fn and t <= cap.
    Ft = np.zeros((rows + 1, n + 1))
    ft = np.zeros(rows + 1)
    Ft[:rows, :n] = Fn
    Ft[:rows, n] = 1.0
    ft[:rows] = fn
    Ft[rows, n] = 1.0
    ft[rows] = cap
    Et = None
    if has_eq:
        E2 = np.atleast_2d(np.asarray(E, dtype=float))
        Et = np.hstack([E2, np.zeros((E2.shape[0], 1))])
    obj = np.zeros(n + 1)
    obj[n] = -1.0
    res = solve_lp(obj, Ft, ft, Et, e)
    if not res.optimal:
        return None, None
    return res.x[:n], float(res.x[n])


def support_value(w, F=None, f=None, E=None, e=None):
    """max <w, x> over the polyhedron; returns (value, argmax) or (inf, None) if unbounded,
    (None, None) if empty."""
    w = np.asarray(w, dtype=float).reshape(-1)
    res = solve_lp(-w, F, f, E, e)
    if res.status == "infeasible":
        return None, None
    if res.status == "unbounded":
        return np.inf, None
    return -res.objective, res.x
