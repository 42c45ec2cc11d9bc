"""First- and second-order PLQ calculus.

Directional derivatives come from the active-piece formulas; subdifferentials
are assembled as H-form polyhedra by converting each active piece's normal
cone through a double-description pass over its tangent-cone rows. Everything
is exact polyhedral arithmetic at desk scale (m up to about 10).

The tangent cone of piece k depends only on h and the active hyperplane set,
so the generators of every active piece are converted once per (active
pieces, active set) and cached on the PLQ function as one stack of unit
rows; `subdiff_hrep` takes every piece's gradient and right-hand sides in
one pass. The `_at` twins take an active profile the caller already holds,
so h is evaluated once per point. A facet shared by several active pieces
is stacked once, with the right-hand side of the first piece that has it:
at a crossing of s hyperplanes the 2^s active pieces give 2s facet rows,
not s 2^s, so every membership test, residual and LP sees each facet once.

Extended-real results use the tagged ExtReal type; no float('inf') arithmetic.
All operations are functions over immutable inputs. The only state is the
caches an immutable PLQ function or polyhedron fills on first use; filling
them is idempotent, so concurrent calls are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, MembershipError
from .numerics import ExtReal, PLUS_INF, as_vector, freeze_array, nullspace_basis
from .plq import PLQFunction, eval_with_active
from .simplex import feasible_point, max_slack_point, support_value

# Uniform membership slack for polyhedral tests.
MEMB_TOL = 1e-9
# Slack, scaled by 1 + |y|, above which a row at a max-slack point y is no
# implicit equality (see `PolyhedronH.implicit_equality_mask`).
CLEAR_MARGIN = 1e-6


# -- double description -----------------------------------------------------


def _tight_mask(P, v, tol):
    if P.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    return np.abs(P @ v) <= tol


def _dedupe(rays, tol=1e-9):
    out = []
    for r in rays:
        if not any(np.linalg.norm(r - q) <= tol for q in out):
            out.append(r)
    return out


def cone_generators(B, tol=1e-10):
    """Minimal generators of the cone {v : B v <= 0}.

    Returns (rays, lineality): unit extreme rays and an orthonormal basis of
    the lineality space, so the cone is cone(rays) + span(lineality).
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    m = B.shape[1]
    L = [np.eye(m)[i] for i in range(m)]
    R: list[np.ndarray] = []
    processed = np.zeros((0, m))

    for raw in B:
        nrm = np.linalg.norm(raw)
        if nrm <= tol:
            continue
        b = raw / nrm
        dots = np.array([b @ l for l in L]) if L else np.zeros(0)
        if dots.size and np.max(np.abs(dots)) > tol:
            i_star = int(np.argmax(np.abs(dots)))
            l_star, d_star = L[i_star], dots[i_star]
            newL = []
            for i, l in enumerate(L):
                if i == i_star:
                    continue
                v = l - (dots[i] / d_star) * l_star
                nv = np.linalg.norm(v)
                if nv > tol:
                    newL.append(v / nv)
            r0 = -np.sign(d_star) * l_star
            R = [r - ((b @ r) / d_star) * l_star for r in R]
            R = [r / np.linalg.norm(r) for r in R if np.linalg.norm(r) > tol]
            R.append(r0)
            L = newL
        else:
            vals = np.array([b @ r for r in R]) if R else np.zeros(0)
            neg = [R[i] for i in range(len(R)) if vals[i] < -tol]
            zero = [R[i] for i in range(len(R)) if abs(vals[i]) <= tol]
            pos = [R[i] for i in range(len(R)) if vals[i] > tol]
            if pos:
                masks = {id(r): _tight_mask(processed, r, tol) for r in R}
                new_rays = []
                for rp in pos:
                    for rn in neg:
                        common = masks[id(rp)] & masks[id(rn)]
                        adjacent = True
                        for r3 in R:
                            if r3 is rp or r3 is rn:
                                continue
                            if np.all(common <= masks[id(r3)]):
                                adjacent = False
                                break
                        if not adjacent:
                            continue
                        w = (b @ rp) * rn - (b @ rn) * rp
                        nw = np.linalg.norm(w)
                        if nw > tol:
                            new_rays.append(w / nw)
                R = _dedupe(neg + zero + new_rays)
        processed = np.vstack([processed, b[None, :]])
    return R, L


def cone_contains(B, v, tol=MEMB_TOL) -> bool:
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.shape[0] == 0:
        return True
    v = np.asarray(v, dtype=float)
    scale = 1.0 + float(np.linalg.norm(v))
    return bool(np.all(B @ v <= tol * scale))


# -- polyhedra in H-form -----------------------------------------------------


@dataclass(frozen=True)
class PolyhedronH:
    """{y : E y = e, F y <= f} with rows normalized to unit length."""

    E: np.ndarray
    e: np.ndarray
    F: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        E, e = self._normalize(self.E, self.e)
        F, f = self._normalize(self.F, self.f)
        object.__setattr__(self, "E", freeze_array(E))
        object.__setattr__(self, "e", freeze_array(e))
        object.__setattr__(self, "F", freeze_array(F))
        object.__setattr__(self, "f", freeze_array(f))

    @staticmethod
    def _normalize(M, rhs):
        M = np.atleast_2d(np.asarray(M, dtype=float))
        rhs = np.asarray(rhs, dtype=float).reshape(-1)
        if M.size == 0:
            return M.reshape(0, M.shape[1] if M.ndim == 2 and M.shape[1] else 0), rhs[:0]
        keep_rows, keep_rhs = [], []
        for i in range(M.shape[0]):
            nrm = np.linalg.norm(M[i])
            if nrm <= 1e-14:
                if abs(rhs[i]) > 1e-12:
                    raise ValueError("zero row with nonzero right-hand side")
                continue
            keep_rows.append(M[i] / nrm)
            keep_rhs.append(rhs[i] / nrm)
        if not keep_rows:
            return np.zeros((0, M.shape[1])), np.zeros(0)
        return np.array(keep_rows), np.array(keep_rhs)

    @staticmethod
    def from_unit_rows(E, e, F, f) -> "PolyhedronH":
        """The polyhedron of rows already divided by their norms, kept as given
        (normalizing a unit row again may move its last bit). The arrays
        become the polyhedron's: they are marked read-only, not copied."""
        P = object.__new__(PolyhedronH)
        for name, arr in (("E", E), ("e", e), ("F", F), ("f", f)):
            arr.setflags(write=False)
            object.__setattr__(P, name, arr)
        return P

    @property
    def dim(self) -> int:
        if self.E.shape[1]:
            return self.E.shape[1]
        return self.F.shape[1]

    def contains(self, y, slack=MEMB_TOL) -> bool:
        y = as_vector(y, self.dim, "y")
        scale = 1.0 + float(np.linalg.norm(y))
        ok_eq = self.E.shape[0] == 0 or np.max(np.abs(self.E @ y - self.e)) <= slack * scale
        ok_in = self.F.shape[0] == 0 or np.max(self.F @ y - self.f) <= slack * scale
        return bool(ok_eq and ok_in)

    def violation(self, y) -> float:
        """Largest constraint violation at y (0 when the point is a member)."""
        y = as_vector(y, self.dim, "y")
        v = 0.0
        if self.E.shape[0]:
            v = max(v, float(np.abs(self.E @ y - self.e).max()))
        if self.F.shape[0]:
            v = max(v, float((self.F @ y - self.f).max()))
        return v

    def _lp_blocks(self):
        """The constraint blocks as the LP routines take them (None when empty)."""
        return dict(F=self.F if self.F.shape[0] else None, f=self.f if self.F.shape[0] else None,
                    E=self.E if self.E.shape[0] else None, e=self.e if self.E.shape[0] else None)

    def feasible_point(self):
        return feasible_point(**self._lp_blocks(), dim=self.dim)

    def support(self, w):
        """(max <w,y>, argmax); (inf, None) when unbounded, (None, None) when empty."""
        return support_value(w, **self._lp_blocks())

    @cached_property
    def _slack_point(self):
        """The point of one max-slack LP over the inequality rows, or None when
        there are no such rows or the point fails `contains`. Cached: the mask
        clears rows with it and `is_singleton` takes it as a point of P."""
        if not self.F.shape[0]:
            return None
        blocks = self._lp_blocks()
        y, _ = max_slack_point(self.F, self.f, E=blocks["E"], e=blocks["e"], cap=1.0)
        return y if y is not None and self.contains(y) else None

    def implicit_equality_mask(self):
        """Inequality rows that hold with equality (within MEMB_TOL) on the whole
        set; `hull_split` computes it once.

        At a y in P, a row with slack above MEMB_TOL is not an implicit
        equality (Schrijver, *Theory of Linear and Integer Programming*, 1986,
        §8.2); y is `_slack_point`. That y passes `contains` yet may lie
        outside P by up to MEMB_TOL (1 + |y|), and an implicit row's slack
        there can reach the Hoffman constant of P times that. So only a row
        with slack above CLEAR_MARGIN (1 + |y|) is cleared, which holds for
        Hoffman constants up to about 1000; every other row gets a support LP.
        Without a slack point no row is cleared."""
        mask = np.zeros(self.F.shape[0], dtype=bool)
        if not mask.size:
            return mask
        y = self._slack_point
        if y is not None:
            cleared = self.f - self.F @ y > CLEAR_MARGIN * (1.0 + float(np.linalg.norm(y)))
        else:
            cleared = mask.copy()
        for i in np.flatnonzero(~cleared):
            val, _ = self.support(-self.F[i])  # max of -F_i y  ==  -(min F_i y)
            if val is None:
                return mask  # empty set: meaningless, caller checks emptiness
            mask[i] = self.f[i] + val <= MEMB_TOL
        return mask

    @cached_property
    def hull_split(self):
        """(A, b, Fr, fr): the equalities plus the implicit-equality rows, which
        describe aff(P), and the remaining inequality rows. Cached: the
        polyhedron is immutable, so recomputing would give the same rows."""
        if not self.F.shape[0]:
            return self.E, self.e, self.F, self.f
        mask = self.implicit_equality_mask()
        return (np.vstack([self.E, self.F[mask]]), np.concatenate([self.e, self.f[mask]]),
                self.F[~mask], self.f[~mask])

    def affine_hull(self):
        """Stacked equality system (A, b) describing aff(P), implicit rows included."""
        return self.hull_split[:2]

    def parallel_basis(self):
        """Orthonormal basis (columns) of the subspace parallel to aff(P)."""
        A, _ = self.affine_hull()
        return nullspace_basis(A) if A.shape[0] else np.eye(self.dim)

    def is_singleton(self):
        """(True, point) for a zero-dimensional nonempty set, else (False, any
        point or None). A feasibility LP runs only without a `_slack_point`."""
        x = self._slack_point
        if x is None:
            x = self.feasible_point()
            if x is None:
                return False, None
        if self.parallel_basis().shape[1] == 0:
            A, b = self.affine_hull()
            pt, *_ = np.linalg.lstsq(A, b, rcond=None)
            return True, pt
        return False, x

    def ri_slack(self, rows, rhs):
        """(point, depth): the point of P with rows @ y = rhs and the largest
        uniform slack `depth` <= 1 on the inequalities that are not implicit
        equalities; depth is inf without such rows, negative when they cannot
        all hold, and (None, None) means the equalities cannot hold."""
        A, b, Fr, fr = self.hull_split
        E, e = np.vstack([A, rows]), np.concatenate([b, rhs])
        if Fr.shape[0] == 0:
            x = feasible_point(E=E, e=e, dim=self.dim) if E.shape[0] else np.zeros(self.dim)
            return (x, np.inf) if x is not None else (None, None)
        return max_slack_point(Fr, fr, E=E if E.shape[0] else None,
                               e=e if E.shape[0] else None, cap=1.0)

    def ri_point(self):
        """(point, depth) with uniform slack `depth` on the rows that are not
        implicit equalities; depth > 0 puts the point in the relative interior.
        Returns (None, None) for an empty set."""
        x, t = self.ri_slack(np.zeros((0, self.dim)), np.zeros(0))
        if x is None or t < -MEMB_TOL:
            return None, None
        return x, t


# -- calculus operations ------------------------------------------------------


def _active_or_raise(h, c):
    prof = eval_with_active(h, c)
    if not prof.is_finite:
        raise DomainError("point is outside dom h")
    return prof


def _tangent_piece(h: PLQFunction, prof, w):
    """The first active piece whose tangent cone contains w, or None."""
    for k in prof.active_pieces:
        if cone_contains(h.tangent_rows_at(k, prof.active_set), w):
            return k
    return None


def dir_deriv_first(h: PLQFunction, c, w) -> ExtReal:
    """One-sided directional derivative h'(c; w); +inf outside the tangent cone of dom h."""
    prof = _active_or_raise(h, c)
    c = as_vector(c, h.m, "c")
    w = as_vector(w, h.m, "w")
    k = _tangent_piece(h, prof, w)
    return PLUS_INF if k is None else ExtReal.finite(h.piece_gradient(k, c) @ w)


def dir_deriv_second(h: PLQFunction, c, w) -> ExtReal:
    """One-sided second directional derivative h''(c; w); nonnegative when finite."""
    prof = _active_or_raise(h, c)
    w = as_vector(w, h.m, "w")
    k = _tangent_piece(h, prof, w)
    return PLUS_INF if k is None else ExtReal.finite(w @ (h.pieces[k].Q @ w))


class _SubdiffRows(NamedTuple):
    """The rows of dh at every point with one (active pieces, active set):
    the lineality rows (the equalities), then the rays, of every piece, as
    cone_generators returns them, each unit row once (`_first_copies`),
    with their norms, their unit forms as PolyhedronH stores rows, and the
    position of each row's piece among the active pieces. When every row is
    a signed axis, `axes` holds the entry of the flattened gradient stack
    each row picks, and its sign."""

    Qs: np.ndarray     # (kbar, m, m): the active pieces' Q
    bs: np.ndarray     # (kbar, m): their b
    raw: np.ndarray    # (R, m)
    norm: np.ndarray   # (R,)
    unit: np.ndarray   # (R, m)
    piece: np.ndarray  # (R,)
    n_eq: int
    axes: tuple | None


def _first_copies(M):
    """Indices of the first copy of each distinct row of M, in order. Adding
    0.0 turns -0.0 into 0.0, so equal values give equal bytes."""
    first = {}
    for i, key in enumerate(M + 0.0):
        first.setdefault(key.tobytes(), i)
    return np.fromiter(first.values(), int, len(first))


def _subdiff_rows(h: PLQFunction, pieces, act) -> _SubdiffRows:
    """The `_SubdiffRows` of (pieces, act), cached on h. A piece and the
    active set fix the active pieces, so each piece's tangent cone is
    converted once per active set.

    A unit row that several pieces share keeps its first copy, so its
    right-hand side is the first such piece's. On a continuous h that is
    every such piece's: a shared row is a ray or a lineality direction of
    both tangent cones, so both pieces hold h along it near c and their
    derivatives along it agree."""
    rows = h._subdiff_cache.get((pieces, act))
    if rows is None:
        cones = [cone_generators(h.tangent_rows_at(k, act)) for k in pieces]  # (rays, lineality)
        parts = [lin for _, lin in cones] + [rays for rays, _ in cones]
        raw = np.reshape([g for part in parts for g in part], (-1, h.m))
        norm = np.array([np.linalg.norm(r) for r in raw])
        unit = raw / norm[:, None]
        piece = np.repeat(np.tile(np.arange(len(pieces)), 2), [len(part) for part in parts])
        n_eq = sum(len(lin) for _, lin in cones)
        eq, ineq = _first_copies(unit[:n_eq]), n_eq + _first_copies(unit[n_eq:])
        keep = np.concatenate([eq, ineq])
        raw, norm, unit, piece = raw[keep], norm[keep], unit[keep], piece[keep]
        axes = None
        if np.all(np.count_nonzero(raw, axis=1) <= 1) and np.all(np.isin(raw[raw != 0.0], (-1, 1))):
            axes = (piece * h.m + np.argmax(raw != 0.0, axis=1), raw.sum(axis=1))
        rows = h._subdiff_cache.setdefault((pieces, act), _SubdiffRows(
            h._Q[list(pieces)], h._b[list(pieces)], freeze_array(raw), freeze_array(norm),
            freeze_array(unit), piece, len(eq), axes))
    return rows


def subdiff_hrep(h: PLQFunction, c) -> PolyhedronH:
    """H-representation of the subdifferential at c.

    Each active piece contributes {y : y - grad_k(c) in N(c | C_k)}; the
    normal cone is converted to half-spaces through the generators of its
    polar (the tangent cone), cached per (active pieces, active set).
    """
    return subdiff_hrep_at(h, _active_or_raise(h, c), c)


def subdiff_hrep_at(h: PLQFunction, prof, c) -> PolyhedronH:
    """`subdiff_hrep` at c, whose finite active profile is `prof`, so that a
    caller that has evaluated h at c does not evaluate it again.

    The rows are cached (`_subdiff_rows`) and the active pieces' gradients
    are one array expression. Row i's right-hand side <raw_i, g> / norm_i is
    rounded as `PolyhedronH` rounds a row it normalizes: one dot per row.
    Where every row is a signed axis, that dot is the signed entry of g it
    picks (+0.0 when zero: a dot sums from +0.0), taken for all rows at once.
    """
    if not prof.active_pieces:
        raise DomainError("point is outside dom h")
    c = as_vector(c, h.m, "c")
    rows = _subdiff_rows(h, prof.active_pieces, prof.active_set)
    G = rows.Qs @ c + rows.bs
    if rows.axes is not None:
        rhs = G.take(rows.axes[0]) * rows.axes[1] + 0.0  # norm 1
    else:
        rhs = np.array([float(r @ g) for r, g in zip(rows.raw, G[rows.piece])]) / rows.norm
    E, F = rows.unit[:rows.n_eq], rows.unit[rows.n_eq:]
    return PolyhedronH.from_unit_rows(E, rhs[:rows.n_eq], F, rhs[rows.n_eq:])


def second_subderivative(h: PLQFunction, c, y, w) -> ExtReal:
    """Second subderivative at c for the subgradient y in direction w.

    Finite exactly when h'(c; w) = <y, w>, in which case it equals h''(c; w).
    """
    prof = _active_or_raise(h, c)
    y = as_vector(y, h.m, "y")
    w = as_vector(w, h.m, "w")
    P = subdiff_hrep(h, c)
    if not P.contains(y):
        raise MembershipError("y is not a subgradient at c")
    hp = dir_deriv_first(h, c, w)
    if hp.is_inf:
        return PLUS_INF
    if abs(hp.value - y @ w) > MEMB_TOL * (1.0 + abs(hp.value)):
        return PLUS_INF
    return dir_deriv_second(h, c, w)
