"""First- and second-order PLQ calculus.

Directional derivatives come from the active-piece formulas; subdifferentials
are assembled as H-form polyhedra by converting each active piece's normal
cone through a double-description pass over its tangent-cone rows. Everything
is exact polyhedral arithmetic at desk scale (m up to about 10).

The tangent cone of piece k depends only on h and the active hyperplane set,
so its generators are converted once per (k, active set) and cached on the
PLQ function as unit rows ready for `subdiff_hrep`. The `_at` twins take an
active profile the caller already holds, so h is evaluated once per point.
A facet shared by several active pieces comes once per piece, as the
per-piece construction gives it; the point analysis (composite) keeps one
copy with `PolyhedronH.distinct`, so its LPs see each facet once.

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


def _first_copies(M, rhs):
    """Indices of the first copy of each distinct (row, rhs), in order.
    Adding 0.0 turns -0.0 into 0.0, so equal values give equal bytes."""
    first = {}
    for i, key in enumerate(np.hstack([M, rhs[:, None]]) + 0.0):
        first.setdefault(key.tobytes(), i)
    return np.fromiter(first.values(), int, len(first))


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

    def distinct(self) -> "PolyhedronH":
        """The same set with each exact (row, rhs) repeat dropped and first
        copies kept in order; self when nothing repeats. Rows compare by
        value, so -0.0 equals 0.0. A subdifferential at a crossing of s
        hyperplanes stacks each of its 2s facets 2^(s-1) times, once for
        each active piece that has it."""
        iE, iF = _first_copies(self.E, self.e), _first_copies(self.F, self.f)
        if len(iE) == len(self.e) and len(iF) == len(self.f):
            return self
        return PolyhedronH.from_unit_rows(self.E[iE], self.e[iE], self.F[iF], self.f[iF])

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

    def to_dict(self):
        return {"E": self.E.tolist(), "e": self.e.tolist(),
                "F": self.F.tolist(), "f": self.f.tolist()}


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


class _GeneratorRows(NamedTuple):
    """Generators of one cone part (rays or lineality), one per row."""

    raw: np.ndarray    # as cone_generators returns them
    norm: np.ndarray   # the norm of each row
    unit: np.ndarray   # raw / norm, as PolyhedronH stores rows
    signed_axes: bool  # every row is a signed coordinate vector

    @staticmethod
    def of(gens, m) -> "_GeneratorRows":
        raw = np.array(gens, dtype=float).reshape(len(gens), m)
        norm = np.array([np.linalg.norm(r) for r in raw])
        axes = bool(np.all(np.count_nonzero(raw, axis=1) <= 1)
                    and np.all(np.isin(raw[raw != 0.0], (-1.0, 1.0))))
        return _GeneratorRows(freeze_array(raw), freeze_array(norm),
                              freeze_array(raw / norm[:, None]), axes)

    def rhs(self, g) -> np.ndarray:
        """<raw_i, g> / norm_i per row, rounded as `PolyhedronH` rounds the
        right-hand side of a row it normalizes: one dot per row. A matrix
        product sums in another order, which gives the same bits only when
        each row picks out one entry of g, up to sign."""
        if self.signed_axes:
            dots = self.raw @ g
        else:
            dots = np.array([float(r @ g) for r in self.raw])
        return dots / self.norm


def _tangent_cone(h: PLQFunction, k, act):
    """(lineality, rays) of the tangent cone of piece k where the hyperplanes
    `act` are active, converted once per (k, act) and cached on h."""
    cone = h._cone_cache.get((k, act))
    if cone is None:
        rays, lin = cone_generators(h.tangent_rows_at(k, act))
        cone = h._cone_cache.setdefault(
            (k, act), (_GeneratorRows.of(lin, h.m), _GeneratorRows.of(rays, h.m)))
    return cone


def subdiff_hrep(h: PLQFunction, c) -> PolyhedronH:
    """H-representation of the subdifferential at c.

    Each active piece contributes {y : y - grad_k(c) in N(c | C_k)}; the
    normal cone is converted to half-spaces through the generators of its
    polar (the tangent cone), cached per (piece, active set).
    """
    return subdiff_hrep_at(h, _active_or_raise(h, c), c)


def subdiff_hrep_at(h: PLQFunction, prof, c) -> PolyhedronH:
    """`subdiff_hrep` at c, whose finite active profile is `prof`, so that a
    caller that has evaluated h at c does not evaluate it again."""
    c = as_vector(c, h.m, "c")
    E, e, F, f = [], [], [], []
    for k in prof.active_pieces:
        g = h.piece_gradient(k, c)
        lin, rays = _tangent_cone(h, k, prof.active_set)
        E.append(lin.unit)
        e.append(lin.rhs(g))
        F.append(rays.unit)
        f.append(rays.rhs(g))
    return PolyhedronH.from_unit_rows(np.concatenate(E), np.concatenate(e),
                                      np.concatenate(F), np.concatenate(f))


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
