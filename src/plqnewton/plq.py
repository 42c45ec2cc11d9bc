"""Shared-hyperplane representation of convex piecewise linear-quadratic functions.

A function is described by s hyperplanes (a_j, alpha_j) and K pieces. Piece k
occupies the polyhedron {c : sign_kj * (<a_j, c> - alpha_j) <= 0 for all j}
and carries the quadratic 0.5 <c, Q_k c> + <b_k, c> + beta_k there. Every
piece takes a side of every hyperplane, which settles two things: the active
hyperplane set at a point is the same for each piece containing it, and two
pieces whose sign vectors differ lie on opposite sides of some hyperplane, so
their interiors are disjoint.

`eval_with_active` computes the hyperplane residuals r = A c - alpha once and
tests every piece at once against the K x s sign matrix; its profile keeps
the one active set. Each function stacks its pieces' Q and b and its unit
hyperplane normals, and caches what depends on h alone, filled on first
use: through `calculus`, the subdifferential's rows per set of active
pieces; through `manifold`, the manifold data per set of active pieces; and
through `solver`, the structure enumeration's face plan.

`validate_representation` decides every invariant exactly, convexity
included, on the faces of the arrangement; it draws no random number.

Instances are immutable after construction: the caches are plain dicts set in
`__post_init__`, not dataclass fields, so equality is unchanged. Filling an
entry is idempotent (two threads computing it store equal values), so
concurrent reads are safe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RepresentationError
from .numerics import ExtReal, PLUS_INF, as_vector, freeze_array, nullspace_basis
from .simplex import max_slack_point, support_value

# Active-constraint detection: |<a_j, c> - alpha_j| <= ACT_TOL * (1 + |alpha_j|).
ACT_TOL = 1e-9
# Two active pieces must agree in value to VALUE_TOL * (1 + |value|).
VALUE_TOL = 1e-8


@dataclass(frozen=True)
class Hyperplane:
    a: np.ndarray
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "a", freeze_array(as_vector(self.a, name="a")))
        object.__setattr__(self, "alpha", float(self.alpha))
        if np.linalg.norm(self.a) == 0.0:
            raise ValueError("hyperplane normal must be nonzero")


@dataclass(frozen=True)
class Piece:
    signs: np.ndarray  # +/-1 per hyperplane
    Q: np.ndarray
    b: np.ndarray
    beta: float = 0.0

    def __post_init__(self):
        signs = np.asarray(self.signs, dtype=float).reshape(-1)
        if signs.size and not np.all(np.isin(signs, (-1.0, 1.0))):
            raise ValueError("piece signs must be +/-1")
        object.__setattr__(self, "signs", freeze_array(signs))
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        if Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
        if Q.size and np.max(np.abs(Q - Q.T)) > 1e-14:
            raise ValueError("Q must be symmetric to 1e-14")
        object.__setattr__(self, "Q", freeze_array(0.5 * (Q + Q.T)))
        object.__setattr__(self, "b", freeze_array(as_vector(self.b, name="b")))
        object.__setattr__(self, "beta", float(self.beta))


@dataclass(frozen=True)
class ActiveProfile:
    """Value and active structure of a PLQ function at one point."""

    value: ExtReal
    active_pieces: tuple
    active_set: tuple  # active hyperplane indices, shared by every active piece
    kbar: int
    ell: int | None

    @property
    def is_finite(self) -> bool:
        return self.value.is_finite


@dataclass(frozen=True)
class PLQFunction:
    m: int
    hyperplanes: tuple
    pieces: tuple
    name: str = ""

    def __post_init__(self):
        hps = tuple(self.hyperplanes)
        pcs = tuple(self.pieces)
        object.__setattr__(self, "hyperplanes", hps)
        object.__setattr__(self, "pieces", pcs)
        if not pcs:
            raise ValueError("at least one piece is required")
        s = len(hps)
        for h in hps:
            if h.a.shape[0] != self.m:
                raise ValueError("hyperplane dimension mismatch")
        for p in pcs:
            if p.signs.shape[0] != s:
                raise ValueError(f"piece signs must have length {s}")
            if p.Q.shape[0] != self.m or p.b.shape[0] != self.m:
                raise ValueError("piece Q/b dimension mismatch")
        A = np.array([h.a for h in hps], dtype=float).reshape(s, self.m)
        alph = np.array([h.alpha for h in hps], dtype=float)
        object.__setattr__(self, "_A", freeze_array(A))
        object.__setattr__(self, "_unit_A", freeze_array(A / np.linalg.norm(A, axis=1)[:, None]))
        object.__setattr__(self, "_alpha", freeze_array(alph))
        object.__setattr__(self, "_act_tol", freeze_array(ACT_TOL * (1.0 + np.abs(alph))))
        signs = np.array([p.signs for p in pcs], dtype=float).reshape(len(pcs), s)
        object.__setattr__(self, "_signs", freeze_array(signs))
        object.__setattr__(self, "_Q", freeze_array([p.Q for p in pcs]))  # (K, m, m)
        object.__setattr__(self, "_b", freeze_array([p.b for p in pcs]))  # (K, m)
        # h-only data, filled on first use: (active pieces, active set) ->
        # the subdifferential's rows (see calculus) and the manifold's A, P,
        # nondegeneracy and stacked piece data (see manifold); () -> the
        # structure enumeration's face plan (see solver).
        object.__setattr__(self, "_subdiff_cache", {})
        object.__setattr__(self, "_manifold_cache", {})
        object.__setattr__(self, "_face_plan_cache", {})

    # -- basic geometry ---------------------------------------------------

    @property
    def n_hyperplanes(self) -> int:
        return len(self.hyperplanes)

    @property
    def n_pieces(self) -> int:
        return len(self.pieces)

    def hyperplane_matrix(self):
        """(A, alpha): rows of A are the hyperplane normals."""
        return self._A, self._alpha

    def piece_rows(self, k):
        """H-form of piece k: rows B, rhs g with B c <= g."""
        p = self.pieces[k]
        if self.n_hyperplanes == 0:
            return np.zeros((0, self.m)), np.zeros(0)
        return p.signs[:, None] * self._A, p.signs * self._alpha

    def residuals(self, c):
        """<a_j, c> - alpha_j for every hyperplane."""
        c = as_vector(c, self.m, "c")
        if self.n_hyperplanes == 0:
            return np.zeros(0)
        return self._A @ c - self._alpha

    def piece_value(self, k, c) -> float:
        c = as_vector(c, self.m, "c")
        p = self.pieces[k]
        return float(0.5 * c @ (p.Q @ c) + p.b @ c + p.beta)

    def piece_gradient(self, k, c) -> np.ndarray:
        c = as_vector(c, self.m, "c")
        p = self.pieces[k]
        return p.Q @ c + p.b

    def tangent_rows_at(self, k, act) -> np.ndarray:
        """Rows B with T(c | C_k) = {v : B v <= 0}, the unit-normalized active
        gradients signs_kj a_j / |a_j|, at any point c whose active hyperplane
        set is `act`. A sign commutes with the division, so each row is
        bit-equal to the signed row divided by its own norm."""
        act = list(act)
        return self._signs[k, act, None] * self._unit_A[act]


def eval_with_active(h: PLQFunction, c) -> ActiveProfile:
    """Value of h at c with the active pieces and active hyperplanes.

    Raises RepresentationError when two active pieces disagree in value
    beyond VALUE_TOL * (1 + |value|).
    """
    c = as_vector(c, h.m, "c")
    active, act_set = active_structure(h, c)
    if not active:
        return ActiveProfile(PLUS_INF, (), (), 0, None)
    vals = [h.piece_value(k, c) for k in active]
    v0 = vals[0]
    for k, v in zip(active, vals):
        if abs(v - v0) > VALUE_TOL * (1.0 + abs(v0)):
            raise RepresentationError(
                f"active pieces {active[0]} and {k} disagree in value: {v0} vs {v}")
    return ActiveProfile(ExtReal.finite(v0), active, act_set, len(active), len(act_set))


def active_structure(h: PLQFunction, c) -> tuple[tuple, tuple]:
    """(active pieces, active hyperplanes) of h at c, as `eval_with_active`
    reports them, without evaluating h: with r = A c - alpha, piece k is
    active when signs_k r <= tol and hyperplane j when |r_j| <= tol, for
    tol = ACT_TOL (1 + |alpha|)."""
    r = h.residuals(c)
    return (tuple((h._signs * r <= h._act_tol).all(axis=1).nonzero()[0].tolist()),
            tuple((np.abs(r) <= h._act_tol).nonzero()[0].tolist()))


def pieces_active(h: PLQFunction, pieces, c):
    """Whether piece pieces[i] is active at c[i], for a stack c of points:
    the test and tolerance of `active_structure`, signs_k (A c - alpha) <=
    ACT_TOL (1 + |alpha|)."""
    r = (h._A @ c[:, :, None])[:, :, 0] - h._alpha
    return np.all(h._signs[pieces] * r <= h._act_tol, axis=1)


def finite_value(h: PLQFunction, c) -> float:
    prof = eval_with_active(h, c)
    if not prof.is_finite:
        raise DomainError("point is outside dom h")
    return prof.value.value


# -- validation -------------------------------------------------------------


@dataclass
class ValidationReport:
    piece_feasible: list = field(default_factory=list)
    continuity: list = field(default_factory=list)        # (k1, k2, max residual)
    continuity_failures: list = field(default_factory=list)
    convexity_violations: list = field(default_factory=list)
    facet_jumps: list = field(default_factory=list)       # (k1, k2, min derivative jump)
    curvature_violations: list = field(default_factory=list)
    qq_range_checks: list = field(default_factory=list)   # ((k1, k2), max distance)
    qq_range_failures: list = field(default_factory=list)
    interior_overlaps: list = field(default_factory=list)
    messages: list = field(default_factory=list)
    all_pass: bool = True
    # Lower-dimensional domains are accepted but the kink certificate theory
    # assumes a full-dimensional domain; reports carry this flag so downstream
    # certificates can mark themselves unsupported.
    full_dimensional: bool = True

    def to_dict(self):
        return {
            "full_dimensional": bool(self.full_dimensional),
            "piece_feasible": list(map(bool, self.piece_feasible)),
            "continuity": [(int(a), int(b), float(r)) for a, b, r in self.continuity],
            "continuity_failures": [(int(a), int(b), float(r)) for a, b, r in self.continuity_failures],
            "convexity_violations": [float(v) for v in self.convexity_violations],
            "facet_jumps": [(int(a), int(b), float(v)) for a, b, v in self.facet_jumps],
            "curvature_violations": [float(v) for v in self.curvature_violations],
            "qq_range_checks": [(list(map(int, s)), float(d)) for s, d in self.qq_range_checks],
            "qq_range_failures": [(list(map(int, s)), float(d)) for s, d in self.qq_range_failures],
            "interior_overlaps": [(int(a), int(b)) for a, b in self.interior_overlaps],
            "messages": list(self.messages),
            "all_pass": bool(self.all_pass),
        }


def _face(h: PLQFunction, memo, eq, signs):
    """(x, T, rows, t) of the face where the hyperplanes `eq` hold with
    equality and signs_j (<a_j, c> - alpha_j) <= 0 for every other j, or None
    when it is empty: x is a relative-interior point, T = `_face_basis(h, x)`,
    rows = (F, f, E, e) give the face as F c <= f, E c = e, and t is the
    depth of its max-slack LP (capped at 4.0), one per face and `memo`. At a
    depth of at most 1e-9, the rows that a support LP shows to hold with
    equality on the whole face join E and the LP runs again (Schrijver,
    *Theory of Linear and Integer Programming*, 1986, §8.2)."""
    off = [j for j in range(h.n_hyperplanes) if j not in eq]
    key = (eq, tuple(signs[off]))
    if key not in memo:
        F, f, E, e = signs[off, None] * h._A[off], signs[off] * h._alpha[off], \
            h._A[list(eq)], h._alpha[list(eq)]
        x, t = max_slack_point(F, f, E=E, e=e, cap=4.0)
        if x is not None and -1e-9 <= t <= 1e-9:
            nrm, imp = np.linalg.norm(F, axis=1), np.zeros(f.size, dtype=bool)
            for i in np.flatnonzero(f - F @ x <= 1e-6 * nrm * (1.0 + np.linalg.norm(x))):
                val = support_value(-F[i], F, f, E, e)[0]  # -(min of F_i c)
                imp[i] = val is not None and val <= 1e-9 * nrm[i] - f[i]
            if imp.any():
                F, f, E, e = F[~imp], f[~imp], np.vstack([E, F[imp]]), np.r_[e, f[imp]]
                y = max_slack_point(F, f, E=E, e=e, cap=4.0)[0]
                x = x if y is None else y
        memo[key] = None if x is None or t < -1e-9 else (x, _face_basis(h, x), (F, f, E, e), t)
    return memo[key]


def _face_basis(h: PLQFunction, x):
    """Orthonormal basis (columns) of the directions along every hyperplane
    active at x; the identity when none is."""
    act = active_structure(h, x)[1]
    return nullspace_basis(h._A[list(act)]) if act else np.eye(h.m)


def _facet_jump(h: PLQFunction, k1, k2, facet, x2):
    """Minimum over the facet (a `_face`) of nu . (grad f_k2 - grad f_k1), the
    jump of the derivative along the unit normal nu into k2, whose point is
    x2; -inf when unbounded below."""
    x, T, rows, _ = facet
    nu = (x2 - x) - T @ (T.T @ (x2 - x))
    nu = nu / np.linalg.norm(nu)
    dQ, db = h.pieces[k2].Q - h.pieces[k1].Q, h.pieces[k2].b - h.pieces[k1].b
    g = dQ @ nu
    # Constant along the facet (so always when Q_k1 = Q_k2): no LP, which
    # could read rounding noise on an unbounded facet as a slope.
    if np.max(np.abs(T.T @ g), initial=0.0) > 1e-12 * (1.0 + np.max(np.abs(dQ))):
        val, z = support_value(-g, *rows)
        if val == np.inf:
            return -np.inf
        x = x if z is None else z
    return float(nu @ (dQ @ x + db))


def _domain_failure(h: PLQFunction, memo, points, top, d):
    """Why dom h is not convex, or None. Every piece must lie in the flat of
    the top pieces and inside each boundary facet C_k n H_j of a top piece k
    (a (d-1)-face where no top piece across H_j is active); a piece takes a
    side of every hyperplane, so its relative-interior point decides."""
    x0, T0 = points[top[0]]
    for k, (x, T) in points.items():
        v = x - x0
        if d < h.m and (np.linalg.norm(v - T0 @ (T0.T @ v)) > ACT_TOL * (1 + np.linalg.norm(x))
                        or np.linalg.norm(T - T0 @ (T0.T @ T)) > 1e-9):
            return f"piece {k} leaves the flat of the {d}-dimensional pieces"
    for k in top:
        act = active_structure(h, points[k][0])[1]
        for j in [j for j in range(h.n_hyperplanes) if j not in act]:
            face = _face(h, memo, (j,), h._signs[k])
            w, tol = h._signs[k, j] * h._A[j], h._signs[k, j] * h._alpha[j] + h._act_tol[j]
            if face is None or face[1].shape[1] != d - 1 or any(
                    i in top and w @ points[i][0] > tol for i in active_structure(h, face[0])[0]):
                continue
            for k2, (x, _) in points.items():
                if w @ x > tol:
                    return f"piece {k2} crosses the boundary facet of piece {k} on hyperplane {j}"


def validate_representation(h: PLQFunction) -> ValidationReport:
    """Exact checks of the representation invariants; no random draw.

    Each runs on a face basis T (`_face_basis`) at a relative-interior point
    of a face (`_face`): per piece, feasibility and curvature (T^T Q_k T >= 0);
    per pair that meets, at the point x of their common face, continuity
    (value and T^T gradient gaps) and the range condition
    T^T (Q_k1 - Q_k2) T = 0, so the two quadratics agree on x + span(T).
    Given these, h is convex exactly when dom h is (`_domain_failure`) and
    the derivative does not drop across a facet that two top pieces (of the
    largest dimension d) share: `_facet_jump` >= -VALUE_TOL (1 + |T^T grad
    f_k1(x)|), as a generic segment of dom h meets no other face. Pieces
    k1 < k2 overlap when their sign vectors are equal (else a hyperplane
    separates them) and k1 has interior depth t > 1e-9.
    """
    rep, memo, points, depth = ValidationReport(), {}, {}, {}
    for k in range(h.n_pieces):
        face = _face(h, memo, (), h._signs[k])
        rep.piece_feasible.append(face is not None)
        if face is None:
            rep.messages.append(f"piece {k} is empty")
        else:
            points[k], depth[k] = face[:2], face[3]
    rep.all_pass = all(rep.piece_feasible)
    if not points:
        rep.messages.append("dom h is empty")
        rep.all_pass = rep.full_dimensional = False
        return rep
    rep.full_dimensional = max(depth.values()) > 1e-9
    if not rep.full_dimensional:
        rep.messages.append(
            "dom h appears lower-dimensional; kink certificates are outside the supported theory")
    d = max(T.shape[1] for _, T in points.values())
    top = [k for k, (_, T) in points.items() if T.shape[1] == d]

    # Curvature of each piece along its face, at its relative-interior point.
    for k, (_, T) in points.items():
        Q = h.pieces[k].Q
        lam = float(np.linalg.eigvalsh(T.T @ Q @ T)[0]) if T.shape[1] else 0.0
        if lam < -1e-10 * max(1.0, float(np.max(np.abs(Q)))):
            rep.curvature_violations.append(lam)
            rep.messages.append(f"piece {k}: negative curvature {lam:g} on a parallel direction")
            rep.all_pass = False

    # Continuity and the Q-difference range condition on each common face,
    # and the derivative jump across each facet of two top pieces.
    for k1, k2 in itertools.combinations(points, 2):
        face = _face(h, memo, tuple(np.flatnonzero(h._signs[k1] != h._signs[k2]).tolist()),
                     h._signs[k1])
        if face is None:
            continue
        x, T, _, _ = face
        v1, g1 = h.piece_value(k1, x), T.T @ h.piece_gradient(k1, x)
        gap = max(abs(v1 - h.piece_value(k2, x)) / (1.0 + abs(v1)), float(
            np.linalg.norm(g1 - T.T @ h.piece_gradient(k2, x)) / (1.0 + np.linalg.norm(g1))))
        rep.continuity.append((k1, k2, gap))
        if gap > VALUE_TOL:
            rep.continuity_failures.append((k1, k2, gap))
            rep.messages.append(f"pieces {k1},{k2}: boundary value mismatch {gap:g}")
            rep.all_pass = False

        Q1, Q2 = h.pieces[k1].Q, h.pieces[k2].Q
        dist = float(np.max(np.linalg.norm(T.T @ (Q1 - Q2) @ T, axis=0), initial=0.0)
                     / (1.0 + max(np.max(np.abs(Q1)), np.max(np.abs(Q2)))))
        rep.qq_range_checks.append(((k1, k2), dist))
        if dist > 1e-9:
            rep.qq_range_failures.append(((k1, k2), dist))
            rep.messages.append(
                f"pieces {(k1, k2)}: quadratic-difference range condition fails ({dist:g})")
            rep.all_pass = False

        if k1 in top and k2 in top and T.shape[1] == d - 1:
            jump = _facet_jump(h, k1, k2, face, points[k2][0])
            rep.facet_jumps.append((k1, k2, jump))
            if jump < -VALUE_TOL * (1.0 + np.linalg.norm(g1)):
                rep.convexity_violations.append(jump)
                rep.messages.append(f"pieces {k1},{k2}: derivative jump {jump:g} across the facet")
                rep.all_pass = False

    why = _domain_failure(h, memo, points, top, d)
    if why:
        rep.convexity_violations.append(np.inf)
        rep.messages.append(f"dom h is not convex: {why}")
        rep.all_pass = False

    # Interior disjointness, decided by the sign vectors (see the docstring).
    for k1, k2 in itertools.combinations(points, 2):
        if depth[k1] > 1e-9 and np.array_equal(h._signs[k1], h._signs[k2]):
            rep.interior_overlaps.append((k1, k2))
            rep.messages.append(f"pieces {(k1, k2)}: interiors overlap")
            rep.all_pass = False
    return rep
