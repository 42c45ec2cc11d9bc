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
the one active set. Each function caches what depends on h alone, filled on
first use: the unit tangent-cone rows of piece k for each active hyperplane
set (and, through `calculus`, the cone's generators), and each piece's
interior point.

Instances are immutable after construction: the caches are plain dicts set in
`__post_init__`, not dataclass fields, so equality is unchanged. Filling an
entry is idempotent (two threads computing it store equal values), so
concurrent reads are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError, RepresentationError
from .numerics import ExtReal, PLUS_INF, as_vector, freeze_array, nullspace_basis
from .simplex import max_slack_point

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
        object.__setattr__(self, "_alpha", freeze_array(alph))
        object.__setattr__(self, "_act_tol", freeze_array(ACT_TOL * (1.0 + np.abs(alph))))
        signs = np.array([p.signs for p in pcs], dtype=float).reshape(len(pcs), s)
        object.__setattr__(self, "_signs", freeze_array(signs))
        # h-only data, filled on first use: (k, active set) -> unit tangent
        # rows; (k, active set) -> tangent-cone generators (see calculus);
        # (k, cap) -> piece interior point; (active pieces, active set) ->
        # the manifold's A, P and nondegeneracy (see manifold).
        object.__setattr__(self, "_tangent_cache", {})
        object.__setattr__(self, "_cone_cache", {})
        object.__setattr__(self, "_interior_cache", {})
        object.__setattr__(self, "_manifold_cache", {})

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

    def piece_contains(self, k, c) -> bool:
        return bool(np.all(self._signs[k] * self.residuals(c) <= self._act_tol))

    def piece_value(self, k, c) -> float:
        c = as_vector(c, self.m, "c")
        p = self.pieces[k]
        return float(0.5 * c @ (p.Q @ c) + p.b @ c + p.beta)

    def piece_gradient(self, k, c) -> np.ndarray:
        c = as_vector(c, self.m, "c")
        p = self.pieces[k]
        return p.Q @ c + p.b

    def active_hyperplane_set(self, c) -> tuple:
        r = self.residuals(c)
        return tuple(int(j) for j in np.flatnonzero(np.abs(r) <= self._act_tol))

    def tangent_rows_at(self, k, act) -> np.ndarray:
        """Rows B with T(c | C_k) = {v : B v <= 0}, the unit-normalized active
        gradients, at any point c whose active hyperplane set is `act`;
        cached per (k, act) and read-only."""
        rows = self._tangent_cache.get((k, act))
        if rows is None:
            if act:
                rows = np.array([self._signs[k, j] * self._A[j] for j in act])
                rows = rows / np.linalg.norm(rows, axis=1)[:, None]
            else:
                rows = np.zeros((0, self.m))
            rows = self._tangent_cache.setdefault((k, act), freeze_array(rows))
        return rows


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


def value(h: PLQFunction, c) -> ExtReal:
    return eval_with_active(h, c).value


def finite_value(h: PLQFunction, c) -> float:
    prof = eval_with_active(h, c)
    if not prof.is_finite:
        raise DomainError("point is outside dom h")
    return prof.value.value


# -- sampling helpers (used by validation and by tests) --------------------


def piece_interior_point(h: PLQFunction, k, cap=4.0):
    """A point of maximal uniform slack inside piece k; (None, None) when empty.
    The LP runs once per (k, cap); each call returns a fresh copy."""
    found = h._interior_cache.get((k, cap))
    if found is None:
        B, g = h.piece_rows(k)
        if B.shape[0] == 0:
            x, t = np.zeros(h.m), cap
        else:
            x, t = max_slack_point(B, g, cap=cap)
            if x is None or t < -1e-9:
                x, t = None, None
        found = h._interior_cache.setdefault((k, cap), (x, t))
    x, t = found
    return (None, None) if x is None else (x.copy(), t)


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


# -- validation -------------------------------------------------------------


@dataclass
class ValidationReport:
    piece_feasible: list = field(default_factory=list)
    continuity: list = field(default_factory=list)        # (k1, k2, max residual)
    continuity_failures: list = field(default_factory=list)
    convexity_violations: list = field(default_factory=list)
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
            "curvature_violations": [float(v) for v in self.curvature_violations],
            "qq_range_checks": [(list(map(int, s)), float(d)) for s, d in self.qq_range_checks],
            "qq_range_failures": [(list(map(int, s)), float(d)) for s, d in self.qq_range_failures],
            "interior_overlaps": [(int(a), int(b)) for a, b in self.interior_overlaps],
            "messages": list(self.messages),
            "all_pass": bool(self.all_pass),
        }


def _pair_intersection_point(h: PLQFunction, k1, k2):
    """Relative-interior point of C_k1 n C_k2, or None. Sign conflicts force equality."""
    s1, s2 = h.pieces[k1].signs, h.pieces[k2].signs
    A, alpha = h.hyperplane_matrix()
    eq_idx = [j for j in range(h.n_hyperplanes) if s1[j] != s2[j]]
    in_idx = [j for j in range(h.n_hyperplanes) if s1[j] == s2[j]]
    E = A[eq_idx] if eq_idx else None
    e = alpha[eq_idx] if eq_idx else None
    if in_idx:
        F = s1[in_idx, None] * A[in_idx]
        f = s1[in_idx] * alpha[in_idx]
    else:
        F = np.zeros((1, h.m))
        f = np.ones(1)
    x, t = max_slack_point(F, f, E=E, e=e, cap=4.0)
    if x is None or t < -1e-9:
        return None
    return x


def _face_basis(h: PLQFunction, x):
    """Orthonormal basis (columns) of the directions along every hyperplane
    active at x; the identity when none is."""
    act = h.active_hyperplane_set(x)
    return nullspace_basis(h._A[list(act)]) if act else np.eye(h.m)


def validate_representation(h: PLQFunction, probes: int, rng=None) -> ValidationReport:
    """Checks of the representation invariants; only midpoint convexity, on
    `probes` random segments of dom h drawn from `rng`, is sampled.

    The rest are exact, each on a face basis T (`_face_basis`): per piece,
    feasibility and curvature (T^T Q_k T >= 0 at its interior point); per
    pair that meets, at a point x of the common face, continuity (value and
    T^T gradient gaps) and the range condition T^T (Q_k1 - Q_k2) T = 0, so
    the two quadratics agree on x + span(T). Pieces k1 < k2 overlap when
    their sign vectors are equal (else a hyperplane separates them) and their
    common polyhedron has interior depth t > 1e-9 (the feasibility pass's t).
    """
    if probes < 1:
        raise PreconditionError("probes must be >= 1")
    rng = np.random.default_rng(42) if rng is None else rng
    rep = ValidationReport()

    inner = []
    for k in range(h.n_pieces):
        x, t = piece_interior_point(h, k)
        feas = x is not None
        rep.piece_feasible.append(feas)
        inner.append((x, t if feas else None))
        if not feas:
            rep.messages.append(f"piece {k} is empty")
    rep.all_pass = all(rep.piece_feasible)
    if not any(rep.piece_feasible):
        rep.messages.append("dom h is empty")
        rep.all_pass = rep.full_dimensional = False
        return rep
    rep.full_dimensional = any(t is not None and t > 1e-9 for _, t in inner)
    if not rep.full_dimensional:
        rep.messages.append(
            "dom h appears lower-dimensional; kink certificates are outside the supported theory")

    # Curvature of each piece along its face, at its interior point.
    for k in range(h.n_pieces):
        if not rep.piece_feasible[k]:
            continue
        Q, T = h.pieces[k].Q, _face_basis(h, inner[k][0])
        lam = float(np.linalg.eigvalsh(T.T @ Q @ T)[0]) if T.shape[1] else 0.0
        if lam < -1e-10 * max(1.0, float(np.max(np.abs(Q)))):
            rep.curvature_violations.append(lam)
            rep.messages.append(f"piece {k}: negative curvature {lam:g} on a parallel direction")
            rep.all_pass = False

    # Continuity and the Q-difference range condition on each common face.
    for k1 in range(h.n_pieces):
        for k2 in range(k1 + 1, h.n_pieces):
            if not (rep.piece_feasible[k1] and rep.piece_feasible[k2]):
                continue
            x = _pair_intersection_point(h, k1, k2)
            if x is None:
                continue
            T = _face_basis(h, x)
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

    # Midpoint convexity along random segments of dom h.
    for _ in range(probes):
        try:
            c1 = sample_domain_point(h, rng)
            c2 = sample_domain_point(h, rng)
        except DomainError:
            break
        mid = 0.5 * (c1 + c2)
        pm = eval_with_active(h, mid)
        if not pm.is_finite:
            rep.convexity_violations.append(np.inf)
            rep.messages.append("midpoint of two domain points left dom h (domain not convex)")
            rep.all_pass = False
            continue
        lhs = pm.value.value
        rhs = 0.5 * (finite_value(h, c1) + finite_value(h, c2))
        gap = lhs - rhs
        if gap > VALUE_TOL * (1.0 + abs(rhs)):
            rep.convexity_violations.append(gap)
            rep.all_pass = False
    if rep.convexity_violations and all(np.isfinite(rep.convexity_violations)):
        rep.messages.append(f"midpoint convexity violated, worst gap {max(rep.convexity_violations):g}")

    # Interior disjointness, decided by the sign vectors (see the docstring).
    for k1 in range(h.n_pieces):
        if inner[k1][1] is None or inner[k1][1] <= 1e-9:
            continue
        for k2 in range(k1 + 1, h.n_pieces):
            if np.array_equal(h._signs[k1], h._signs[k2]):
                rep.interior_overlaps.append((k1, k2))
                rep.messages.append(f"pieces {(k1, k2)}: interiors overlap")
                rep.all_pass = False
    return rep
