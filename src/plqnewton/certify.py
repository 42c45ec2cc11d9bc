"""Second-order sufficiency and strong-metric-subregularity certificates.

The reduced curvature check runs in one of two modes:

  certified-subspace: nondegeneracy and strict criticality pin the non-ascent
      cone down to the subspace Null(A^T Jac), so positive definiteness of
      each active piece's reduced matrix Z^T (Jac^T Q_j Jac + H) Z certifies
      sufficiency. This holds for any number of active pieces: with one, it
      is the second-order condition of a nonlinear program on the critical
      subspace of its active constraints. Inside a piece (no active
      hyperplane) the non-ascent set is all of R^n and Z = I_n, with or
      without strict criticality. The minimum eigenvalues come from the
      solver's `reduced_min_eigs`, the check its model monitors use, here
      against PD_TOL.
  heuristic-sampled: without those qualifications the non-ascent set is a
      union of cones; curvature is sampled on its extreme rays (enumerated for
      small dimension) and random conic combinations. This mode never
      certifies, it only reports evidence.

All checks at xbar read one `PointAnalysis` (see composite): `certify_point`
hands it, with the manifold data at c(xbar), from the multiplier test to the
sufficiency check, and the CLI's certify report reads the same two.
`restricted_kkt_matrix` exposes the matrix of a restricted Newton step, as
assembled by the solver's `kkt_matrix`. The module needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import cone_generators, dir_deriv_second_at
from .composite import CompositeProblem, PointAnalysis, analyze_point
from .errors import PreconditionError
from .manifold import ManifoldData, build_manifold_at
from .numerics import as_vector, matrix_rank_rel, nullspace_basis
from .solver import kkt_matrix, reduced_min_eigs

# Positive-definiteness threshold on reduced eigenvalues.
PD_TOL = 1e-8
# KKT residual threshold for "is a stationary pair".
STATIONARY_TOL = 1e-6
# Extreme-ray enumeration is exact up to this many primal dimensions.
ENUM_DIM_LIMIT = 6


@dataclass(frozen=True)
class SOSCReport:
    mode: str                 # "certified-subspace" | "heuristic-sampled"
    subspace_dim: int | None
    piece_min_eigs: tuple     # (piece index, min eigenvalue) per active piece
    sampled_min: float | None
    passed: bool

    def to_dict(self):
        return {"mode": self.mode, "subspace_dim": self.subspace_dim,
                "piece_min_eigs": [(int(k), None if v is None else float(v))
                                   for k, v in self.piece_min_eigs],
                "sampled_min": None if self.sampled_min is None else float(self.sampled_min),
                "passed": bool(self.passed)}


@dataclass(frozen=True)
class SubregularityCertificate:
    m_singleton: bool
    sosc: SOSCReport | None
    conclusion: str           # "strongly-metrically-subregular" | "not-certified"
    reasons: tuple = ()

    def to_dict(self):
        return {"m_singleton": self.m_singleton,
                "sosc": None if self.sosc is None else self.sosc.to_dict(),
                "conclusion": self.conclusion,
                "reasons": list(self.reasons)}


def certify_sosc(p: CompositeProblem, xbar, ybar, md: ManifoldData | None = None) -> SOSCReport:
    """Reduced second-order sufficiency at a stationary pair (xbar, ybar)."""
    return _sosc(analyze_point(p, xbar), ybar, md)


def _sosc(pa: PointAnalysis, ybar, md: ManifoldData | None) -> SOSCReport:
    """`certify_sosc` at an analyzed point; md, when None, is built here."""
    p, prof, jac = pa.p, pa.prof, pa.jac
    ybar = as_vector(ybar, p.m, "ybar")
    res = pa.kkt_residual(ybar)
    scale = 1.0 + float(np.linalg.norm(ybar))
    if not (res.stationarity <= STATIONARY_TOL * scale and res.subdiff_violation <= STATIONARY_TOL * scale):
        raise PreconditionError(
            f"(xbar, ybar) is not stationary: residual ({res.stationarity:g}, {res.subdiff_violation:g})")
    H = p.c.weighted_hessian(pa.x, ybar)

    if md is None:
        md = build_manifold_at(p.h, prof, pa.cx)
    # Inside one piece (no active hyperplane) the non-ascent set is all of
    # R^n, which is Null(A^T Jac) for the m x 0 matrix A, whatever sc says.
    if md.nondegenerate and (md.ell == 0 or pa.cqs.sc):
        Z = nullspace_basis(md.A.T @ jac)
        eigs = reduced_min_eigs(Z, jac, H, [md.piece(j).Q for j in range(md.kbar)])
        eigs = [None] * md.kbar if eigs is None else eigs
        passed = all(v > PD_TOL for v in eigs if v is not None)
        return SOSCReport("certified-subspace", Z.shape[1],
                          tuple(zip(md.active_pieces, eigs)), None, bool(passed))

    # Heuristic: sample the union-of-cones non-ascent set. Every direction
    # reads the one profile of h at c(xbar) and its cached tangent rows.
    worst = None
    for d in _nonascent_directions(pa):
        h2 = dir_deriv_second_at(p.h, prof, jac @ d)
        if h2.is_inf:
            continue
        val = h2.value + d @ H @ d
        worst = val if worst is None else min(worst, val)
    passed = worst is None or worst > PD_TOL
    return SOSCReport("heuristic-sampled", None, (), worst, bool(passed))


def _nonascent_directions(pa: PointAnalysis, samples=1000):
    """Unit directions in the non-ascent set: per-piece extreme rays when the
    dimension is small, plus random conic combinations."""
    p, jac = pa.p, pa.jac
    rng = np.random.default_rng(0)
    out = []
    per_piece = []
    for k in pa.prof.active_pieces:
        rows = [p.h.pieces[k].signs[j] * p.h.hyperplane_matrix()[0][j] @ jac
                for j in pa.prof.active_set]
        rows.append((p.h.piece_gradient(k, pa.cx)) @ jac)
        B = np.array(rows).reshape(len(rows), p.n)
        if p.n <= ENUM_DIM_LIMIT:
            rays, lin = cone_generators(B)
        else:
            rays, lin = [], []
        per_piece.append((B, rays, lin))
        for r in rays:
            out.append(r)
        for l in lin:
            out.append(l)
            out.append(-l)
    budget = max(0, samples - len(out))
    per = budget // max(1, len(per_piece))
    for B, rays, lin in per_piece:
        for _ in range(per):
            d = np.zeros(p.n)
            for r in rays:
                d = d + rng.uniform(0, 1) * r
            for l in lin:
                d = d + rng.standard_normal() * l
            if not rays and not lin:
                cand = rng.standard_normal(p.n)
                if np.all(B @ cand <= 1e-12):
                    d = cand
            nd = np.linalg.norm(d)
            if nd > 1e-12:
                out.append(d / nd)
    return out


def certify_subregularity(p: CompositeProblem, xbar) -> SubregularityCertificate:
    """Combine multiplier uniqueness with reduced sufficiency."""
    return certify_point(analyze_point(p, xbar), None)


def certify_point(pa: PointAnalysis, md: ManifoldData | None) -> SubregularityCertificate:
    """`certify_subregularity` at an analyzed point, with the manifold data
    at c(xbar) when the caller has built it (None: built when needed)."""
    mult = pa.multipliers
    if not pa.cqs.bcq:
        return SubregularityCertificate(False, None, "not-certified",
                                        ("bcq fails at xbar",))
    if mult.status == "empty":
        return SubregularityCertificate(False, None, "not-certified",
                                        ("no multipliers: xbar is not stationary",))
    single = mult.status == "singleton"
    reasons = [] if single else ["multiplier set is not a singleton"]
    y = mult.y if single else mult.polyhedron.ri_point()[0]
    sosc = None
    try:
        sosc = _sosc(pa, y, md)
        if not sosc.passed:
            reasons.append("reduced second-order sufficiency fails")
        elif sosc.mode == "heuristic-sampled" and single:
            reasons.append("sufficiency evidence is heuristic only")
    except PreconditionError as err:
        reasons.append(str(err))
    certified = single and sosc is not None and sosc.passed and sosc.mode == "certified-subspace"
    return SubregularityCertificate(
        single, sosc, "strongly-metrically-subregular" if certified else "not-certified",
        tuple(reasons))


def restricted_kkt_matrix(p: CompositeProblem, md: ManifoldData, x, y, j):
    """The (n + m + ell) square system matrix of the j-th restricted step.

    Returns (matrix, nonsingular), judged by the relative rank test
    `numerics.matrix_rank_rel`.
    """
    if not md.nondegenerate:
        raise PreconditionError("degenerate A")
    x = as_vector(x, p.n, "x")
    y = as_vector(y, p.m, "y")
    _, jac, H = p.c.evaluate(x, y)
    M = kkt_matrix(H, jac, md.piece(j).Q, md.AP(j), md.A.T @ jac)
    return M, matrix_rank_rel(M) == M.shape[0]
