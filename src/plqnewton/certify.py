"""Second-order sufficiency and strong-metric-subregularity certificates.

The reduced curvature check runs in one of two modes, both exact:

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
  certified-cone: otherwise each active piece k has the critical cone
      W_k = {d : B_k Jac d <= 0, <grad f_k(cbar), Jac d> <= 0}, with B_k its
      tangent rows, on which the second subderivative of h is
      (Jac d)^T Q_k (Jac d) (Rockafellar & Wets, Variational Analysis,
      ch. 13). Sufficiency holds exactly when each M_k = H + Jac^T Q_k Jac
      is strictly copositive on W_k = cone(G) + span(L): L^T M_k L is
      positive definite and the Schur complement S of M_k on the rays G has
      no principal submatrix with a positive eigenvector whose eigenvalue is
      at most PD_TOL (Kaplan, "A test for copositive matrices", Linear
      Algebra Appl. 2000). A piece's margin is the least eigenvalue of
      L^T M_k L when that fails, else the least eigenvalue with a positive
      eigenvector, which is the minimum of s^T S s over unit s >= 0. A cone
      with more than RAY_LIMIT rays is refused with a RegimeError.

All checks at xbar read one `PointAnalysis` (see composite): `certify_point`
hands it, with the manifold data at c(xbar), from the multiplier test to the
sufficiency check, and the CLI's certify report reads the same two.
No check draws a random number. The module needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .calculus import cone_generators
from .composite import CompositeProblem, PointAnalysis, analyze_point
from .errors import PreconditionError, RegimeError
from .manifold import ManifoldData, build_manifold_at
from .numerics import as_vector, nullspace_basis
from .solver import reduced_min_eigs

# Positive-definiteness threshold on reduced eigenvalues.
PD_TOL = 1e-8
# KKT residual threshold for "is a stationary pair".
STATIONARY_TOL = 1e-6
# The copositivity test reads every subset of a critical cone's rays, so a
# cone with more rays than this is refused.
RAY_LIMIT = 12


@dataclass(frozen=True)
class SOSCReport:
    mode: str                 # "certified-subspace" | "certified-cone"
    subspace_dim: int | None
    piece_min_eigs: tuple     # (piece index, deciding eigenvalue) per active piece
    passed: bool

    def to_dict(self):
        return {"mode": self.mode, "subspace_dim": self.subspace_dim,
                "piece_min_eigs": [(int(k), None if v is None else float(v))
                                   for k, v in self.piece_min_eigs],
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
        eigs = reduced_min_eigs(Z, jac, H, md.stacked[0])
        eigs = [None] * md.kbar if eigs is None else eigs
        passed = all(v > PD_TOL for v in eigs if v is not None)
        return SOSCReport("certified-subspace", Z.shape[1],
                          tuple(zip(md.active_pieces, eigs)), bool(passed))

    # Otherwise decide copositivity on each active piece's critical cone, read
    # from the one profile of h at c(xbar) and its tangent rows.
    margins = []
    for k in prof.active_pieces:
        rows = np.vstack([p.h.tangent_rows_at(k, prof.active_set),
                          p.h.piece_gradient(k, pa.cx)]) @ jac
        M = H + jac.T @ p.h.pieces[k].Q @ jac
        margins.append(_cone_margin(M, *cone_generators(rows)))
    passed = all(v > PD_TOL for v in margins if v is not None)
    return SOSCReport("certified-cone", None, tuple(zip(prof.active_pieces, margins)),
                      bool(passed))


def _cone_margin(M, rays, lin):
    """The deciding eigenvalue of d^T M d on cone(rays) + span(lin) (None for
    the cone {0}): the least eigenvalue of M on the lineality space when it is
    at most PD_TOL or there is no ray, else the least eigenvalue with a
    positive eigenvector of a principal submatrix of the Schur complement on
    the rays. The value is in generator coordinates (unit weights on the
    rays), so its scale depends on the angles between rays: compare it with
    PD_TOL only, not across pieces or with a subspace margin."""
    n = M.shape[0]
    G = np.reshape(rays, (len(rays), n)).T
    L = np.reshape(lin, (len(lin), n)).T
    S = G.T @ M @ G
    if lin:
        MLL = L.T @ M @ L
        lin_min = float(np.linalg.eigvalsh(MLL)[0])
        if lin_min <= PD_TOL or not rays:
            return lin_min
        MLG = L.T @ M @ G
        S = S - MLG.T @ np.linalg.solve(MLL, MLG)
    elif not rays:
        return None
    if len(rays) > RAY_LIMIT:
        raise RegimeError(f"the critical cone has {len(rays)} rays; "
                          f"copositivity is decided up to {RAY_LIMIT}")
    best = np.inf
    for size in range(1, len(rays) + 1):
        idx = np.array(list(combinations(range(len(rays)), size)))
        vals, vecs = np.linalg.eigh(S[idx[:, :, None], idx[:, None, :]])
        positive = np.all(vecs > 0, axis=1) | np.all(vecs < 0, axis=1)
        best = min(best, float(np.min(vals, initial=np.inf, where=positive)))
    return best


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
    except PreconditionError as err:
        reasons.append(str(err))
    certified = single and sosc is not None and sosc.passed
    return SubregularityCertificate(
        single, sosc, "strongly-metrically-subregular" if certified else "not-certified",
        tuple(reasons))

