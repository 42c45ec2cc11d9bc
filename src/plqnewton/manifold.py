"""Active-manifold structure of a PLQ function at a point of its domain.

At a point cbar shared by kbar >= 1 pieces, the manifold is the relative
interior of the intersection of the active pieces: the common active
hyperplanes hold with equality, every other constraint of every active piece
strictly. The matrix A stacks the active constraint gradients of the
reference piece (the last active piece, so its sign matrix is the identity);
the diagonal sign matrices P_j relate the other pieces' gradients through
A P_j. Nondegeneracy means A has full column rank, which makes the block
multiplier mu(c, y) unique. With one active piece the manifold is that
piece's face: A holds its ell >= 0 active gradients (the active constraints
of a nonlinear program), P = (ones,), and the one block is the Lagrange
multiplier of those constraints; with ell = 0 it is an open piece.

Partial smoothness is certified by nondegeneracy, k-strict complementarity
and the parallel-subspace identity, decided in closed form from the block
multiplier with no LP (the identification setting of Lewis, "Active sets,
nonsmoothness, and sensitivity", SIAM J. Optim. 2002).

ManifoldData is immutable and the operations are pure, so concurrent use is
safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, MembershipError, PreconditionError, RepresentationError
from .numerics import as_vector, freeze_array, matrix_rank_rel
from .plq import ActiveProfile, PLQFunction, active_structure, eval_with_active

# Strictness threshold on multiplier entries.
SC_TOL = 1e-8
# Reconstruction tolerance for the block multiplier identity.
RECON_TOL = 1e-10


@dataclass(frozen=True)
class ManifoldData:
    h: PLQFunction
    base_point: np.ndarray
    active_pieces: tuple          # ascending piece indices, k_bar of them
    active_hyperplanes: tuple     # ascending hyperplane indices, ell of them
    A: np.ndarray                 # m x ell, reference-piece active gradients
    P: tuple                      # k_bar diagonal sign vectors (length ell)
    nondegenerate: bool
    stacked: tuple                # (Q_j, b_j, A P_j) of the active pieces, leading axis k_bar

    def __post_init__(self):
        object.__setattr__(self, "base_point", freeze_array(self.base_point))
        # A, P and the stacks are h-only data that build_manifold_at makes
        # once per structure and shares: mark them read-only without copying.
        for a in (self.A, *self.P, *self.stacked):
            a.setflags(write=False)

    @property
    def kbar(self) -> int:
        return len(self.active_pieces)

    @property
    def ell(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def matches(self, pieces: tuple, hyperplanes: tuple) -> bool:
        """Whether a point with these active pieces and active hyperplanes
        (as `eval_with_active` and `active_structure` give them) lies on the
        manifold: both are the manifold's. Under ACT_TOL this is equality on
        the manifold's hyperplanes and strict slack on every other
        constraint of every active piece."""
        return (pieces, hyperplanes) == (self.active_pieces, self.active_hyperplanes)

    def mu_projection(self, c, y):
        """(blocks, residuals), stacked over the active pieces j: the residual
        r_j = y - Q_j c - b_j and its block P_j (A^T A)^{-1} A^T r_j, with
        one batched solve on A^T A."""
        Qs, bs, _ = self.stacked
        resids = y - (Qs @ c[:, None])[:, :, 0] - bs
        Atr = self.A.T @ resids[:, :, None]
        blocks = np.array(self.P) * np.linalg.solve((self.A.T @ self.A)[None], Atr)[:, :, 0]
        return blocks, resids

    def to_dict(self):
        return {
            "base_point": self.base_point.tolist(),
            "active_pieces": list(map(int, self.active_pieces)),
            "active_hyperplanes": list(map(int, self.active_hyperplanes)),
            "A": self.A.tolist(),
            "P": [v.tolist() for v in self.P],
            "nondegenerate": bool(self.nondegenerate),
        }


@dataclass(frozen=True)
class MuVector:
    blocks: np.ndarray  # (k_bar, ell)

    def __post_init__(self):
        object.__setattr__(self, "blocks", freeze_array(np.atleast_2d(self.blocks)))

    @property
    def flat(self) -> np.ndarray:
        return self.blocks.reshape(-1)

    @property
    def min_entry(self) -> float:
        return float(np.min(self.blocks)) if self.blocks.size else np.inf


def build_manifold(h: PLQFunction, cbar) -> ManifoldData:
    """Manifold data at cbar, for any number of active pieces."""
    cbar = as_vector(cbar, h.m, "cbar")
    return build_manifold_at(h, eval_with_active(h, cbar), cbar)


def build_manifold_at(h: PLQFunction, prof: ActiveProfile, cbar) -> ManifoldData:
    """`build_manifold` at cbar, whose active profile is `prof`, so that a
    caller that has evaluated h at cbar does not evaluate it again."""
    if not prof.is_finite:
        raise DomainError("cbar is outside dom h")
    act = prof.active_set
    if prof.kbar >= 2 and not act:
        raise RepresentationError("two pieces active with no active hyperplane")
    pieces = tuple(sorted(prof.active_pieces))
    cached = h._manifold_cache.get((pieces, act))
    if cached is None:
        idx = list(act)
        A_all, _ = h.hyperplane_matrix()
        ref_signs = h.pieces[pieces[-1]].signs[idx]
        A = np.ascontiguousarray((ref_signs[:, None] * A_all[idx]).T)
        P = tuple(h.pieces[k].signs[idx] * ref_signs for k in pieces)
        stacked = (h._Q[list(pieces)], h._b[list(pieces)], A * np.array(P)[:, None])
        cached = h._manifold_cache.setdefault(
            (pieces, act), (A, P, matrix_rank_rel(A) == len(act), stacked))
    return ManifoldData(h, cbar, pieces, act, *cached)


def manifold_contains(md: ManifoldData, c) -> bool:
    """Whether c lies on the manifold: see `ManifoldData.matches`."""
    return md.matches(*active_structure(md.h, c))


def mu_of(md: ManifoldData, c, y) -> MuVector:
    """The unique block multiplier with y = grad_j(c) + A P_j mu_j for every
    active piece j. Requires nondegeneracy and c on the manifold."""
    if not md.nondegenerate:
        raise PreconditionError("degenerate A: block multipliers are not unique")
    c = as_vector(c, md.m, "c")
    y = as_vector(y, md.m, "y")
    if not manifold_contains(md, c):
        raise PreconditionError("c is not on the manifold")
    blocks, resids = md.mu_projection(c, y)
    recon = resids - (md.stacked[2] @ blocks[:, :, None])[:, :, 0]
    scale = 1.0 + float(np.linalg.norm(y))
    bad = np.flatnonzero(np.linalg.norm(recon, axis=1) > RECON_TOL * scale)
    if bad.size:
        raise MembershipError(
            f"y is not a subgradient at c: block {bad[0]} reconstruction residual "
            f"{np.linalg.norm(recon[bad[0]]):g}")
    mu = MuVector(blocks)
    if mu.min_entry < -1e-9:
        raise MembershipError(f"y is not a subgradient at c: negative multiplier {mu.min_entry:g}")
    return mu


@dataclass(frozen=True)
class StrictnessReport:
    ri_member: bool
    k_strict: bool
    mu: MuVector

    def to_dict(self):
        return {"ri_member": self.ri_member, "k_strict": self.k_strict,
                "mu": self.mu.blocks.tolist(), "mu_min": self.mu.min_entry}


def strictness_check(md: ManifoldData, c, y) -> StrictnessReport:
    """Relative-interior membership (all blocks positive) and the weaker
    k-strict complementarity."""
    mu = mu_of(md, c, y)
    blocks = mu.blocks
    ri_member = bool(np.all(blocks > SC_TOL))
    has_positive_block = (blocks > SC_TOL).all(axis=1).any()
    # An entry i at zero in some block needs P_j[i] = 1 for every active piece.
    zeros_ok = (np.array(md.P)[:, (blocks <= SC_TOL).any(axis=0)] == 1.0).all()
    k_strict = bool(has_positive_block and zeros_ok)
    return StrictnessReport(ri_member, k_strict, mu)


@dataclass(frozen=True)
class PartialSmoothnessCertificate:
    certified: bool
    nondegenerate: bool
    k_strict: bool | None
    ri_member: bool | None
    zeta_realizable: tuple | None  # per basis vector of the block nullspace
    parallel_identity: bool | None
    mu_margins: tuple | None
    reasons: tuple
    strictness: StrictnessReport | None = field(default=None, compare=False)  # not reported

    def to_dict(self):
        return {
            "certified": self.certified,
            "nondegenerate": self.nondegenerate,
            "k_strict": self.k_strict,
            "ri_member": self.ri_member,
            "zeta_realizable": None if self.zeta_realizable is None else list(self.zeta_realizable),
            "parallel_identity": self.parallel_identity,
            "mu_margins": None if self.mu_margins is None else list(self.mu_margins),
            "reasons": list(self.reasons),
        }


def _zeta_realizable(P, blocks) -> tuple:
    """Per p, whether zeta_p = (P_j e_p)_j, a basis vector of the nullspace of
    the block system (Q_j c + b_j + A P_j mu_j equal for every active piece
    j), is a difference of two nonnegative solutions, given one solution
    `blocks` = mu >= 0. The solutions are mu + (P_j w)_j, so w_p must lie in
    [max_{P_j[p]=+1} -mu_jp, min_{P_j[p]=-1} mu_jp], and zeta_p is realizable
    exactly when that interval is longer than 1e-9. k-strictness makes every
    such interval longer than 2 SC_TOL, so wherever
    `certify_partial_smoothness` asks, the answer is True up to rounding.
    """
    signs = np.array(P)
    lo = np.max(np.where(signs > 0, -blocks, -np.inf), axis=0)
    hi = np.min(np.where(signs < 0, blocks, np.inf), axis=0)
    return tuple(bool(v) for v in hi - lo > 1e-9)


def certify_partial_smoothness(md: ManifoldData, c, y) -> PartialSmoothnessCertificate:
    """Certificate that the function is partly smooth relative to the manifold,
    checked at (c, y): nondegeneracy plus k-strict complementarity. When
    certified, the parallel-subspace identity is verified through the
    realizability of each nullspace basis vector, read from the block
    multiplier of the strictness report. `strictness` keeps the
    report it rests on (None when the check raised: the reason says why)."""
    if not md.nondegenerate:
        return PartialSmoothnessCertificate(False, False, None, None, None, None, None,
                                            ("degenerate A",))
    try:
        report = strictness_check(md, c, y)
    except (PreconditionError, MembershipError) as err:
        return PartialSmoothnessCertificate(False, True, None, None, None, None, None,
                                            (str(err),))
    margins = tuple(float(v) for v in report.mu.flat)
    if not report.k_strict:
        return PartialSmoothnessCertificate(False, True, False, report.ri_member, None, None,
                                            margins, ("k-strict complementarity fails",), report)
    realizable = _zeta_realizable(md.P, report.mu.blocks)
    parallel = all(realizable)
    reasons = () if parallel else ("parallel-subspace identity failed the realizability check",)
    return PartialSmoothnessCertificate(bool(parallel), True, True, report.ri_member,
                                        realizable, parallel, margins, reasons, report)
