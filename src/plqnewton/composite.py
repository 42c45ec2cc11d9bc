"""Composite problems h(c(x)): multipliers, constraint qualifications, residuals.

The multiplier set at x is Null(Jac(x)^T) intersected with the subdifferential
of h at c(x). The three nested qualifications are checked as follows:

  tc:  Null(Jac^T) meets the subspace parallel to the subdifferential only
       at 0, decided by a rank test on the stacked bases;
  bcq: Null(Jac^T) meets the normal cone of dom h at c(x), the recession
       cone of the subdifferential, only at 0: implied by tc, else decided
       by double description on that cone restricted to Null(Jac^T);
  sc:  Null(Jac^T) meets the relative interior of the subdifferential in a
       single point, decided by an interior-slack LP plus the tc rank test.

The chain is computed once per point: `analyze_point` makes one first-order
sweep of c and one subdifferential, which `calculus.subdiff_hrep_at` stacks
with each facet once (2s rows at a crossing of s hyperplanes, though each of
the 2s facets belongs to 2^(s-1) of the 2^s active pieces), and
`qualification_chain` derives bcq, tc, sc and the multiplier set from that
nullspace and that polyhedron; callers read them as the analysis's `cqs`
and `multipliers`. The only state is the implicit-equality data a polyhedron
caches on first use; computing it is idempotent, so concurrent checks on one
problem are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import PolyhedronH, cone_generators, subdiff_hrep_at
from .errors import DomainError
from .exprmap import Linearization, SmoothMap
from .numerics import as_vector, matrix_rank_rel, nullspace_basis
from .plq import ActiveProfile, PLQFunction, eval_with_active

RI_SLACK = 1e-7


@dataclass(frozen=True)
class CompositeProblem:
    h: PLQFunction
    c: SmoothMap
    name: str = ""

    def __post_init__(self):
        if self.h.m != self.c.m:
            raise ValueError(f"h is over R^{self.h.m} but c maps into R^{self.c.m}")

    @property
    def n(self) -> int:
        return self.c.n

    @property
    def m(self) -> int:
        return self.c.m


@dataclass(frozen=True)
class MultiplierSet:
    polyhedron: PolyhedronH
    status: str  # "empty" | "singleton" | "nonsingleton"
    y: np.ndarray | None
    note: str = ""


@dataclass(frozen=True)
class CQReport:
    bcq: bool
    tc: bool
    sc: bool
    ybar: np.ndarray | None
    m_singleton: bool

    def __post_init__(self):
        if self.sc and not self.tc:
            raise ValueError("inconsistent report: sc without tc")
        if self.tc and not self.bcq:
            raise ValueError("inconsistent report: tc without bcq")
        if self.m_singleton and not self.bcq:
            raise ValueError("inconsistent report: singleton multiplier without bcq")

    def to_dict(self):
        return {"bcq": self.bcq, "tc": self.tc, "sc": self.sc,
                "ybar": None if self.ybar is None else list(map(float, self.ybar)),
                "m_singleton": self.m_singleton}


@dataclass(frozen=True)
class KKTResidual:
    stationarity: float
    subdiff_violation: float  # math.inf encodes c(x) outside dom h


@dataclass(frozen=True)
class PointAnalysis:
    """One point x, analyzed once: c(x) and jac = Jac c(x) from one
    first-order sweep, the subdifferential `sub` of h at c(x) with each
    facet once, and what `qualification_chain` derives from Null(jac^T) and
    `sub`."""

    p: CompositeProblem
    x: np.ndarray
    cx: np.ndarray
    prof: ActiveProfile
    jac: np.ndarray
    sub: PolyhedronH
    multipliers: MultiplierSet
    cqs: CQReport

    def kkt_residual(self, y) -> KKTResidual:
        """The residual of the pair (x, y), as `kkt_residual` computes it."""
        y = as_vector(y, self.p.m, "y")
        return KKTResidual(float(np.linalg.norm(self.jac.T @ y)), self.sub.violation(y))


def analyze_point(p: CompositeProblem, x) -> PointAnalysis:
    """The analysis of x, each link of the chain once; DomainError when c(x)
    lies outside dom h."""
    x = as_vector(x, p.n, "x")
    cx, jac, _ = p.c.evaluate(x)
    prof = eval_with_active(p.h, cx)
    if not prof.is_finite:
        raise DomainError("c(x) is outside dom h")
    sub = subdiff_hrep_at(p.h, prof, cx)
    mult, cqs = qualification_chain(sub, jac.T)
    return PointAnalysis(p, x, cx, prof, jac, sub, mult, cqs)


def qualification_chain(C: PolyhedronH, rows) -> tuple[MultiplierSet, CQReport]:
    """The multiplier set S n C and the qualifications of the subspace
    S = Null(rows) against a nonempty polyhedron C (at a point x: rows =
    Jac(x)^T and C the subdifferential at c(x)).

      tc:  S meets par C only at 0, by a rank test on the stacked bases;
      bcq: S meets rec C (the normal cone of dom h for a subdifferential)
           only at 0. True with tc, since rec C lies in par C; otherwise
           rec C n S = {B u : Fr B u <= 0} for a basis B of S n par C and
           the rows Fr of C that are not implicit equalities, and double
           description decides whether that cone is {0};
      sc:  S meets ri C, with interior slack at least RI_SLACK, and tc.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    N = nullspace_basis(rows)
    tc = _tc_from_bases(N, C.parallel_basis())
    bcq = tc
    if not tc:
        A, _, Fr, _ = C.hull_split
        rays, lin = cone_generators(Fr @ nullspace_basis(np.vstack([rows, A])))
        bcq = not rays and not lin

    zeros = np.zeros(rows.shape[0])
    poly = PolyhedronH(np.vstack([C.E, rows]), np.concatenate([C.e, zeros]), C.F, C.f)
    single, y = poly.is_singleton()
    status = "singleton" if single else "empty" if y is None else "nonsingleton"
    mult = MultiplierSet(poly, status, y if single else None,
                         "" if bcq else "unsupported-by-theory: bcq fails at x")

    ybar, depth = C.ri_slack(rows, zeros)
    sc = bool(ybar is not None and depth >= RI_SLACK and tc)
    # A strict-criticality point is the unique multiplier; prefer its exact value.
    cqs = CQReport(bcq=bcq, tc=tc, sc=sc, ybar=(mult.y if single else ybar) if sc else None,
                   m_singleton=single)
    return mult, cqs


def _tc_from_bases(N: np.ndarray, V: np.ndarray) -> bool:
    if N.shape[1] == 0 or V.shape[1] == 0:
        return True
    stacked = np.hstack([N, V])
    return matrix_rank_rel(stacked) == N.shape[1] + V.shape[1]


def kkt_residual(p: CompositeProblem, x, y, lin: Linearization | None = None) -> KKTResidual:
    """Stationarity norm and subdifferential violation of the primal-dual pair.

    `lin` is a linearization of c at x (from p.c.evaluate); without it one
    first-order sweep makes c(x) and its Jacobian.
    """
    x = as_vector(x, p.n, "x")
    y = as_vector(y, p.m, "y")
    cx, jac, _ = p.c.evaluate(x) if lin is None else lin
    stat = float(np.linalg.norm(jac.T @ y))
    prof = eval_with_active(p.h, cx)
    if not prof.is_finite:
        return KKTResidual(stat, math.inf)
    viol = subdiff_hrep_at(p.h, prof, cx).violation(y)
    return KKTResidual(stat, viol)
