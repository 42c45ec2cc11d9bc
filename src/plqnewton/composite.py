"""Composite problems h(c(x)): multipliers, constraint qualifications, residuals.

The multiplier set at x is Null(Jac(x)^T) intersected with the subdifferential
of h at c(x). The three nested qualifications are checked as follows:

  bcq: Null(Jac^T) meets the normal cone of dom h at c(x) only at 0, decided
       by feasibility LPs over the normal-cone generators restricted to a
       nullspace basis;
  tc:  Null(Jac^T) meets the subspace parallel to the subdifferential only
       at 0, decided by a rank test on the stacked bases;
  sc:  Null(Jac^T) meets the relative interior of the subdifferential in a
       single point, decided by an interior-slack LP plus the tc rank test.

The chain is computed once per point: `analyze_point` derives bcq, the
multiplier set and the CQReport from one first-order sweep of c, one
nullspace and one subdifferential; `bcq_holds`, `multiplier_set`, `check_cqs`
and `nonascent_contains` are thin entry points over it. The only state is the
implicit-equality mask a polyhedron caches on first use; computing it is
idempotent, so concurrent checks on one problem are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import PolyhedronH, dir_deriv_first, subdiff_hrep_at
from .errors import DomainError, PreconditionError
from .exprmap import Linearization, SmoothMap
from .numerics import as_vector, matrix_rank_rel, nullspace_basis
from .plq import ActiveProfile, PLQFunction, eval_with_active
from .simplex import feasible_point

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

    def objective(self, x):
        return eval_with_active(self.h, self.c.value(x)).value


@dataclass(frozen=True)
class MultiplierSet:
    polyhedron: PolyhedronH
    status: str  # "empty" | "singleton" | "nonsingleton"
    y: np.ndarray | None
    bcq_holds: bool
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

    @property
    def total(self) -> float:
        return max(self.stationarity, self.subdiff_violation)


@dataclass(frozen=True)
class PointAnalysis:
    """One point x, analyzed once: c(x) and jac = Jac c(x) from one
    first-order sweep, an orthonormal basis N of Null(jac^T), the
    subdifferential `sub` of h at c(x), and what `analyze_point` derives."""

    p: CompositeProblem
    x: np.ndarray
    cx: np.ndarray
    prof: ActiveProfile
    jac: np.ndarray
    N: np.ndarray
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
    N = nullspace_basis(jac.T)
    sub = subdiff_hrep_at(p.h, prof, cx)
    bcq = _bcq(p.h, cx, prof, N)

    poly = PolyhedronH(np.vstack([sub.E, jac.T]), np.concatenate([sub.e, np.zeros(p.n)]),
                       sub.F, sub.f)
    single, y = poly.is_singleton()
    status = "singleton" if single else "empty" if y is None else "nonsingleton"
    mult = MultiplierSet(poly, status, y if single else None, bcq,
                         "" if bcq else "unsupported-by-theory: bcq fails at x")

    tc = _tc_from_bases(N, sub.parallel_basis())
    # sc: a point of the subdifferential in Null(jac^T), RI_SLACK inside ri.
    ybar, depth = sub.ri_slack(jac.T, np.zeros(p.n))
    sc = bool(ybar is not None and depth >= RI_SLACK and tc)
    # A strict-criticality point is the unique multiplier; prefer its exact value.
    cqs = CQReport(bcq=bcq, tc=tc, sc=sc, ybar=(mult.y if single else ybar) if sc else None,
                   m_singleton=single)
    return PointAnalysis(p, x, cx, prof, jac, N, sub, mult, cqs)


def multiplier_set(p: CompositeProblem, x) -> MultiplierSet:
    """Multipliers {y : Jac(x)^T y = 0} intersected with the subdifferential
    at c(x): the stationarity multiplier set."""
    return analyze_point(p, x).multipliers


def bcq_holds(p: CompositeProblem, x) -> bool:
    """Null(Jac^T) meets N(c(x) | dom h) only at zero."""
    return analyze_point(p, x).cqs.bcq


def check_cqs(p: CompositeProblem, x) -> CQReport:
    """Basic, transversality and strict-criticality qualifications at x."""
    return analyze_point(p, x).cqs


def nonascent_contains(p: CompositeProblem, x, d) -> bool:
    """Whether d is a direction of non-ascent for h(c(.)) at x.

    Requires bcq at x; equivalent to h'(c(x); Jac(x) d) <= 0.
    """
    d = as_vector(d, p.n, "d")
    pa = analyze_point(p, x)
    if not pa.cqs.bcq:
        raise PreconditionError("bcq fails at x; the non-ascent representation needs it")
    val = dir_deriv_first(p.h, pa.cx, pa.jac @ d)
    return bool(val.is_finite and val.value <= 1e-10)


def _bcq(h: PLQFunction, cx, prof, N) -> bool:
    """The bcq LP sweep: span(N) meets N(cx | dom h), the intersection of the
    active pieces' normal cones, only at zero. A nonzero meeting point is
    sought with one feasibility LP per coordinate normalization v_i = +/-1.
    """
    if N.shape[1] == 0:
        return True
    gens = [h.tangent_rows_at(k, prof.active_set).T for k in prof.active_pieces]
    if any(G.shape[1] == 0 for G in gens):
        return True  # some active normal cone is {0}
    m = h.m
    r = N.shape[1]
    sizes = [G.shape[1] for G in gens]
    nvar = r + sum(sizes)
    # Equalities: N z = G_1 l_1 and G_k l_k = G_1 l_1 for k >= 2.
    rows = []
    offs = [r]
    for sz in sizes[:-1]:
        offs.append(offs[-1] + sz)
    base = np.zeros((m, nvar))
    base[:, :r] = N
    base[:, offs[0]:offs[0] + sizes[0]] = -gens[0]
    rows.append(base)
    for k in range(1, len(gens)):
        row = np.zeros((m, nvar))
        row[:, offs[k]:offs[k] + sizes[k]] = gens[k]
        row[:, offs[0]:offs[0] + sizes[0]] = -gens[0]
        rows.append(row)
    E = np.vstack(rows)
    e = np.zeros(E.shape[0])
    Fneg = np.zeros((sum(sizes), nvar))
    Fneg[:, r:] = -np.eye(sum(sizes))
    fneg = np.zeros(sum(sizes))
    for i in range(m):
        for sgn in (1.0, -1.0):
            norm_row = np.zeros((1, nvar))
            norm_row[0, :r] = sgn * N[i]
            Eall = np.vstack([E, norm_row])
            eall = np.concatenate([e, [1.0]])
            if feasible_point(F=Fneg, f=fneg, E=Eall, e=eall, dim=nvar) is not None:
                return False
    return True


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


# -- pure subspace/polyhedron predicates (used by the qualification chain tests) --


def subspace_polyhedron_predicates(N: np.ndarray, poly: PolyhedronH) -> dict:
    """For the subspace spanned by the columns of N and a nonempty polyhedron C:

      a: span(N) meets ri C in exactly one point,
      b: span(N) meets par C only at zero,
      c: span(N) meets C in exactly one point.
    """
    N = np.atleast_2d(np.asarray(N, dtype=float))
    dim = poly.dim
    b = _tc_from_bases(N, poly.parallel_basis())

    if N.shape[1] == 0:
        span_rows = np.eye(dim)  # span(N) = {0}
        span_rhs = np.zeros(dim)
    else:
        # y in span(N)  <=>  (I - N N^T) y = 0 for orthonormal N.
        span_rows = np.eye(dim) - N @ N.T
        span_rhs = np.zeros(dim)
    pt, depth = poly.ri_slack(span_rows, span_rhs)
    ri_nonempty = pt is not None and depth >= RI_SLACK

    inter = PolyhedronH(np.vstack([poly.E, span_rows]),
                        np.concatenate([poly.e, span_rhs]),
                        poly.F, poly.f)
    single, _ = inter.is_singleton()

    return {"a": bool(ri_nonempty and b), "b": bool(b), "c": bool(single)}
