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

Pure functions throughout; the LP solver is instantiated per call with no
shared state, so concurrent checks on one problem are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import PolyhedronH, subdiff_hrep, dir_deriv_first
from .errors import DomainError, PreconditionError
from .exprmap import Linearization, SmoothMap
from .numerics import as_vector, matrix_rank_rel, nullspace_basis
from .plq import PLQFunction, eval_with_active
from .simplex import feasible_point, max_slack_point

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


def _jacobian_nullspace(p: CompositeProblem, x):
    jac = p.c.jacobian(x)
    return nullspace_basis(jac.T), jac


def _finite_profile(p: CompositeProblem, x):
    cx = p.c.value(x)
    prof = eval_with_active(p.h, cx)
    if not prof.is_finite:
        raise DomainError("c(x) is outside dom h")
    return cx, prof


def multiplier_set(p: CompositeProblem, x, v=None) -> MultiplierSet:
    """Multipliers {y : Jac(x)^T y = v} intersected with the subdifferential
    at c(x). The default v = 0 is the stationarity multiplier set; other v
    are exposed through the same polyhedral routine."""
    x = as_vector(x, p.n, "x")
    v = np.zeros(p.n) if v is None else as_vector(v, p.n, "v")
    cx, prof = _finite_profile(p, x)
    sub = subdiff_hrep(p.h, cx)
    jac = p.c.jacobian(x)
    E = np.vstack([sub.E, jac.T]) if sub.E.shape[0] else jac.T
    e = np.concatenate([sub.e, v]) if sub.E.shape[0] else v
    poly = PolyhedronH(E, e, sub.F, sub.f)
    bcq = bcq_holds(p, x)
    note = "" if bcq else "unsupported-by-theory: bcq fails at x"
    if poly.is_empty():
        return MultiplierSet(poly, "empty", None, bcq, note)
    single, pt = poly.is_singleton()
    if single:
        return MultiplierSet(poly, "singleton", pt, bcq, note)
    return MultiplierSet(poly, "nonsingleton", None, bcq, note)


def bcq_holds(p: CompositeProblem, x) -> bool:
    """Null(Jac^T) meets N(c(x) | dom h) only at zero.

    The normal cone to the domain is the intersection of the active pieces'
    normal cones; a nonzero meeting point is sought with one feasibility LP
    per coordinate normalization v_i = +/-1.
    """
    x = as_vector(x, p.n, "x")
    cx, prof = _finite_profile(p, x)
    N, _ = _jacobian_nullspace(p, x)
    if N.shape[1] == 0:
        return True
    gens = [p.h.normal_generators(k, cx) for k in prof.active_pieces]
    if any(G.shape[1] == 0 for G in gens):
        return True  # some active normal cone is {0}
    m = p.m
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


def _ri_slack_point(poly: PolyhedronH, rows, rhs):
    """(point, found): a point of poly with rows @ y = rhs and slack at least
    RI_SLACK on every inequality of poly that is not an implicit equality."""
    mask = poly.implicit_equality_mask()
    E = np.vstack([poly.E, poly.F[mask], rows])
    e = np.concatenate([poly.e, poly.f[mask], rhs])
    Fr, fr = poly.F[~mask], poly.f[~mask]
    if Fr.shape[0] == 0:
        pt = feasible_point(E=E, e=e, dim=poly.dim)
        return pt, pt is not None
    pt, depth = max_slack_point(Fr, fr, E=E, e=e, cap=1.0)
    return pt, pt is not None and depth is not None and depth >= RI_SLACK


def check_cqs(p: CompositeProblem, x) -> CQReport:
    """Basic, transversality and strict-criticality qualifications at x."""
    x = as_vector(x, p.n, "x")
    cx, _ = _finite_profile(p, x)
    sub = subdiff_hrep(p.h, cx)
    N, jac = _jacobian_nullspace(p, x)

    bcq = bcq_holds(p, x)
    tc = _tc_from_bases(N, sub.parallel_basis())

    ybar, sc_exists = _ri_slack_point(sub, jac.T, np.zeros(p.n))
    sc = bool(sc_exists and tc)

    mult = multiplier_set(p, x)
    m_singleton = mult.status == "singleton"

    # A strict-criticality point is the unique multiplier; prefer its exact value.
    ybar_out = None
    if sc:
        ybar_out = mult.y if m_singleton else ybar
    return CQReport(bcq=bcq, tc=tc, sc=sc, ybar=ybar_out, m_singleton=m_singleton)


def nonascent_contains(p: CompositeProblem, x, d) -> bool:
    """Whether d is a direction of non-ascent for h(c(.)) at x.

    Requires bcq at x; equivalent to h'(c(x); Jac(x) d) <= 0.
    """
    x = as_vector(x, p.n, "x")
    d = as_vector(d, p.n, "d")
    if not bcq_holds(p, x):
        raise PreconditionError("bcq fails at x; the non-ascent representation needs it")
    cx = p.c.value(x)
    w = p.c.jacobian(x) @ d
    val = dir_deriv_first(p.h, cx, w)
    return bool(val.is_finite and val.value <= 1e-10)


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
    viol = subdiff_hrep(p.h, cx).violation(y)
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
    _, ri_nonempty = _ri_slack_point(poly, span_rows, span_rhs)

    inter = PolyhedronH(np.vstack([poly.E, span_rows]),
                        np.concatenate([poly.e, span_rhs]),
                        poly.F, poly.f)
    single, _ = inter.is_singleton()

    return {"a": bool(ri_nonempty and b), "b": bool(b), "c": bool(single)}
