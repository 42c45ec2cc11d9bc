"""Newton and quasi-Newton local solvers for PLQ convex-composite problems.

Every method is a Newton step on one generalized equation: it solves the
linearized KKT system [[H, Jac^T, 0], [-Q Jac, I, -C], [R, 0, 0]] assembled
by `kkt_matrix`, and only the coupling blocks C and R of the hyperplanes
held at equality differ. Entry points:

  restricted_systems, restricted_newton_step: every active piece's
      manifold-restricted system, assembled and solved as one stack;
  newton_solve: the manifold-restricted iteration. It takes the last row's
      (x, y) and every row's mu, checks that the rows' (x, y) parts agree
      (the gluing identity) as one array reduction, and records
      identification and strict-positivity monitors. It runs on any number
      k_bar >= 1 of active pieces: on one piece with ell active hyperplanes
      it is the local SQP iteration of a nonlinear program, and with ell = 0
      classical Newton on the piece's stationarity equations (method smooth);
  solve_subproblem_enum: direction finding by enumeration of candidate active
      structures (piece, active hyperplane subset) of the linearized model.
      It returns its critical pairs: H d + Jac^T y = 0 with y in
      dh(c + Jac d). Each face (the subset with the signs off it) is solved
      and tested once, by its first piece, and later pieces skip it. The
      membership test alone decides, since for a continuous h it already
      makes the multipliers of every active piece nonnegative. Singular faces
      are solved piece by piece. A step is batched: h caches its face plan
      (the visiting order, each pair's face and the KKT matrix each pair
      assembles), the systems of a pass are stacked by size, each stack's
      distinct matrices are factored by one SVD (`_solve_stack`) and every
      system does its own right-hand-side work, and a pair whose piece is
      not active at c + Jac d is rejected. The other pairs are ranked by
      model value without evaluating h and come back as a lazy sequence
      (`CriticalPairs`): h's evaluation at c + Jac d, membership, the
      duplicate rule, the alternate and each pair are decided when read, so
      a caller that reads only the best pair pays for the pairs up to it,
      and a pair's curvature verdict is computed when read;
  quasi_newton_solve: the structure-enumerating iteration with Hessian
      models B_k;
  solve: the dispatch on a method name (newton | enum | quasi | smooth).

The iterations share one loop, `_iterate` (trace rows, convergence,
divergence guard, max_iter), and one reduced-curvature check,
`reduced_min_eigs`, which the certificates use too.

All methods are local: no globalization, and iterates wandering off trigger
regime or divergence errors rather than recovery heuristics.

Each iterate (x_k, y_k) is linearized once: a single `SmoothMap.evaluate`
gives (c(x_k), Jac c(x_k), sum_i y_i Hess c_i(x_k)), and every consumer at
that point shares it: the restricted step, the monitors, the enumeration
subproblem and the KKT residual. The linearization made for the residual of
(x_{k+1}, y_{k+1}) is the one step k+1 uses.

A solve is single-threaded and owns its mutable trace; distinct solves over
the immutable problem objects may run concurrently.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .calculus import subdiff_hrep_at
from .composite import CompositeProblem, kkt_residual
from .errors import DivergenceError, PreconditionError, RegimeError, SchemaError, StepError
from .exprmap import Linearization
from .manifold import ManifoldData, build_manifold, build_manifold_at
from .numerics import as_vector, nullspace_basis
from .plq import ActiveProfile, active_structure, eval_with_active, pieces_active

GLUE_FAIL = 1e-8
# The divergence guard: |x_k| > DIVERGENCE_FACTOR (1 + |x_0|) raises DivergenceError.
DIVERGENCE_FACTOR = 1e6
# The method names `solve` accepts, in the order problem files and the CLI list them.
METHODS = ("newton", "quasi", "smooth", "enum")


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        if not (0.0 <= self.tol < np.inf and self.max_iter >= 0):
            raise PreconditionError(f"tol must be finite and >= 0 and max_iter >= 0, "
                                    f"got tol {self.tol} and max_iter {self.max_iter}")

    def converged(self, res) -> bool:
        return res.stationarity <= self.tol and res.subdiff_violation <= self.tol


@dataclass
class TraceRow:
    k: int
    x: np.ndarray
    y: np.ndarray
    mu: np.ndarray | None
    stat_res: float
    sub_viol: float
    err: float | None
    dm_ratio: float | None
    on_manifold: bool | None
    mu_min: float | None = None
    gluing_gap: float | None = None
    lin_active: tuple | None = None  # active pieces of the linearized point
    # The step's model-curvature verdict, or a check that gives it when
    # model_sosc_ok is first read (most traces never read it).
    model_check: bool | Callable[[], bool] | None = field(default=None, repr=False)

    @property
    def model_sosc_ok(self) -> bool | None:
        if callable(self.model_check):
            self.model_check = self.model_check()
        return self.model_check


@dataclass
class IterationTrace:
    method: str
    rows: list = field(default_factory=list)
    converged: bool = False
    message: str = ""

    def append(self, row: TraceRow):
        self.rows.append(row)

    @property
    def final(self) -> TraceRow:
        return self.rows[-1]

    def errors(self, reference=None):
        """Per-iteration error sequence: distance to the reference pair when
        given, otherwise the KKT residual as a proxy (an iterate outside
        dom h contributes a unit subdifferential violation)."""
        if reference is not None:
            xbar, ybar = reference
            return [float(np.linalg.norm(r.x - xbar) + np.linalg.norm(r.y - ybar))
                    for r in self.rows]
        return [max(r.stat_res, 0.0) + (r.sub_viol if math.isfinite(r.sub_viol) else 1.0)
                for r in self.rows]

    def write_csv(self, path):
        n = self.rows[0].x.shape[0]
        m = self.rows[0].y.shape[0]
        mu_len = 0 if self.rows[0].mu is None else self.rows[0].mu.size
        header = (["iter"] + [f"x{i + 1}" for i in range(n)] + [f"y{i + 1}" for i in range(m)]
                  + [f"mu{i + 1}" for i in range(mu_len)]
                  + ["mu_min", "gluing_gap", "model_sosc_ok", "lin_active",
                     "stat_res", "sub_viol", "err", "dm_ratio", "on_manifold"])
        def fmt(v):
            return "" if v is None else repr(float(v))

        def flag(v):
            return "" if v is None else int(v)

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for r in self.rows:
                mu_vals = [] if r.mu is None else [fmt(v) for v in r.mu.reshape(-1)]
                w.writerow([r.k] + [fmt(v) for v in r.x] + [fmt(v) for v in r.y] + mu_vals
                           + [fmt(r.mu_min), fmt(r.gluing_gap), flag(r.model_sosc_ok),
                              "" if r.lin_active is None else ";".join(map(str, r.lin_active)),
                              fmt(r.stat_res), fmt(r.sub_viol), fmt(r.err), fmt(r.dm_ratio),
                              flag(r.on_manifold)])


def kkt_matrix(H, jac, Q, cols=None, rows=None) -> np.ndarray:
    """The linearized KKT matrix [[H, Jac^T, 0], [-Q Jac, I, -cols], [rows, 0, 0]].

    `cols` (m x ell) are the gradients of the hyperplanes held at equality,
    signed for the piece, and `rows` (ell x n) their linearization; without
    them the matrix is the (n + m) square system of a smooth piece. Given a
    stack of B systems (Q as B x m x m, cols with the same leading axis,
    rows with it or shared), it returns the B x N x N stack.
    """
    m, n = jac.shape
    ell = 0 if cols is None else cols.shape[-1]
    N, lead = n + m + ell, np.shape(Q)[:-2]
    M = np.zeros(lead + (N, N))
    M[..., :n, :n] = H
    M[..., :n, n:n + m] = jac.T
    M[..., n:n + m, :n] = -Q @ jac
    # The identity block: diagonal entries n .. n + m - 1 of each flat matrix.
    M.reshape(lead + (N * N,))[..., n * (N + 1):(n + m) * (N + 1):N + 1] = 1.0
    if ell:
        M[..., n:n + m, n + m:] = -cols
        M[..., n + m:, :n] = rows
    return M


def reduced_min_eigs(Z, jac, H, Qs):
    """Minimum eigenvalue of the reduced matrix Z^T (Jac^T Q Jac + H) Z for
    each Q in Qs (a list or a k x m x m stack), one batched eigvalsh, or
    None when Z has no columns."""
    if Z.shape[1] == 0:
        return None
    G = Z.T @ (jac.T @ Qs @ jac + H) @ Z
    return np.linalg.eigvalsh(0.5 * (G + G.swapaxes(-1, -2)))[:, 0].tolist()  # ascending


def _iterate(p: CompositeProblem, trace: IterationTrace, x, y, step, opts: SolveOptions,
             reference=None, lin: Linearization | None = None, **row0) -> IterationTrace:
    """Record row 0 at (x, y) with the monitors `row0`; then for k = 1, 2, ...
    take (x, y, monitors) = step(k, x, y, lin), linearize c once at the new
    pair (`lin` is the start pair's, made when not given) and record row k.
    """
    def record(k, x, y, lin, monitors):
        res = kkt_residual(p, x, y, lin)
        err = None if reference is None else float(
            np.linalg.norm(x - reference[0]) + np.linalg.norm(y - reference[1]))
        monitors = {"mu": None, "dm_ratio": None, "on_manifold": None, **monitors}
        trace.append(TraceRow(k=k, x=x.copy(), y=y.copy(), stat_res=res.stationarity,
                              sub_viol=res.subdiff_violation, err=err, **monitors))
        trace.converged = opts.converged(res)
        return trace.converged

    lin = p.c.evaluate(x, y) if lin is None else lin
    if record(0, x, y, lin, row0):
        return trace
    x0_norm = 1.0 + float(np.linalg.norm(x))
    for k in range(1, opts.max_iter + 1):
        x, y, monitors = step(k, x, y, lin)
        lin = p.c.evaluate(x, y)
        if record(k, x, y, lin, monitors):
            return trace
        if np.linalg.norm(x) > DIVERGENCE_FACTOR * x0_norm:
            raise DivergenceError("iterates diverged beyond the guard radius")
    trace.message = "max_iter reached"
    return trace


def _initial_mu(p: CompositeProblem, md: ManifoldData, cx, y) -> np.ndarray:
    """Default block multipliers from the projection of c(x) onto the manifold's
    affine hull, clipped at zero (none when no hyperplane is active)."""
    if md.ell == 0:
        return np.zeros((md.kbar, 0))
    A_all, alpha = p.h.hyperplane_matrix()
    act = list(md.active_hyperplanes)
    Ar = A_all[act]
    resid = Ar @ cx - alpha[act]
    proj = cx - Ar.T @ np.linalg.solve(Ar @ Ar.T, resid)
    blocks, _ = md.mu_projection(proj, y)
    return np.maximum(blocks, 0.0)


def _mu_min(mu) -> float | None:
    return float(np.min(mu)) if mu.size else None


def restricted_systems(md: ManifoldData, x, lin: Linearization):
    """Every active piece's restricted KKT system at x, given the
    linearization `lin` there, as one stack: the (kbar, N, N) matrices and
    the (kbar, N, 1) right-hand sides, N = n + m + ell. System j solves for
    (x, y, mu_j): the linearized stationarity equation, piece j's subgradient
    equation at the linearized point, and the manifold equation pinning that
    point to the manifold's affine hull."""
    cx, jac, H = lin
    m, n = jac.shape
    Qs, bs, cols = md.stacked
    jx = jac @ x
    rhs = np.empty((md.kbar, n + m + md.ell, 1))
    rhs[:, :n, 0], rhs[:, n:n + m, 0] = H @ x, Qs @ (cx - jx) + bs
    rows = None
    if md.ell:  # the manifold equation
        rows = md.A.T @ jac
        rhs[:, n + m:, 0] = md.A.T @ (md.base_point - cx + jx)
    return kkt_matrix(H, jac, Qs, cols, rows), rhs


def restricted_newton_step(p: CompositeProblem, md: ManifoldData, x, y,
                           lin: Linearization | None = None) -> np.ndarray:
    """The (kbar, n + m + ell) rows (x_j, y_j, mu_j) solving every active
    piece's restricted system at (x, y) (`restricted_systems`) as one stack;
    `lin` is p.c.evaluate(x, y), made when not given. On one piece this is
    the SQP step of the nonlinear program whose constraints are the active
    hyperplanes, and classical Newton when there are none."""
    x = as_vector(x, p.n, "x")
    y = as_vector(y, p.m, "y")
    M, rhs = restricted_systems(md, x, p.c.evaluate(x, y) if lin is None else lin)
    try:
        return np.linalg.solve(M, rhs)[:, :, 0]
    except np.linalg.LinAlgError:  # name the first system with a zero LU pivot
        j = int(np.argmin(np.abs(np.linalg.slogdet(M)[0])))
        raise StepError(f"restricted system for piece block {j} is singular") from None


def _gluing_gap(sols, n, m) -> float:
    """max over rows i < j of a restricted step of |x_i - x_j| + |y_i - y_j|,
    each norm from the dot product np.linalg.norm takes."""
    d = sols[:, None, None, :n + m] - sols[None, :, None, :n + m]
    dx, dy = d[..., :n], d[..., n:]
    return float(np.max(np.sqrt((dx @ dx.swapaxes(-1, -2))[..., 0, 0])
                        + np.sqrt((dy @ dy.swapaxes(-1, -2))[..., 0, 0])))


def newton_solve(p: CompositeProblem, md: ManifoldData | None, start, opts: SolveOptions,
                 reference=None) -> IterationTrace:
    """Manifold-restricted Newton iteration with gluing across active pieces.

    `start` is (x0, y0) or (x0, y0, mu0). When md is None the manifold is
    built from the first linearized point of a structure-enumeration step.
    On a one-piece manifold there is nothing to glue, and a linearized point
    off the manifold is refused: the step has left the piece's face.
    """
    x = as_vector(start[0], p.n, "x0")
    y = as_vector(start[1], p.m, "y0")
    lin = p.c.evaluate(x, y)
    if md is None:
        md = _bootstrap_manifold(p, x, lin)
    if not md.nondegenerate:
        raise RegimeError("degenerate manifold matrix A")
    if len(start) > 2 and start[2] is not None:
        mu = np.asarray(start[2], dtype=float).reshape(md.kbar, md.ell)
    else:
        mu = _initial_mu(p, md, lin.c, y)
    n, m = p.n, p.m

    def step(k, x, y, lin):
        try:
            sols = restricted_newton_step(p, md, x, y, lin)
        except StepError:
            if md.ell:
                raise
            raise StepError(f"smooth system singular at iteration {k}") from None
        new_x, new_y, mu = sols[-1, :n], sols[-1, n:n + m], sols[:, n + m:]
        prof = eval_with_active(p.h, lin.c + lin.J @ (new_x - x))
        on_manifold = md.matches(prof.active_pieces, prof.active_set)
        if md.kbar == 1 and not on_manifold:
            where = "face" if md.ell else "interior"
            raise RegimeError(f"linearized point left the {where} of piece "
                              f"{md.active_pieces[0]} at iteration {k}")
        # One piece has no pair to glue: gap 0 passes without the scale.
        gap = 0.0 if md.kbar == 1 else _gluing_gap(sols, n, m)
        if gap and gap > GLUE_FAIL * (1.0 + float(np.linalg.norm(x)) + float(np.linalg.norm(y))):
            raise DivergenceError(
                f"gluing identity failed at iteration {k}: cross-piece gap {gap:g}")
        return new_x, new_y, dict(
            mu=mu, on_manifold=on_manifold, lin_active=prof.active_pieces,
            model_check=lambda: _model_sosc_ok(md.A.T @ lin.J, lin.J, lin.H, md.stacked[0]),
            mu_min=_mu_min(mu), gluing_gap=gap)

    return _iterate(p, IterationTrace(method="newton"), x, y, step, opts, reference, lin,
                    mu=mu.copy(), mu_min=_mu_min(mu))


def _model_sosc_ok(rows, jac, H, Qs) -> bool:
    """Whether the model curvature Jac^T Q Jac + H is positive definite on
    Null(rows) for every Q in Qs (true when the nullspace is {0})."""
    eigs = reduced_min_eigs(nullspace_basis(rows), jac, H, Qs)
    return eigs is None or min(eigs) > 0


def _bootstrap_manifold(p, x, lin) -> ManifoldData:
    """Manifold from the first linearized point of an enumeration step."""
    sols = solve_subproblem_enum(p, x, lin.H, lin)
    if not sols:
        raise StepError("bootstrap subproblem has no consistent critical pair")
    return build_manifold_at(p.h, sols[0].profile, lin.c + lin.J @ sols[0].d)


# -- structure enumeration ------------------------------------------------------

# Systems per stack handed to `_solve_stack`: bounds the memory of a step that
# visits many faces (K 2^s pairs) without changing any solve.
_STACK_CHUNK = 1024


@dataclass
class SubproblemSolution:
    d: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    piece: int
    active_set: tuple
    model_value: float
    # The model-curvature verdict, or a check that gives it when
    # model_sosc_ok is first read (callers read the best pair's, if any).
    model_check: bool | Callable[[], bool] = field(repr=False)
    unique: bool
    alternate: tuple | None  # a second (d, y) on the same solution family
    profile: ActiveProfile = field(repr=False)  # h's active profile at c + Jac d

    @property
    def model_sosc_ok(self) -> bool:
        if callable(self.model_check):
            self.model_check = self.model_check()
        return self.model_check


class _FacePlan(NamedTuple):
    """The visiting order of `solve_subproblem_enum`, which depends on h
    alone: pair q = k 2^s + i is piece k with the i-th subset."""

    subsets: list        # the subsets S, by size, then lexicographically
    members: np.ndarray  # (2^s, s): row i starts with the members of subset i
    face: np.ndarray     # (K 2^s,): the face id of each pair
    first: np.ndarray    # (K 2^s,): whether the pair is the first to reach its face
    matrix: np.ndarray   # (K 2^s,): the id of the KKT matrix each pair assembles
    first_groups: list   # `_size_groups` of the first pairs


def _face_plan(h) -> _FacePlan:
    """The enumeration's face plan, built once per h. A face is a subset S
    with the piece's signs off S, keyed as the bit masks (S, plus & ~S).
    The KKT matrix of a pair depends on S, the piece's signs on S and its
    Q alone, so it is keyed as (S, plus & S) and the class of pieces whose
    Q is bit-equal: pairs with one key assemble one matrix, which a step
    factors once."""
    plan = h._face_plan_cache.get(())
    if plan is None:
        s = h.n_hyperplanes
        subsets = list(itertools.chain.from_iterable(
            itertools.combinations(range(s), r) for r in range(s + 1)))
        members = np.zeros((len(subsets), s), dtype=np.intp)
        masks = np.zeros(len(subsets), dtype=np.int64)
        for i, S in enumerate(subsets):
            members[i, :len(S)] = S
            masks[i] = sum(1 << j for j in S)
        plus = (h._signs > 0) @ (np.int64(1) << np.arange(s, dtype=np.int64))
        keys = (masks[None, :] << s) | (plus[:, None] & ~masks[None, :])
        _, firsts, face = np.unique(keys.ravel(), return_index=True, return_inverse=True)
        first = np.zeros(keys.size, dtype=bool)
        first[firsts] = True
        classes, qclass = np.unique(h._Q.reshape(h.n_pieces, -1).view(np.uint64), axis=0,
                                    return_inverse=True)
        matrix = ((masks[None, :] << s) | (plus[:, None] & masks[None, :])) * len(classes) \
            + qclass.reshape(-1, 1)
        plan = h._face_plan_cache.setdefault((), _FacePlan(
            subsets, members, face, first, matrix.ravel(),
            _size_groups(subsets, members, np.sort(firsts), matrix.ravel())))
    return plan


def _size_groups(subsets, members, pairs, matrix) -> list:
    """The pairs grouped by |S|, in chunks of at most _STACK_CHUNK:
    (|S|, pairs, their pieces, their subsets' members, reps, rep). The
    chunk's distinct KKT matrices (by the plan's `matrix` ids) are those of
    its systems reps, and system i assembles the matrix of system
    reps[rep[i]]; when the matrices are all distinct, reps takes every
    system and rep is None."""
    pieces, subs = np.divmod(pairs, len(subsets))
    sizes = np.array([len(subsets[i]) for i in subs], dtype=np.intp)
    groups = []
    for ell in range(members.shape[1] + 1):
        group = np.flatnonzero(sizes == ell)
        for at in range(0, group.size, _STACK_CHUNK):
            chunk = group[at:at + _STACK_CHUNK]
            _, reps, rep = np.unique(matrix[pairs[chunk]], return_index=True,
                                     return_inverse=True)
            shared = reps.size < chunk.size
            groups.append((ell, pairs[chunk], pieces[chunk], members[subs[chunk], :ell],
                           reps if shared else slice(None), rep.reshape(-1) if shared else None))
    return groups


def solve_subproblem_enum(p: CompositeProblem, x_hat, H, lin: Linearization | None = None):
    """The critical pairs of the linearized model over candidate active
    structures (piece, subset of hyperplanes held at equality), as a
    read-only sequence (`CriticalPairs`) whose pairs are decided when read.

    H is the model Hessian; one that is not a finite n x n array raises
    StepError. The model linearizes c at x_hat: its value and
    Jacobian come from `lin` when given (a linearization at x_hat), and from
    one first-order sweep otherwise. A critical pair (d, y) solves
    H d + Jac^T y = 0 with y in dh(c_lin), c_lin = c + Jac d.

    Structures are visited piece by piece, subsets inside (h's `_face_plan`).
    A face is a subset S with the signs off S; its pieces differ there by
    elements of span{a_j : j in S}, so their equality KKT systems share
    (d, y). The first piece on a face solves its system and decides the
    face, as `_consistent` does: that piece active at c_lin and y in
    dh(c_lin).
    Membership alone decides, with no test of the multipliers' signs: for a
    continuous h it already makes every active piece's multipliers
    nonnegative, up to its slack. Later pieces skip a solved face. A
    singular face (a solve with a second point on its solution family, or
    none) is solved and tested piece by piece, and its pairs are reported as
    non-unique with that point when it is consistent too. A (d, y) within
    1e-9 of an earlier-visited accepted pair is dropped. Pairs are sorted by
    model value, ties by piece, then in visiting order.

    The solves are batched (`_enum_solves`). A pair whose piece is active
    at c_lin (`plq.pieces_active`) is a candidate. When a call has two or more,
    they are ranked without evaluating h, by the model value at the first
    piece active at c_lin (`active_structure`; on a validated h every
    active piece gives it to VALUE_TOL), rounded to 12 decimals. The rest
    is decided when the sequence is read, in that order: h's evaluation at
    c_lin, which gives the profile and the model value and raises a
    RepresentationError when the active pieces disagree in value, the
    candidate's piece active there, the membership test, the duplicate rule
    (deciding the earlier-visited neighbours it needs), the alternate's
    consistency and the `SubproblemSolution`. Reading sols[0] or bool(sols)
    decides up to the first accepted pair; len, iteration and slicing decide
    them all. Each pair's curvature verdict is computed when first read.
    """
    H, cx, jac, plan, results = _enum_solves(p, x_hat, H, lin)
    h, n, m = p.h, p.n, p.m
    cands, solved = [], set()  # cands: (piece, subset, solution, alternate, c_lin)
    for q in sorted(results):
        face = plan.face[q]
        if face in solved:
            continue
        sol, alt, active = results[q]
        if sol is None:
            continue
        if alt is None:
            solved.add(face)
        if active:
            cands.append((*divmod(q, len(plan.subsets)), sol, alt, cx + jac @ sol[:n]))

    def key(j):
        """The model value at the first piece active at c_lin, rounded, then the piece."""
        k, _, sol, _, c_lin = cands[j]
        first = active_structure(h, c_lin)[0]
        value = h.piece_value(first[0] if first else k, c_lin) + 0.5 * float(sol[:n] @ H @ sol[:n])
        return round(value, 12), k

    order = sorted(range(len(cands)), key=key) if len(cands) > 1 else range(len(cands))
    points = np.array([c[2][:n + m] for c in cands]).reshape(len(cands), n + m)
    accepted, profiles = {}, {}

    def is_accepted(j):
        """Piece k active at c_lin, membership, and no earlier-visited
        accepted pair within 1e-9."""
        if j not in accepted:
            k, _, sol, _, c_lin = cands[j]
            d, y = sol[:n], sol[n:n + m]
            prof = profiles[j] = eval_with_active(h, c_lin)
            accepted[j] = k in prof.active_pieces \
                and subdiff_hrep_at(h, prof, c_lin).contains(y, slack=1e-7) and not any(
                    map(is_accepted, np.flatnonzero(
                        np.linalg.norm(points[:j, :n] - d, axis=1)
                        + np.linalg.norm(points[:j, n:] - y, axis=1) <= 1e-9).tolist()))
        return accepted[j]

    def decide(j):
        if not is_accepted(j):
            return None
        k, i, sol, alt, _ = cands[j]
        d, prof = sol[:n], profiles[j]
        alternate = None
        if alt is not None and _consistent(p, k, alt, cx, jac) is not None:
            alternate = (alt[:n], alt[n:n + m])
        return SubproblemSolution(
            d=d, y=sol[n:n + m], lam=sol[n + m:], piece=k, active_set=plan.subsets[i],
            model_value=prof.value.value + 0.5 * float(d @ H @ d),
            model_check=functools.partial(
                _model_sosc_ok, h.hyperplane_matrix()[0][list(prof.active_set)] @ jac, jac, H,
                h._Q[list(prof.active_pieces)]),
            unique=alternate is None, alternate=alternate, profile=prof)

    return CriticalPairs(filter(None, map(decide, order)))


class CriticalPairs(Sequence):
    """The pairs of one `solve_subproblem_enum` call, taken from an iterator
    that decides each when it is drawn. sols[i] draws up to the (i + 1)-th
    pair; len, iteration, slicing and negative indices draw them all, and a
    slice is a list."""

    def __init__(self, pairs):
        self._pending, self._pairs = pairs, []

    def _read(self, count=None) -> list:
        """The pairs drawn so far, after drawing up to `count` (all when None)."""
        self._pairs.extend(itertools.islice(
            self._pending, None if count is None else max(0, count - len(self._pairs))))
        return self._pairs

    def __getitem__(self, i):
        if isinstance(i, slice) or i < 0:
            return self._read()[i]
        return self._read(i + 1)[i]

    def __len__(self):
        return len(self._read())

    def __bool__(self):
        return bool(self._read(1))

    def __iter__(self):
        return iter(self._read())


def _enum_solves(p: CompositeProblem, x_hat, H, lin: Linearization | None):
    """The batched solves of `solve_subproblem_enum`: (H, c, Jac, plan,
    results), results mapping each solved pair q to (solution or None,
    alternate or None, piece active at c_lin). One pass solves the first
    piece of every face, a second the later pieces of the faces whose first
    solve was singular, each as one `_solve_stack` per system size."""
    x_hat = as_vector(x_hat, p.n, "x")
    H = np.atleast_2d(np.asarray(H, dtype=float))  # None reads as NaN
    if H.shape != (p.n, p.n) or not np.isfinite(H).all():
        raise StepError(f"model Hessian must be a finite {p.n} x {p.n} array")
    cx, jac, _ = p.c.evaluate(x_hat) if lin is None else lin
    h = p.h
    A_all, alpha = h.hyperplane_matrix()
    n, m, s, K = p.n, p.m, h.n_hyperplanes, h.n_pieces
    plan = _face_plan(h)
    # Per piece the rhs head; per hyperplane its linearized row and its last
    # rhs entry.
    head = np.zeros((K, n + m))
    head[:, n:] = h._Q @ cx + h._b
    AJ = np.array([a @ jac for a in A_all]).reshape(s, n)
    tail = np.array([alpha[j] - A_all[j] @ cx for j in range(s)])
    results = {}

    def solve(groups):
        for ell, pairs, ks, idx, reps, rep in groups:
            kr, ir = ks[reps], idx[reps]  # the systems that assemble each distinct matrix
            cols = (h._signs[kr[:, None], ir][:, :, None] * A_all[ir]).transpose(0, 2, 1)
            sols, alts, full, ok = _solve_stack(kkt_matrix(H, jac, h._Q[kr], cols, AJ[ir]),
                                                np.concatenate([head[ks], tail[idx]], axis=1),
                                                rep)
            active = pieces_active(h, ks, cx + (jac @ sols[:, :n, None])[:, :, 0])
            for q, sol, alt, f, o, a in zip(pairs.tolist(), sols, alts, full, ok, active):
                results[q] = (sol, None if f else alt, a) if o else (None, None, a)

    solve(plan.first_groups)
    singular = [plan.face[q] for q, (sol, alt, _) in results.items()
                if sol is None or alt is not None]
    if singular:
        solve(_size_groups(plan.subsets, plan.members,
                           np.flatnonzero(~plan.first & np.isin(plan.face, singular)),
                           plan.matrix))
    return H, cx, jac, plan, results


def _solve_stack(M, rhs, rep=None, tol=1e-9):
    """Solve each system M[rep[i]] x = rhs[i] of a stack with one SVD per
    distinct matrix: M is (R, N, N), rhs (B, N) and rep maps each system to
    its matrix (the identity when None).

    Returns (sols, alts, full, ok), one row per system. full[i] when its
    matrix has full numerical rank, every singular value above
    1e-11 (1 + ||M||): sols[i] = V (U^T rhs[i] / sv). Otherwise sols[i] is
    the minimum-norm solution from the kept singular values, alts[i] a
    second point along the nullspace that witnesses non-uniqueness, and
    ok[i] is false when sols[i] leaves a residual above tol (1 + ||M||): the
    system is inconsistent. Only kept singular values are inverted. Systems
    share a factorization but not their right-hand-side work, so each gets
    the floating-point operations of solving it alone.
    """
    B, N = rhs.shape
    R = len(M)
    flat = M.reshape(R, 1, N * N)
    scale = 1.0 + np.sqrt((flat @ flat.transpose(0, 2, 1)).reshape(R))
    u, sv, vt = np.linalg.svd(M)
    kept = sv > 1e-11 * scale[:, None]
    if rep is not None:
        u, sv, vt, kept, scale = u[rep], sv[rep], vt[rep], kept[rep], scale[rep]
    full = kept.all(axis=1)
    proj = (u.transpose(0, 2, 1) @ rhs[:, :, None])[:, :, 0]
    if full.all():
        sols = (vt.transpose(0, 2, 1) @ (proj / sv)[:, :, None])[:, :, 0]
        return sols, sols, full, full
    sing = np.flatnonzero(~full)
    coef = np.divide(proj, sv, out=np.zeros_like(proj), where=full[:, None])
    coef[sing] = np.divide(1.0, sv[sing], out=np.zeros((sing.size, N)),
                           where=kept[sing]) * proj[sing]
    sols = (vt.transpose(0, 2, 1) @ coef[:, :, None])[:, :, 0]
    res = (M[sing if rep is None else rep[sing]] @ sols[sing, :, None])[:, :, 0] - rhs[sing]
    ok = np.ones(B, dtype=bool)
    ok[sing] = ~(np.sqrt((res[:, None, :] @ res[:, :, None]).reshape(sing.size))
                 > tol * scale[sing])
    alts = sols.copy()
    alts[sing] += 0.05 * vt[sing, kept[sing].sum(axis=1)]
    return sols, alts, full, ok


def _consistent(p, k, sol, cx, jac):
    """The active profile at c_lin = c + Jac d when sol = (d, y, lam) is a
    critical pair of the linearized model on piece k: k active at c_lin and
    y in dh(c_lin) (slack 1e-7); None otherwise."""
    d, y = sol[:p.n], sol[p.n:p.n + p.m]
    c_lin = cx + jac @ d
    prof = eval_with_active(p.h, c_lin)
    if prof.is_finite and k in prof.active_pieces \
            and subdiff_hrep_at(p.h, prof, c_lin).contains(y, slack=1e-7):
        return prof
    return None


# The B_schedule of method quasi: B_k frozen at H(x_0, y_0), read from the
# start pair's linearization, which the first step is given.
_START_HESSIAN = object()


def quasi_newton_solve(p: CompositeProblem, start, B_schedule, opts: SolveOptions,
                       reference=None) -> IterationTrace:
    """Structure-enumerating iteration with Hessian models B_k.

    B_schedule(k, x, y, trace) must return a finite symmetric n x n matrix; None
    takes the exact Hessian H(x_k, y_k) from the iterate's linearization.
    Records the Dennis-More ratio ||(B_k - H(x_k, y_k)) dx|| / ||(dx, dy)||.
    """
    x = as_vector(start[0], p.n, "x0")
    y = as_vector(start[1], p.m, "y0")
    trace = IterationTrace(method="quasi-newton")
    frozen = {}

    def step(k, x, y, lin):
        if B_schedule is _START_HESSIAN:
            B = frozen.setdefault("B0", lin.H)
        else:
            B = lin.H if B_schedule is None else B_schedule(k - 1, x, y, trace)
        B = np.atleast_2d(np.asarray(B, dtype=float))
        if B.shape != (p.n, p.n) or not np.isfinite(B).all() \
                or np.max(np.abs(B - B.T)) > 1e-10:
            raise StepError("B schedule must produce finite symmetric n x n matrices")
        sols = solve_subproblem_enum(p, x, B, lin)
        if not sols:
            raise StepError(f"no consistent critical pair at iteration {k}")
        best = sols[0]
        step_norm = float(np.linalg.norm(np.concatenate([best.d, best.y - y])))
        dm = None
        if step_norm > 1e-300:
            dm = float(np.linalg.norm((B - lin.H) @ best.d) / step_norm)
        return x + best.d, best.y, dict(dm_ratio=dm, model_check=best.model_check,
                                        lin_active=best.profile.active_pieces)

    return _iterate(p, trace, x, y, step, opts, reference)


def solve(p: CompositeProblem, method: str, x0, y0, opts: SolveOptions,
          reference=None) -> IterationTrace:
    """Run method newton | enum | quasi | smooth from (x0, y0).

    newton takes its manifold at c(xbar) of the reference (xbar, ybar) when
    given; smooth is newton on the one-piece manifold at c(x0), refused
    unless x0 lies strictly inside a single piece. enum uses each iterate's
    exact Hessian, quasi the start pair's. Without y0, every method starts
    from the gradient of the one active piece.
    """
    if method not in METHODS:
        raise SchemaError("/solver/method", f"unknown method {method!r}")
    md = None
    if method == "newton" and reference is not None:
        md = build_manifold(p.h, p.c.value(reference[0]))
    if method == "smooth" or y0 is None:
        cx = p.c.value(x0)
        prof = eval_with_active(p.h, cx)
        if method == "smooth":
            if prof.kbar != 1 or prof.ell != 0:
                raise RegimeError("start is not strictly inside a single piece")
            md = build_manifold_at(p.h, prof, cx)
        if y0 is None:
            if prof.kbar != 1:
                raise PreconditionError(f"{method} method needs a start y"
                                        + ("" if method == "newton" else " at a kink start"))
            y0 = p.h.piece_gradient(prof.active_pieces[0], cx)
    if method in ("newton", "smooth"):
        return newton_solve(p, md, (x0, y0), opts, reference=reference)
    schedule = _START_HESSIAN if method == "quasi" else None
    return quasi_newton_solve(p, (x0, y0), schedule, opts, reference=reference)
