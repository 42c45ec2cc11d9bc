"""Newton and quasi-Newton local solvers for PLQ convex-composite problems.

Every method is a Newton step on one generalized equation: it solves the
linearized KKT system [[H, Jac^T, 0], [-Q Jac, I, -C], [R, 0, 0]] assembled
by `kkt_matrix`, and only the coupling blocks C and R of the hyperplanes
held at equality differ. Entry points:

  restricted_newton_step: one active piece's manifold-restricted system;
  newton_solve: the manifold-restricted iteration, taking the step of every
      active piece and checking that their (x, y) parts agree (the gluing
      identity), with identification and strict-positivity monitors. It runs
      on any number k_bar >= 1 of active pieces: on one piece with ell
      active hyperplanes it is the local SQP iteration of a nonlinear
      program, and with ell = 0 classical Newton on the piece's stationarity
      equations (method smooth);
  solve_subproblem_enum: direction finding by enumeration of candidate active
      structures (piece, active hyperplane subset) of the linearized model.
      It returns its critical pairs: H d + Jac^T y = 0 with y in
      dh(c + Jac d). Each face (the subset with the signs off it) is solved
      and tested once, by its first piece, and later pieces skip it. The
      membership test alone decides, since for a continuous h it already
      makes the multipliers of every active piece nonnegative. Singular faces
      are solved piece by piece;
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
that point shares it: the restricted steps of all pieces, the monitors, the
enumeration subproblem and the KKT residual. The linearization made for the
residual of (x_{k+1}, y_{k+1}) is the one step k+1 uses.

A solve is single-threaded and owns its mutable trace; distinct solves over
the immutable problem objects may run concurrently. The per-piece restricted
steps within one iteration share only immutable inputs and are joined by the
gluing check, so they could execute in parallel.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .calculus import subdiff_hrep_at
from .composite import CompositeProblem, kkt_residual
from .errors import DivergenceError, PreconditionError, RegimeError, SchemaError, StepError
from .exprmap import Linearization
from .manifold import ManifoldData, build_manifold, build_manifold_at
from .numerics import as_vector, nullspace_basis
from .plq import eval_with_active

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
class RestrictedState:
    """Primal-dual point plus the per-piece block multipliers."""

    x: np.ndarray
    y: np.ndarray
    mu_blocks: np.ndarray  # (k_bar, ell)


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
    them the matrix is the (n + m) square system of a smooth piece.
    """
    m, n = jac.shape
    ell = 0 if cols is None else cols.shape[1]
    M = np.zeros((n + m + ell, n + m + ell))
    M[:n, :n] = H
    M[:n, n:n + m] = jac.T
    M[n:n + m, :n] = -Q @ jac
    np.fill_diagonal(M[n:n + m, n:n + m], 1.0)
    if ell:
        M[n:n + m, n + m:] = -cols
        M[n + m:, :n] = rows
    return M


def reduced_min_eigs(Z, jac, H, Qs):
    """Minimum eigenvalue of the reduced matrix Z^T (Jac^T Q Jac + H) Z for
    each Q in Qs, or None when Z has no columns."""
    if Z.shape[1] == 0:
        return None
    eigs = []
    for Q in Qs:
        G = Z.T @ (jac.T @ Q @ jac + H) @ Z
        G = 0.5 * (G + G.T)
        eigs.append(float(np.linalg.eigvalsh(G)[0]))  # ascending
    return eigs


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


def restricted_newton_step(p: CompositeProblem, md: ManifoldData,
                           state: RestrictedState, j: int,
                           lin: Linearization | None = None) -> RestrictedState:
    """Solve the j-th restricted linear system at the state's (x, y).

    The unknowns are the full (x, y, mu_j); rows are the linearized
    stationarity equation, the piece-j subgradient equation at the linearized
    point, and the manifold equation pinning the linearized point to the
    manifold's affine hull. `lin` is the linearization p.c.evaluate(x, y) at
    the state's pair, made here when not given. On a one-piece manifold this
    is the local SQP step of the nonlinear program whose constraints are the
    active hyperplanes, and classical Newton when there are none.
    """
    x_hat = as_vector(state.x, p.n, "x")
    y_hat = as_vector(state.y, p.m, "y")
    cx, jac, H = p.c.evaluate(x_hat, y_hat) if lin is None else lin
    n, m = p.n, p.m
    piece = md.piece(j)
    jx = jac @ x_hat
    rhs = [H @ x_hat, piece.Q @ (cx - jx) + piece.b]
    rows = None
    if md.ell:  # the manifold equation
        rows = md.A.T @ jac
        rhs.append(md.A.T @ (md.base_point - cx + jx))
    try:
        sol = np.linalg.solve(kkt_matrix(H, jac, piece.Q, md.AP(j), rows), np.concatenate(rhs))
    except np.linalg.LinAlgError:
        raise StepError(f"restricted system for piece block {j} is singular") from None
    mu = state.mu_blocks.copy()
    mu[j] = sol[n + m:]
    return RestrictedState(sol[:n], sol[n:n + m], mu)


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

    def step(k, x, y, lin):
        nonlocal mu
        state = RestrictedState(x, y, mu)
        try:
            results = [restricted_newton_step(p, md, state, j, lin) for j in range(md.kbar)]
        except StepError:
            if md.ell:
                raise
            raise StepError(f"smooth system singular at iteration {k}") from None
        new = results[-1]
        prof = eval_with_active(p.h, lin.c + lin.J @ (new.x - x))
        on_manifold = md.matches(prof.active_pieces, prof.active_set)
        if md.kbar == 1 and not on_manifold:
            where = "face" if md.ell else "interior"
            raise RegimeError(f"linearized point left the {where} of piece "
                              f"{md.active_pieces[0]} at iteration {k}")
        gap = 0.0
        for i in range(md.kbar):
            for j in range(i + 1, md.kbar):
                gap = max(gap, float(np.linalg.norm(results[i].x - results[j].x)
                                     + np.linalg.norm(results[i].y - results[j].y)))
        # One piece has no pair to glue: gap 0 passes without the scale.
        if gap and gap > GLUE_FAIL * (1.0 + float(np.linalg.norm(x)) + float(np.linalg.norm(y))):
            raise DivergenceError(
                f"gluing identity failed at iteration {k}: cross-piece gap {gap:g}")
        mu = np.array([r.mu_blocks[j] for j, r in enumerate(results)])
        return new.x, new.y, dict(
            mu=mu, on_manifold=on_manifold, lin_active=prof.active_pieces,
            model_check=lambda: _model_sosc_ok(md.A.T @ lin.J, lin.J, lin.H,
                                               [md.piece(j).Q for j in range(md.kbar)]),
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
    return build_manifold(p.h, lin.c + lin.J @ sols[0].d)


# -- structure enumeration ------------------------------------------------------


@dataclass
class SubproblemSolution:
    d: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    piece: int
    active_set: tuple
    model_value: float
    model_sosc_ok: bool
    unique: bool
    alternate: tuple | None  # a second (d, y) on the same solution family

    def key(self):
        return (round(self.model_value, 12), self.piece)


def solve_subproblem_enum(p: CompositeProblem, x_hat, H, lin: Linearization | None = None):
    """All critical pairs of the linearized model over candidate active
    structures (piece, subset of hyperplanes held at equality).

    H is the model Hessian. The model linearizes c at x_hat: its value and
    Jacobian come from `lin` when given (a linearization at x_hat), and from
    one first-order sweep otherwise. A critical pair (d, y) solves
    H d + Jac^T y = 0 with y in dh(c_lin), c_lin = c + Jac d.

    Structures are visited piece by piece, subsets inside. A face is a subset
    S with the signs off S; its pieces differ there by elements of
    span{a_j : j in S}, so their equality KKT systems share (d, y). The first
    piece on a face solves its system and `_consistent` decides the face:
    that piece active at c_lin and y in dh(c_lin). Membership alone decides,
    with no test of the multipliers' signs: for a continuous h it already
    makes every active piece's multipliers nonnegative, up to its slack.
    Later pieces skip a solved face. A singular face (a solve with a second
    point on its solution family) is solved and tested piece by piece, and
    its pairs are reported as non-unique with that point. A (d, y) is
    accepted once. Results are sorted by model value, ties by piece.
    """
    x_hat = as_vector(x_hat, p.n, "x")
    H = np.atleast_2d(np.asarray(H, dtype=float))
    cx, jac, _ = p.c.evaluate(x_hat) if lin is None else lin
    h = p.h
    A_all, alpha = h.hyperplane_matrix()
    n, m, s = p.n, p.m, h.n_hyperplanes
    # Per subset S: S as a list and as a bit mask, the linearized rows and the
    # last rhs block.
    blocks = {}
    for S in itertools.chain.from_iterable(itertools.combinations(range(s), r)
                                           for r in range(s + 1)):
        blocks[S] = (list(S), sum(1 << j for j in S),
                     np.array([a @ jac for a in A_all[list(S)]]).reshape(len(S), n),
                     np.array([alpha[j] - A_all[j] @ cx for j in S]))
    solved, out, found = set(), [], np.empty((0, n + m))
    for k in range(h.n_pieces):
        signs, Q, b = h.pieces[k].signs, h.pieces[k].Q, h.pieces[k].b
        # Signs as a bit mask (bit j for +1), signed normals and rhs head.
        plus = sum(1 << j for j in range(s) if signs[j] > 0)
        cols_all, head = signs[:, None] * A_all, np.concatenate([np.zeros(n), Q @ cx + b])
        for S, (idx, mask, rows, rhs_S) in blocks.items():
            face = (S, plus & ~mask)  # S with the signs off S
            if face in solved:
                continue
            sol, alt = _solve_possibly_singular(kkt_matrix(H, jac, Q, cols_all[idx].T, rows),
                                                np.concatenate([head, rhs_S]))
            if sol is None:
                continue
            if alt is None:
                solved.add(face)
            prof = _consistent(p, k, sol, cx, jac)
            if prof is None:
                continue
            d, y = sol[:n], sol[n:n + m]
            if out and np.any(np.linalg.norm(found[:, :n] - d, axis=1)
                              + np.linalg.norm(found[:, n:] - y, axis=1) <= 1e-9):
                continue
            alternate = None
            if alt is not None and _consistent(p, k, alt, cx, jac) is not None:
                alternate = (alt[:n], alt[n:n + m])
            out.append(SubproblemSolution(
                d=d, y=y, lam=sol[n + m:], piece=k, active_set=S,
                model_value=prof.value.value + 0.5 * float(d @ H @ d),
                model_sosc_ok=_model_sosc_ok(A_all[list(prof.active_set)] @ jac, jac, H,
                                             [h.pieces[j].Q for j in prof.active_pieces]),
                unique=alternate is None, alternate=alternate))
            found = np.vstack([found, sol[:n + m]])
    out.sort(key=SubproblemSolution.key)
    return out


def _solve_possibly_singular(M, rhs, tol=1e-9):
    """(solution, alternate solution or None), or (None, None) when the
    system is singular and inconsistent.

    Uses the pseudoinverse when the system is singular; a consistent singular
    system yields the minimum-norm solution plus a second point along the
    nullspace to witness non-uniqueness.
    """
    scale = 1.0 + float(np.linalg.norm(M))
    u, sv, vt = np.linalg.svd(M)
    rank = int(np.sum(sv > 1e-11 * scale))
    if rank == M.shape[0]:
        return vt.T @ ((u.T @ rhs) / sv), None
    sv_inv = np.where(sv > 1e-11 * scale, 1.0 / np.where(sv > 0, sv, 1.0), 0.0)
    sol = vt.T @ (sv_inv * (u.T @ rhs))
    if float(np.linalg.norm(M @ sol - rhs)) > tol * scale:
        return None, None
    return sol, sol + 0.05 * vt[rank]


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

    B_schedule(k, x, y, trace) must return a symmetric n x n matrix; None
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
        if B.shape != (p.n, p.n) or np.max(np.abs(B - B.T)) > 1e-10:
            raise StepError("B schedule must produce symmetric n x n matrices")
        sols = solve_subproblem_enum(p, x, B, lin)
        if not sols:
            raise StepError(f"no consistent critical pair at iteration {k}")
        best = sols[0]
        step_norm = float(np.linalg.norm(np.concatenate([best.d, best.y - y])))
        dm = None
        if step_norm > 1e-300:
            dm = float(np.linalg.norm((B - lin.H) @ best.d) / step_norm)
        lin_active = eval_with_active(p.h, lin.c + lin.J @ best.d).active_pieces
        return x + best.d, best.y, dict(dm_ratio=dm, model_check=best.model_sosc_ok,
                                        lin_active=lin_active)

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
