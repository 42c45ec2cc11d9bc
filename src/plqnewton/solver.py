"""Newton and quasi-Newton local solvers for PLQ convex-composite problems.

Four entry points:

  restricted_newton_step: one linear solve of the manifold-restricted system
      for one active piece;
  newton_solve: full manifold-restricted Newton iteration, taking the step of
      every active piece each iteration and checking that their (x, y) parts
      agree (the gluing identity); records the manifold-identification and
      strict-positivity monitors;
  solve_subproblem_enum: direction finding by enumeration of candidate active
      structures (piece, active hyperplane subset) of the linearized model;
  quasi_newton_solve / smooth_newton_solve: the structure-enumerating
      iteration with user-supplied Hessian models, and classical Newton on
      the stationarity equations of a single smooth piece.

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
import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import subdiff_hrep
from .composite import CompositeProblem, kkt_residual
from .errors import DivergenceError, RegimeError, StepError
from .exprmap import Linearization
from .manifold import ManifoldData, build_manifold, manifold_contains
from .numerics import as_vector, nullspace_basis
from .plq import eval_with_active

GLUE_FAIL = 1e-8


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-12
    max_iter: int = 50
    divergence_factor: float = 1e6

    def converged(self, res) -> bool:
        return res.stationarity <= self.tol and res.subdiff_violation <= self.tol


@dataclass
class RestrictedState:
    """Primal-dual point plus the per-piece block multipliers."""

    x: np.ndarray
    y: np.ndarray
    mu_blocks: np.ndarray  # (k_bar, ell)

    def copy(self):
        return RestrictedState(self.x.copy(), self.y.copy(), self.mu_blocks.copy())


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
    model_sosc_ok: bool | None = None
    lin_active: tuple | None = None  # active pieces of the linearized point


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
                  + ["stat_res", "sub_viol", "err", "dm_ratio", "on_manifold"])
        def fmt(v):
            return repr(float(v))

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for r in self.rows:
                mu_vals = [] if r.mu is None else [fmt(v) for v in r.mu.reshape(-1)]
                w.writerow([r.k] + [fmt(v) for v in r.x] + [fmt(v) for v in r.y]
                           + mu_vals
                           + [fmt(r.stat_res), fmt(r.sub_viol),
                              "" if r.err is None else fmt(r.err),
                              "" if r.dm_ratio is None else fmt(r.dm_ratio),
                              "" if r.on_manifold is None else int(r.on_manifold)])


def _initial_mu(p: CompositeProblem, md: ManifoldData, cx, y) -> np.ndarray:
    """Default block multipliers from the projection of c(x) onto the manifold's
    affine hull, clipped at zero."""
    A_all, alpha = p.h.hyperplane_matrix()
    act = list(md.active_hyperplanes)
    Ar = A_all[act]
    resid = Ar @ cx - alpha[act]
    proj = cx - Ar.T @ np.linalg.solve(Ar @ Ar.T, resid)
    AtA = md.A.T @ md.A
    blocks = np.empty((md.kbar, md.ell))
    for j in range(md.kbar):
        pc = md.piece(j)
        blocks[j] = md.P[j] * np.linalg.solve(AtA, md.A.T @ (y - pc.Q @ proj - pc.b))
    return np.maximum(blocks, 0.0)


def restricted_newton_step(p: CompositeProblem, md: ManifoldData,
                           state: RestrictedState, j: int,
                           lin: Linearization | None = None) -> RestrictedState:
    """Solve the j-th restricted linear system at the state's (x, y).

    The unknowns are the full (x, y, mu_j); rows are the linearized
    stationarity equation, the piece-j subgradient equation at the linearized
    point, and the manifold equation pinning the linearized point to the
    manifold's affine hull. `lin` is the linearization p.c.evaluate(x, y) at
    the state's pair, made here when not given.
    """
    x_hat = as_vector(state.x, p.n, "x")
    y_hat = as_vector(state.y, p.m, "y")
    cx, jac, H = p.c.evaluate(x_hat, y_hat) if lin is None else lin
    n, m, ell = p.n, p.m, md.ell
    Q = md.piece(j).Q
    b = md.piece(j).b
    M = np.zeros((n + m + ell, n + m + ell))
    M[:n, :n] = H
    M[:n, n:n + m] = jac.T
    M[n:n + m, :n] = -Q @ jac
    M[n:n + m, n:n + m] = np.eye(m)
    M[n:n + m, n + m:] = -md.AP(j)
    M[n + m:, :n] = md.A.T @ jac
    rhs = np.concatenate([
        H @ x_hat,
        Q @ (cx - jac @ x_hat) + b,
        md.A.T @ (md.base_point - cx + jac @ x_hat),
    ])
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        raise StepError(f"restricted system for piece block {j} is singular") from None
    new = state.copy()
    new.x = sol[:n]
    new.y = sol[n:n + m]
    new.mu_blocks = state.mu_blocks.copy()
    new.mu_blocks[j] = sol[n + m:]
    return new


def newton_solve(p: CompositeProblem, md: ManifoldData | None, start, opts: SolveOptions,
                 reference=None) -> IterationTrace:
    """Manifold-restricted Newton iteration with gluing across active pieces.

    `start` is (x0, y0) or (x0, y0, mu0). When md is None the manifold is
    built from the first linearized point of a structure-enumeration step.
    """
    x = as_vector(start[0], p.n, "x0")
    y = as_vector(start[1], p.m, "y0")
    lin = p.c.evaluate(x, y)
    if md is None:
        md = _bootstrap_manifold(p, x, y, lin)
    if not md.nondegenerate:
        raise RegimeError("degenerate manifold matrix A")
    if len(start) > 2 and start[2] is not None:
        mu0 = np.asarray(start[2], dtype=float).reshape(md.kbar, md.ell)
    else:
        mu0 = _initial_mu(p, md, lin.c, y)
    state = RestrictedState(x, y, mu0)
    trace = IterationTrace(method="newton")
    res = kkt_residual(p, x, y, lin)
    trace.append(TraceRow(0, x.copy(), y.copy(), mu0.copy(), res.stationarity,
                          res.subdiff_violation, _err(reference, x, y), None, None,
                          mu_min=float(np.min(mu0))))
    if opts.converged(res):
        trace.converged = True
        return trace
    x0_norm = 1.0 + float(np.linalg.norm(x))

    for k in range(1, opts.max_iter + 1):
        results = [restricted_newton_step(p, md, state, j, lin) for j in range(md.kbar)]
        gap = 0.0
        for i in range(md.kbar):
            for j in range(i + 1, md.kbar):
                gap = max(gap, float(np.linalg.norm(results[i].x - results[j].x)
                                     + np.linalg.norm(results[i].y - results[j].y)))
        scale = 1.0 + float(np.linalg.norm(state.x)) + float(np.linalg.norm(state.y))
        if gap > GLUE_FAIL * scale:
            raise DivergenceError(
                f"gluing identity failed at iteration {k}: cross-piece gap {gap:g}")
        new_x = results[-1].x
        new_y = results[-1].y
        new_mu = np.vstack([results[j].mu_blocks[j] for j in range(md.kbar)])

        c_lin = lin.c + lin.J @ (new_x - state.x)
        on_mf = manifold_contains(md, c_lin)
        lin_active = eval_with_active(p.h, c_lin).active_pieces
        model_ok = _model_sosc_ok(p, md, lin.J, lin.H)
        lin = p.c.evaluate(new_x, new_y)
        res = kkt_residual(p, new_x, new_y, lin)
        state = RestrictedState(new_x, new_y, new_mu)
        trace.append(TraceRow(k, new_x.copy(), new_y.copy(), new_mu.copy(),
                              res.stationarity, res.subdiff_violation,
                              _err(reference, new_x, new_y), None, on_mf,
                              mu_min=float(np.min(new_mu)), gluing_gap=gap,
                              model_sosc_ok=model_ok, lin_active=lin_active))
        if opts.converged(res):
            trace.converged = True
            return trace
        if np.linalg.norm(new_x) > opts.divergence_factor * x0_norm:
            raise DivergenceError("iterates diverged beyond the guard radius")
    trace.message = "max_iter reached"
    return trace


def _err(reference, x, y):
    if reference is None:
        return None
    xbar, ybar = reference
    return float(np.linalg.norm(x - xbar) + np.linalg.norm(y - ybar))


def _model_sosc_ok(p, md, jac, H) -> bool:
    Z = nullspace_basis(md.A.T @ jac)
    if Z.shape[1] == 0:
        return True
    for j in range(md.kbar):
        G = Z.T @ (jac.T @ md.piece(j).Q @ jac + H) @ Z
        G = 0.5 * (G + G.T)
        if np.min(np.linalg.eigvalsh(G)) <= 0:
            return False
    return True


def _bootstrap_manifold(p, x, y, lin) -> ManifoldData:
    """Manifold from the first linearized point of an enumeration step."""
    sols = solve_subproblem_enum(p, x, y, lin.H, lin)
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
    residual: float

    def key(self):
        return (round(self.model_value, 12), self.piece)


def solve_subproblem_enum(p: CompositeProblem, x_hat, y_hat, H,
                          lin: Linearization | None = None):
    """All consistent critical pairs of the linearized model over candidate
    active structures (piece, subset of hyperplanes held at equality).

    H is the model Hessian. The model linearizes c at x_hat: its value and
    Jacobian come from `lin` when given (a linearization at x_hat), and from
    one first-order sweep otherwise.

    Each structure's equality KKT system is solved; multiplier signs and
    piece feasibility of the linearized point are checked afterwards, as is
    membership of y in the subdifferential at the linearized point. Singular
    but consistent systems are reported as non-unique with a second point on
    the solution family. Results are sorted by model value, ties by piece.
    """
    x_hat = as_vector(x_hat, p.n, "x")
    H = np.atleast_2d(np.asarray(H, dtype=float))
    cx, jac, _ = p.c.evaluate(x_hat) if lin is None else lin
    h = p.h
    A_all, alpha = h.hyperplane_matrix()
    s = h.n_hyperplanes
    n, m = p.n, p.m
    out = []
    seen = []
    for k in range(h.n_pieces):
        signs = h.pieces[k].signs
        Q, b = h.pieces[k].Q, h.pieces[k].b
        for subset in _subsets(s):
            na = len(subset)
            dim = n + m + na
            M = np.zeros((dim, dim))
            rhs = np.zeros(dim)
            M[:n, :n] = H
            M[:n, n:n + m] = jac.T
            M[n:n + m, :n] = -Q @ jac
            M[n:n + m, n:n + m] = np.eye(m)
            for t, jdx in enumerate(subset):
                M[n:n + m, n + m + t] = -signs[jdx] * A_all[jdx]
            rhs[n:n + m] = Q @ cx + b
            for t, jdx in enumerate(subset):
                M[n + m + t, :n] = A_all[jdx] @ jac
                rhs[n + m + t] = alpha[jdx] - A_all[jdx] @ cx
            sol, extra, resid = _solve_possibly_singular(M, rhs)
            if sol is None:
                continue
            entry = _consistent_entry(p, h, k, subset, sol, extra, resid, cx, jac, H, x_hat)
            if entry is None:
                continue
            if any(np.linalg.norm(entry.d - q.d) + np.linalg.norm(entry.y - q.y) <= 1e-9
                   for q in seen):
                continue
            seen.append(entry)
            out.append(entry)
    out.sort(key=SubproblemSolution.key)
    return out


def _subsets(s):
    from itertools import combinations

    for r in range(s + 1):
        for combo in combinations(range(s), r):
            yield combo


def _solve_possibly_singular(M, rhs, tol=1e-9):
    """(solution, alternate solution or None, residual).

    Uses the pseudoinverse when the system is singular; a consistent singular
    system yields the minimum-norm solution plus a second point along the
    nullspace to witness non-uniqueness.
    """
    scale = 1.0 + float(np.linalg.norm(M))
    if M.shape[0] == M.shape[1]:
        u, sv, vt = np.linalg.svd(M)
        rank = int(np.sum(sv > 1e-11 * scale))
        if rank == M.shape[0]:
            sol = vt.T @ ((u.T @ rhs) / sv)
            return sol, None, float(np.linalg.norm(M @ sol - rhs))
        sv_inv = np.where(sv > 1e-11 * scale, 1.0 / np.where(sv > 0, sv, 1.0), 0.0)
        sol = vt.T @ (sv_inv * (u.T @ rhs))
        resid = float(np.linalg.norm(M @ sol - rhs))
        if resid > tol * scale:
            return None, None, resid  # inconsistent
        null_dir = vt[rank] if rank < M.shape[0] else None
        alt = sol + 0.05 * null_dir if null_dir is not None else None
        return sol, alt, resid
    raise ValueError("system must be square")


def _consistent_entry(p, h, k, subset, sol, alt, resid, cx, jac, H, x_hat):
    n, m = p.n, p.m
    d = sol[:n]
    y = sol[n:n + m]
    lam = sol[n + m:]
    if lam.size and np.min(lam) < -1e-8:
        return None
    c_lin = cx + jac @ d
    prof = eval_with_active(h, c_lin)
    if not prof.is_finite or k not in prof.active_pieces:
        return None
    sub = subdiff_hrep(h, c_lin)
    if not sub.contains(y, slack=1e-7):
        return None
    model_value = prof.value.value + 0.5 * float(d @ H @ d)
    model_ok = _structure_model_sosc(p, h, prof, c_lin, jac, H)
    alternate = None
    unique = alt is None
    if alt is not None:
        d2, y2 = alt[:n], alt[n:n + m]
        lam2 = alt[n + m:]
        c_lin2 = cx + jac @ d2
        prof2 = eval_with_active(h, c_lin2)
        if (not lam2.size or np.min(lam2) >= -1e-8) and prof2.is_finite \
                and k in prof2.active_pieces and subdiff_hrep(h, c_lin2).contains(y2, slack=1e-7):
            alternate = (d2, y2)
        unique = alternate is None
    return SubproblemSolution(d=d, y=y, lam=lam, piece=k, active_set=tuple(subset),
                              model_value=model_value, model_sosc_ok=model_ok,
                              unique=unique, alternate=alternate, residual=resid)


def _structure_model_sosc(p, h, prof, c_lin, jac, H) -> bool:
    """Reduced model curvature on the nullspace of the active rows at the
    linearized point, over every piece active there."""
    act = h.active_hyperplane_set(c_lin)
    A_all, _ = h.hyperplane_matrix()
    rows = A_all[list(act)] @ jac if act else np.zeros((0, p.n))
    Z = nullspace_basis(rows)
    if Z.shape[1] == 0:
        return True
    for k2 in prof.active_pieces:
        G = Z.T @ (jac.T @ h.pieces[k2].Q @ jac + H) @ Z
        G = 0.5 * (G + G.T)
        if np.min(np.linalg.eigvalsh(G)) <= 0:
            return False
    return True


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
    lin = p.c.evaluate(x, y)
    res = kkt_residual(p, x, y, lin)
    trace.append(TraceRow(0, x.copy(), y.copy(), None, res.stationarity,
                          res.subdiff_violation, _err(reference, x, y), None, None))
    if opts.converged(res):
        trace.converged = True
        return trace
    x0_norm = 1.0 + float(np.linalg.norm(x))
    for k in range(1, opts.max_iter + 1):
        B = lin.H if B_schedule is None else B_schedule(k - 1, x, y, trace)
        B = np.atleast_2d(np.asarray(B, dtype=float))
        if B.shape != (p.n, p.n) or np.max(np.abs(B - B.T)) > 1e-10:
            raise StepError("B schedule must produce symmetric n x n matrices")
        sols = solve_subproblem_enum(p, x, y, B, lin)
        if not sols:
            raise StepError(f"no consistent critical pair at iteration {k}")
        best = sols[0]
        step = np.concatenate([best.d, best.y - y])
        step_norm = float(np.linalg.norm(step))
        dm = None
        if step_norm > 1e-300:
            dm = float(np.linalg.norm((B - lin.H) @ best.d) / step_norm)
        c_lin = lin.c + lin.J @ best.d
        lin_active = eval_with_active(p.h, c_lin).active_pieces
        x = x + best.d
        y = best.y
        lin = p.c.evaluate(x, y)
        res = kkt_residual(p, x, y, lin)
        trace.append(TraceRow(k, x.copy(), y.copy(), None, res.stationarity,
                              res.subdiff_violation, _err(reference, x, y), dm, None,
                              model_sosc_ok=best.model_sosc_ok, lin_active=lin_active))
        if opts.converged(res):
            trace.converged = True
            return trace
        if np.linalg.norm(x) > opts.divergence_factor * x0_norm:
            raise DivergenceError("iterates diverged beyond the guard radius")
    trace.message = "max_iter reached"
    return trace


def smooth_newton_solve(p: CompositeProblem, start, opts: SolveOptions,
                        reference=None) -> IterationTrace:
    """Classical Newton on the stationarity equations of one smooth piece.

    Requires the start and every linearized point to stay strictly inside the
    single active piece; leaving it raises RegimeError so callers can fall
    back to the structure-enumerating solver.
    """
    x = as_vector(start[0], p.n, "x0")
    if len(start) > 1 and start[1] is not None:
        y = as_vector(start[1], p.m, "y0")
    else:
        y = None
    cx = p.c.value(x)
    prof = eval_with_active(p.h, cx)
    if prof.kbar != 1 or prof.ell != 0:
        raise RegimeError("start is not strictly inside a single piece")
    k0 = prof.active_pieces[0]
    Q, b = p.h.pieces[k0].Q, p.h.pieces[k0].b
    if y is None:
        y = Q @ cx + b
    trace = IterationTrace(method="smooth-newton")
    lin = p.c.evaluate(x, y)
    res = kkt_residual(p, x, y, lin)
    trace.append(TraceRow(0, x.copy(), y.copy(), None, res.stationarity,
                          res.subdiff_violation, _err(reference, x, y), None, True))
    if opts.converged(res):
        trace.converged = True
        return trace
    x0_norm = 1.0 + float(np.linalg.norm(x))
    n, m = p.n, p.m
    for k in range(1, opts.max_iter + 1):
        cx, jac, H = lin
        g = np.concatenate([jac.T @ y, y - Q @ cx - b])
        M = np.zeros((n + m, n + m))
        M[:n, :n] = H
        M[:n, n:] = jac.T
        M[n:, :n] = -Q @ jac
        M[n:, n:] = np.eye(m)
        try:
            delta = np.linalg.solve(M, -g)
        except np.linalg.LinAlgError:
            raise StepError(f"smooth system singular at iteration {k}") from None
        dx, dy = delta[:n], delta[n:]
        c_lin = cx + jac @ dx
        prof_lin = eval_with_active(p.h, c_lin)
        if prof_lin.active_pieces != (k0,) or prof_lin.ell != 0:
            raise RegimeError(
                f"linearized point left the interior of piece {k0} at iteration {k}")
        x = x + dx
        y = y + dy
        lin = p.c.evaluate(x, y)
        res = kkt_residual(p, x, y, lin)
        trace.append(TraceRow(k, x.copy(), y.copy(), None, res.stationarity,
                              res.subdiff_violation, _err(reference, x, y), None, True,
                              lin_active=prof_lin.active_pieces))
        if opts.converged(res):
            trace.converged = True
            return trace
        if np.linalg.norm(x) > opts.divergence_factor * x0_norm:
            raise DivergenceError("iterates diverged beyond the guard radius")
    trace.message = "max_iter reached"
    return trace
