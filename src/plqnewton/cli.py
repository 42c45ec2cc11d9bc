"""Command-line surface: validate | certify | solve | rate | check-derivs.

Exit codes: 0 pass, 1 certified-failure (the tool ran, the verdict is
negative), 2 input error (the input is malformed or does not meet the
command's preconditions), 3 regime error (the evaluation or the iteration
left the regime where it is defined); errors.INPUT_ERRORS and
errors.REGIME_ERRORS map every package error to 2 or 3, and a file that
cannot be opened, read as UTF-8 or written is an input error. A command takes
--json and the options its report reads (COMMANDS), no other. --seed (default
42, nonnegative) drives the only random draws (`--point random`, which
check-derivs takes without --point, and check-derivs' multipliers), so
reports are byte-stable for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .benchmarks import BENCHMARKS
from .certify import certify_point
from .composite import analyze_point
from .errors import INPUT_ERRORS, REGIME_ERRORS, PreconditionError
from .exprmap import fd_jacobian, fd_weighted_hessian
from .manifold import build_manifold_at, certify_partial_smoothness
from .plq import validate_representation
from .problems import ProblemFile, json_floats, load_problem
from .rates import classify_rate
from .solver import METHODS, SolveOptions, solve

EXIT_PASS = 0
EXIT_CERTIFIED_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_REGIME_ERROR = 3
DERIV_POINTS = 100  # random points of check-derivs' finite-difference comparison


def _resolve_point(pf: ProblemFile, spec: str | None, rng):
    """The evaluation point for certify/check-derivs: a JSON file with {"x":...},
    'random', or the problem's reference solution."""
    if spec is None:
        if pf.reference is not None:
            return pf.reference[0], pf.reference[1]
        raise PreconditionError("no --point given and the problem has no reference solution")
    if spec == "random":
        base = pf.reference[0] if pf.reference is not None else \
            (pf.start_x if pf.start_x is not None else np.zeros(pf.problem.n))
        return base + rng.uniform(-0.5, 0.5, size=pf.problem.n), None
    try:
        with open(spec, encoding="utf-8") as fh:
            doc = json.load(fh)
        x = np.asarray(json_floats(doc["x"]))
        y = np.asarray(json_floats(doc["y"])) if "y" in doc else None
    except (ValueError, KeyError, TypeError, OverflowError) as err:
        raise PreconditionError(f"--point {spec} is not a JSON object with a list of "
                                f"numbers x (and optional y): {type(err).__name__}: {err}") from None
    for name, v, dim in (("x", x, pf.problem.n), ("y", y, pf.problem.m)):
        if v is None:
            continue
        if v.size != dim:
            raise PreconditionError(f"--point {name} has length {v.size}, expected {dim}")
        if not np.all(np.isfinite(v)):
            raise PreconditionError(f"--point {name} has a non-finite entry")
    return x, y


def _rng(opts):
    """The generator of the random draws, seeded by --seed, which must be nonnegative."""
    if opts["seed"] < 0:
        raise PreconditionError(f"--seed must be nonnegative, got {opts['seed']}")
    return np.random.default_rng(opts["seed"])


def report_validate(pf: ProblemFile, opts) -> tuple[dict, int]:
    rep = validate_representation(pf.problem.h)
    code = EXIT_PASS if rep.all_pass else EXIT_INPUT_ERROR
    return {"command": "validate", "problem": pf.name, "report": rep.to_dict(),
            "all_pass": rep.all_pass}, code


def report_certify(pf: ProblemFile, opts) -> tuple[dict, int]:
    spec = opts.get("point")
    rng = _rng(opts) if spec == "random" else None
    x, y = _resolve_point(pf, spec, rng)
    p = pf.problem
    out: dict = {"command": "certify", "problem": pf.name,
                 "x": [float(v) for v in x]}
    pa = analyze_point(p, x)
    cqs, mult = pa.cqs, pa.multipliers
    out["cqs"] = cqs.to_dict()
    out["multiplier_status"] = mult.status
    if mult.note:
        out["multiplier_note"] = mult.note
    if y is None:
        y = mult.y if mult.y is not None else cqs.ybar
    if y is not None:
        out["y"] = [float(v) for v in y]
        res = pa.kkt_residual(y)
        out["kkt_residual"] = {"stationarity": res.stationarity,
                               "subdiff_violation": res.subdiff_violation}
    out["active_pieces"] = list(map(int, pa.prof.active_pieces))
    md = None
    if pa.prof.kbar >= 2 or pa.prof.ell:  # a kink, or a face of one piece
        md = build_manifold_at(p.h, pa.prof, pa.cx)
        out["manifold"] = md.to_dict()
        if y is not None and md.nondegenerate:
            cert = certify_partial_smoothness(md, pa.cx, y)
            if cert.strictness is not None:
                out["strictness"] = cert.strictness.to_dict()
            else:  # the strictness check raised; its message is the one reason
                out["strictness_error"] = cert.reasons[0]
            out["partial_smoothness"] = cert.to_dict()
    sub = certify_point(pa, md)
    out["subregularity"] = sub.to_dict()
    ok = sub.conclusion == "strongly-metrically-subregular"
    return out, EXIT_PASS if ok else EXIT_CERTIFIED_FAILURE


def report_solve(pf: ProblemFile, opts) -> tuple[dict, int]:
    method = opts.get("method") or pf.solver.method
    tol, max_iter = opts.get("tol"), opts.get("max_iter")
    sopts = SolveOptions(tol=pf.solver.tol if tol is None else tol,
                         max_iter=pf.solver.max_iter if max_iter is None else max_iter)
    if pf.start_x is None:
        raise PreconditionError("problem file has no start point")
    trace = solve(pf.problem, method, pf.start_x, pf.start_y, sopts, reference=pf.reference)
    errors = trace.errors(pf.reference)
    verdict = classify_rate(errors)
    out = {
        "command": "solve", "problem": pf.name, "method": method,
        "converged": trace.converged, "iterations": trace.final.k,
        "final_x": [float(v) for v in trace.final.x],
        "final_y": [float(v) for v in trace.final.y],
        "final_residual": {"stationarity": trace.final.stat_res,
                           "subdiff_violation": trace.final.sub_viol},
        "errors": [float(e) for e in errors],
        "error_kind": "distance-to-reference" if pf.reference is not None
                      else "kkt-residual-proxy",
        "rate": verdict.to_dict(),
        "message": trace.message,
    }
    monitors = [r for r in trace.rows[1:] if r.on_manifold is not None]
    if monitors and method == "newton":
        out["identification"] = {
            "linearized_on_manifold": all(bool(r.on_manifold) for r in monitors),
            # None without block multipliers (no active hyperplane).
            "mu_min": min((r.mu_min for r in monitors if r.mu_min is not None), default=None),
            "max_gluing_gap": float(max(r.gluing_gap for r in monitors
                                        if r.gluing_gap is not None)),
        }
    dms = [r.dm_ratio for r in trace.rows if r.dm_ratio is not None]
    if dms:
        out["dm_ratio_final"] = float(dms[-1])
    if opts.get("trace"):
        trace.write_csv(opts["trace"])
        out["trace_csv"] = opts["trace"]
    return out, EXIT_PASS if trace.converged else EXIT_CERTIFIED_FAILURE


def report_rate(pf: ProblemFile, opts) -> tuple[dict, int]:
    out, code = report_solve(pf, opts)
    slim = {k: out[k] for k in ("command", "problem", "method", "converged",
                                "iterations", "errors", "error_kind", "rate")}
    slim["command"] = "rate"
    return slim, code


def report_check_derivs(pf: ProblemFile, opts) -> tuple[dict, int]:
    rng = _rng(opts)
    p = pf.problem
    spec = opts.get("point") or "random"
    worst_jac = 0.0
    worst_hess = 0.0
    trials = DERIV_POINTS if spec == "random" else 1
    for _ in range(trials):
        x, _ = _resolve_point(pf, spec, rng)
        jac = p.c.jacobian(x)
        scale_j = 1.0 + float(np.max(np.abs(jac)))
        worst_jac = max(worst_jac, float(np.max(np.abs(jac - fd_jacobian(p.c, x))) / scale_j))
        y = rng.standard_normal(p.m)
        wh = p.c.weighted_hessian(x, y)
        scale_h = 1.0 + float(np.max(np.abs(wh)))
        worst_hess = max(worst_hess,
                         float(np.max(np.abs(wh - fd_weighted_hessian(p.c, x, y))) / scale_h))
    ok = worst_jac <= 1e-6 and worst_hess <= 1e-5
    out = {"command": "check-derivs", "problem": pf.name, "points": trials,
           "max_jacobian_deviation": worst_jac, "max_hessian_deviation": worst_hess,
           "pass": ok}
    return out, EXIT_PASS if ok else EXIT_CERTIFIED_FAILURE


# Each command's report and the options it reads; every command also takes
# --json, and argparse refuses any other option (exit 2).
SOLVE_OPTIONS = {"--method": {"choices": METHODS}, "--tol": {"type": float},
                 "--max-iter": {"type": int},
                 "--trace": {"help": "write the iteration trace CSV here"}}
POINT_OPTIONS = {"--point": {"help": "JSON file with the evaluation point, or 'random'"},
                 "--seed": {"type": int, "default": 42}}
COMMANDS = {
    "validate": (report_validate, {}),
    "certify": (report_certify, POINT_OPTIONS),
    "solve": (report_solve, SOLVE_OPTIONS),
    "rate": (report_rate, SOLVE_OPTIONS),
    "check-derivs": (report_check_derivs, POINT_OPTIONS),
}


def run_report(pf: ProblemFile, command: str, opts: dict) -> tuple[dict, int]:
    """Dispatch a command on a loaded problem; returns (report, exit code)."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    return COMMANDS[command][0](pf, opts)


def _render(report: dict) -> str:
    lines = [f"== {report.get('command')} {report.get('problem', '')} =="]

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in obj:
                walk(f"{prefix}{k}.", obj[k]) if isinstance(obj[k], dict) \
                    else lines.append(f"{prefix}{k}: {_fmt(obj[k])}")
        else:
            lines.append(f"{prefix}: {_fmt(obj)}")

    for key, val in report.items():
        if key in ("command", "problem"):
            continue
        if isinstance(val, dict):
            walk(f"{key}.", val)
        else:
            lines.append(f"{key}: {_fmt(val)}")
    return "\n".join(lines)


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, list):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    return str(v)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="plqnewton",
                                 description="Newton-type solvers and certificates "
                                             "for PLQ convex-composite problems")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, options) in COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("file", help="problem JSON file or built-in benchmark name")
        for flag, spec in options.items():
            sp.add_argument(flag, **spec)
        sp.add_argument("--json", dest="json_out", help="write the JSON report here")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    opts = vars(args)
    try:
        if args.file in BENCHMARKS:
            from .problems import parse_problem_dict

            pf = parse_problem_dict(BENCHMARKS[args.file]().as_problem_dict())
        else:
            pf = load_problem(args.file, validate=args.command != "validate")
        report, code = run_report(pf, args.command, opts)
        if args.json_out:
            with open(args.json_out, "w") as fh:
                json.dump(report, fh, sort_keys=True, indent=2)
    except INPUT_ERRORS as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except REGIME_ERRORS as err:
        print(f"regime error: {err}", file=sys.stderr)
        return EXIT_REGIME_ERROR
    print(_render(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
