"""plqnewton benchmark: per-command latency on seeded workloads, and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload many_kinks --seed 1 --seconds 30 --trace 1

One process, one thread, one caller in a closed loop. Set-up writes the
workload's problem files and loads each through `load_problem` with
validation on, as the CLI does for a file. The timed pass then issues
`certify` and `solve --method newton|enum|quasi|smooth` at tol 1e-12 through
`cli.run_report`, round after round until `--seconds` have passed, and checks
every answer against the workload's expected outcome. Times are scaled to a
reference speed of the host, measured between ops (see hostspeed.py).

`--trace 0` prints the end-to-end metrics. `--trace 1` replays a fixed number
of rounds twice, untraced and then traced (see tracing.py), and prints the
per-layer metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; everything before it is for
people.
"""

import os
import sys

# Pin BLAS/OpenMP pools to one thread before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hostspeed import ReferenceClock  # noqa: E402
from workloads import CERTIFIED, CONVERGED, KINDS, LOCAL, NOT_CERTIFIED, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

TOL = 1e-12
MAX_ITER = 50
PROBES = 200          # load_problem's validation probes, the CLI default
VALIDATE_SEED = 42    # the CLI's default --seed
SETUP_REPS = 3        # set-up runs per run; setup_s is their median
REF_TOL = 1e-8        # a converged solve ends this close to its reference
REFERENCE_EVERY_S = 0.25  # wall seconds between reference timings in the timed pass


@dataclasses.dataclass(frozen=True)
class Outcome:
    exit: int                 # the CLI exit code; -1 for an undocumented exception
    label: str                # verdict, converged/stalled, or exception class
    iterations: int | None = None
    final_err: float | None = None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--flip", metavar="PROBLEM",
                    help="expect the opposite certify verdict at this problem's "
                         "reference (checks that wrong answers are counted)")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "plqnewton" / "__init__.py").is_file():
        print(f"perfbench: no plqnewton sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    bench = Bench(WORKLOADS[args.workload], args.seed, args.flip)
    print_environment()
    if args.trace:
        result = bench.traced()
    else:
        result = bench.timed(args.seconds)
    print(json.dumps(result))
    return 0


def print_environment():
    import scipy

    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    print(f"# python {platform.python_version()} numpy {np.__version__} "
          f"scipy {scipy.__version__} nproc {os.cpu_count()} {threads}")


class Bench:
    def __init__(self, workload, seed, flip=None):
        from plqnewton import cli, errors, problems

        self.cli, self.problems_mod = cli, problems
        self.workload, self.seed, self.flip = workload, seed, flip
        # The CLI's exit-code contract: 2 input error, 3 solver regime error.
        self.input_errors = (errors.SchemaError, errors.ValidationFailure,
                             FileNotFoundError, errors.PreconditionError)
        self.regime_errors = (errors.RegimeError, errors.StepError, errors.DivergenceError)
        self.dir = WORK / f"{workload.name}-{seed}"
        self.problems = {}

    # -- set-up and ops -------------------------------------------------------------

    def setup(self):
        """Write the problem files and load each one with validation; returns seconds."""
        t0 = time.perf_counter()
        paths = self.workload.write(self.seed, self.dir)
        self.problems = {
            path.stem: self.problems_mod.load_problem(
                path, probes=PROBES, validate=True,
                rng=np.random.default_rng(VALIDATE_SEED))
            for path in paths}
        return time.perf_counter() - t0

    def expected(self, op):
        if op.problem == self.flip and op.kind == "certify" and op.point is None:
            return NOT_CERTIFIED if op.expect == CERTIFIED else CERTIFIED
        return op.expect

    def run_op(self, op):
        pf = self.problems[op.problem]
        if op.kind == "certify":
            command, opts = "certify", {"seed": op.seed, "point": op.point}
        else:
            pf = dataclasses.replace(
                pf, start_x=np.array(op.start_x),
                start_y=None if op.start_y is None else np.array(op.start_y))
            command = "solve"
            opts = {"method": op.kind, "tol": TOL, "max_iter": MAX_ITER}
        try:
            report, code = self.cli.run_report(pf, command, opts)
        except self.input_errors as err:
            return Outcome(2, type(err).__name__)
        except self.regime_errors as err:
            return Outcome(3, type(err).__name__)
        if command == "certify":
            certified = report["subregularity"]["conclusion"] == "strongly-metrically-subregular"
            return Outcome(code, CERTIFIED if certified else NOT_CERTIFIED)
        return Outcome(code, CONVERGED if report["converged"] else "stalled",
                       report["iterations"], report["errors"][-1])

    def correct(self, op, out):
        """Whether the outcome is an answer the op may give. A solve expected
        to converge may instead stall at max_iter (exit 1) or be refused with
        a documented regime error (exit 3): those are outcomes, counted by
        converged_frac, not failures."""
        expect = self.expected(op)
        if expect == CERTIFIED:
            return out.exit == 0 and out.label == expect
        if expect == NOT_CERTIFIED:
            return out.exit == 1 and out.label == expect
        if expect == CONVERGED:
            if out.exit == 0:
                return out.label == expect and out.final_err <= REF_TOL
            return out.exit in (1, 3)
        if expect == LOCAL:
            return out.exit in (0, 1, 3)
        return out.exit == 3 and out.label == expect

    def issue(self, op, tracer=None):
        """One op, closed loop: (seconds, outcome). An undocumented exception is
        an outcome with exit -1 and is counted as a failure, traceback printed."""
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = self.run_op(op)
            else:
                out = tracer.span(f"bench.{op.kind}", self.run_op, op, op_kind=op.kind)
        except Exception as err:
            traceback.print_exc()
            out = Outcome(-1, f"{type(err).__name__}: {err}")
        return time.perf_counter() - t0, out

    def warm_up(self):
        """One untimed op of each kind, so lazy imports and first-call costs
        stay out of the latencies."""
        seen = set()
        for op in self.workload.round(self.seed, 0):
            if op.kind not in seen:
                seen.add(op.kind)
                self.issue(op)

    def replay(self, rounds, tracer=None):
        """Issue every op of the given rounds; returns (wall seconds, [(op, s, outcome)])."""
        t0 = time.perf_counter()
        log = []
        for r in rounds:
            for op in self.workload.round(self.seed, r):
                dt, out = self.issue(op, tracer)
                log.append((op, dt, out))
        return time.perf_counter() - t0, log

    # -- modes ----------------------------------------------------------------------

    def timed(self, seconds):
        """Set-up and the timed pass. Every time is scaled to the reference
        speed by the reference timings taken around it (see hostspeed.py)."""
        clock = ReferenceClock()
        setups = []
        for _ in range(SETUP_REPS):
            before = clock.measure()
            dt = self.setup()
            setups.append(dt * clock.scales([before, clock.measure()])[0])
        setup_s = statistics.median(setups)
        self.warm_up()
        raw, timings = [], [clock.measure()]   # raw: (op, wall s, outcome, timing index)
        t0 = last = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - t0 < seconds:
            for op in self.workload.round(self.seed, r):
                raw.append((op, *self.issue(op), len(timings) - 1))
                if time.perf_counter() - last >= REFERENCE_EVERY_S:
                    timings.append(clock.measure())
                    last = time.perf_counter()
            r += 1
        timings.append(clock.measure())
        speeds = clock.scales(timings)
        log = [(op, dt * speeds[k], out) for op, dt, out, k in raw]
        wall = time.perf_counter() - t0
        failures = self.report_failures(log)
        metrics = {"setup_s": (setup_s, "s"),
                   "ops_per_s": (len(log) / sum(dt for _, dt, _ in log), "1/s")}
        print(f"# {self.workload.name} seed {self.seed}: {len(log)} ops in {r} rounds, "
              f"{wall:.2f} s wall; set-up median of {SETUP_REPS}: {setup_s:.4f} s; "
              f"host speed / reference speed: median {statistics.median(speeds):.3f}, "
              f"range {min(speeds):.3f}-{max(speeds):.3f} over {len(speeds)} intervals")
        for kind in KINDS:
            lat = sorted(dt * 1e3 for op, dt, _ in log if op.kind == kind)
            tail, pct = tail_of(lat)
            metrics[f"{kind}_p50_ms"] = (statistics.median(lat), "ms")
            metrics[f"{kind}_tail_ms"] = (tail, "ms")
            print(f"#   {kind:8s} n={len(lat):4d} p50 {statistics.median(lat):9.3f} ms  "
                  f"tail p{pct:.1f} {tail:9.3f} ms  max {lat[-1]:9.3f} ms")
        solves = [(op, out) for op, _, out in log if op.kind != "certify"]
        unconverged = [(op, out) for op, out in solves if out.label != CONVERGED]
        metrics["converged_frac"] = (1 - len(unconverged) / len(solves), "frac")
        print(f"#   solves not converged: {len(unconverged)} of {len(solves)}, by outcome: "
              + ", ".join(f"{label} {n}" for label, n in
                          sorted(Counter(out.label for _, out in unconverged).items())))
        for op, out in unconverged:
            if op.expect == CONVERGED:
                print(f"# NOT CONVERGED {op.kind} {op.problem}: {out} [{op}]", file=sys.stderr)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        print(f"#   failed_frac {len(failures) / len(log):.4f} frac "
              f"({len(failures)} of {len(log)} ops)")
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        return result_line(log, failures, metrics)

    def traced(self):
        from tracing import Tracer

        rounds = range(self.workload.trace_rounds)
        self.setup()
        self.warm_up()
        wall_plain, plain = self.replay(rounds)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.span("bench.setup", self.setup, op_kind="setup")
            wall_traced, log = self.replay(rounds, tracer)
        finally:
            tracer.uninstall()
        failures = self.report_failures(plain + log)
        for (op, _, a), (_, _, b) in zip(plain, log):
            if (a.exit, a.label, a.iterations) != (b.exit, b.label, b.iterations):
                print(f"# traced outcome differs: {op}: {a} vs {b}", file=sys.stderr)
                failures.append((op, b))
        if tracer.missing:
            print(f"# not traced (absent from the library): {', '.join(tracer.missing)}")
        self.dir.mkdir(parents=True, exist_ok=True)
        spans_path = self.dir / "spans.txt"
        tracer.write_spans(spans_path)
        print(f"# {self.workload.name} seed {self.seed}: {len(log)} ops traced, "
              f"{len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}; "
              f"untraced {wall_plain:.3f} s, traced {wall_traced:.3f} s")
        summary = tracer.summary()
        layer_self = summary[2]
        total = sum(layer_self.values())
        print("# self-time share per layer: " + ", ".join(
            f"{layer} {t / total:.1%}" for layer, t in
            sorted(layer_self.items(), key=lambda kv: -kv[1])))
        metrics = layer_metrics(summary, tracer.counts, log, wall_traced / wall_plain - 1.0)
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        return result_line(plain + log, failures, metrics)

    def report_failures(self, log):
        failures = [(op, out) for op, _, out in log if not self.correct(op, out)]
        for op, out in failures:
            print(f"# FAILED {op.kind} {op.problem} expected {self.expected(op)}: {out} "
                  f"[{op}]", file=sys.stderr)
        return failures


def tail_of(sorted_samples):
    """(value, percentile) at the highest percentile with at least ten samples
    beyond it. Below 22 samples that would fall under the median, so the upper
    median is used instead."""
    n = len(sorted_samples)
    i = max(n - 11, n // 2)
    return sorted_samples[i], 100.0 * (i + 1) / n


def layer_metrics(summary, counts, log, overhead):
    calls, incl, layer_self, kind_calls = summary
    certify_calls = kind_calls["certify"]
    n_certify = sum(op.kind == "certify" for op, _, _ in log)
    solve_kinds = [k for k in KINDS if k != "certify"]
    iters = sum(out.iterations or 0 for op, _, out in log if op.kind != "certify")
    solve_evals = sum(kind_calls[k][key] for k in solve_kinds
                      for key in ("exprmap.evaluate", "exprmap.value"))

    def self_s(layer):
        return layer_self[layer]

    def per_call_us(key):
        return 1e6 * incl[key] / calls[key] if calls[key] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "problems.load_s": (incl["problems.load_problem"], "s"),
        "plq.eval_with_active.calls": (calls["plq.eval_with_active"], "count"),
        "plq.eval_with_active.us_per_call": (per_call_us("plq.eval_with_active"), "us"),
        "plq.validate_s": (incl["plq.validate_representation"], "s"),
        "plq.self_s": (self_s("plq"), "s"),
        "simplex.lp.calls": (calls["simplex.solve_lp"], "count"),
        "simplex.lp.us_per_call": (per_call_us("simplex.solve_lp"), "us"),
        "simplex.lp.cells": (counts["simplex.lp.cells"], "count"),
        "simplex.lp.infeasible": (counts["simplex.lp.infeasible"], "count"),
        "simplex.lp_per_certify": (ratio(certify_calls["simplex.solve_lp"], n_certify), "1/op"),
        "simplex.self_s": (self_s("simplex"), "s"),
        "calculus.subdiff_hrep.calls": (calls["calculus.subdiff_hrep"], "count"),
        "calculus.cone_generators.calls": (calls["calculus.cone_generators"], "count"),
        "calculus.implicit_equality_mask.calls":
            (calls["calculus.implicit_equality_mask"], "count"),
        "calculus.self_s": (self_s("calculus"), "s"),
        "exprmap.evaluate.calls": (calls["exprmap.evaluate"], "count"),
        "exprmap.value.calls": (calls["exprmap.value"], "count"),
        "exprmap.evaluate.us_per_call": (per_call_us("exprmap.evaluate"), "us"),
        "exprmap.evals_per_iter": (ratio(solve_evals, iters), "1/iter"),
        "exprmap.self_s": (self_s("exprmap"), "s"),
    }
    for fn in ("check_cqs", "multiplier_set", "bcq_holds", "kkt_residual"):
        m[f"composite.{fn}.calls"] = (calls[f"composite.{fn}"], "count")
    m["composite.check_cqs_per_certify"] = (
        ratio(certify_calls["composite.check_cqs"], n_certify), "1/op")
    m["composite.self_s"] = (self_s("composite"), "s")
    m["manifold.build_manifold.calls"] = (calls["manifold.build_manifold"], "count")
    m["certify.certify_sosc.calls"] = (calls["certify.certify_sosc"], "count")
    m["manifold.self_s"] = (self_s("manifold"), "s")
    m["certify.self_s"] = (self_s("certify"), "s")
    for kind in solve_kinds:
        its = [out.iterations for op, _, out in log
               if op.kind == kind and out.iterations is not None]
        m[f"solver.{kind}.iters_p50"] = (statistics.median(its) if its else 0, "iter")
    m["solver.restricted_step.calls"] = (calls["solver.restricted_newton_step"], "count")
    m["solver.enum.calls"] = (calls["solver.solve_subproblem_enum"], "count")
    m["solver.enum.structures"] = (counts["solver.enum.structures"], "count")
    m["solver.enum.consistent"] = (counts["solver.enum.consistent"], "count")
    m["solver.enum.yield"] = (ratio(counts["solver.enum.consistent"],
                                    counts["solver.enum.structures"]), "frac")
    m["solver.regime_errors"] = (sum(out.exit == 3 for _, _, out in log), "count")
    m["solver.self_s"] = (self_s("solver"), "s")
    m["rates.self_s"] = (self_s("rates"), "s")
    m["cli.self_s"] = (self_s("cli"), "s")
    m["trace.overhead_frac"] = (overhead, "frac")
    return m


def result_line(log, failures, metrics):
    return {"correct": not failures, "attempted": len(log), "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
