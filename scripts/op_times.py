"""Per-op CPU times of a perfbench workload, for a paired size of a change.

Usage: python scripts/op_times.py WORKLOAD ROUNDS REPEATS [--seed SEED]

Sets WORKLOAD up as perfbench/run.py does (problem files written and loaded
with validation, one untimed op of each kind), then issues every op of
rounds 0 .. ROUNDS - 1 REPEATS times in one process, a pass over all ops per
repeat, and times each issue in CPU seconds (`time.process_time`). An op's
size is its minimum over the repeats, which drift and other processes on the
host can only raise. Prints, per op kind, the number of ops and the median
and mean of their sizes in ms; the last line is the same as one JSON object.
Run it in two checkouts to compare them op for op. Exits 1 when an op gives
an answer perfbench counts as wrong.
"""

import argparse
import importlib.util
import json
import pathlib
import statistics
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
# perfbench/run.py pins the BLAS thread pools when it loads, before numpy.
_spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
perfbench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_run)


def op_times(workload, rounds, repeats, seed):
    """({kind: [size of each op in s]}, [wrong (op, outcome)])."""
    bench = perfbench_run.Bench(perfbench_run.WORKLOADS[workload], seed)
    with tempfile.TemporaryDirectory() as tmp:
        bench.dir = pathlib.Path(tmp)
        bench.setup()
    bench.warm_up()
    ops = [op for r in range(rounds) for op in bench.workload.round(seed, r)]
    sizes, wrong = [float("inf")] * len(ops), []
    for _ in range(repeats):
        for i, op in enumerate(ops):
            t0 = time.process_time()
            out = bench.run_op(op)
            sizes[i] = min(sizes[i], time.process_time() - t0)
            if not bench.correct(op, out):
                wrong.append((op, out))
    by_kind = {}
    for op, size in zip(ops, sizes):
        by_kind.setdefault(op.kind, []).append(size)
    return by_kind, wrong


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(perfbench_run.WORKLOADS))
    ap.add_argument("rounds", type=int)
    ap.add_argument("repeats", type=int)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.repeats < 1:
        ap.error("ROUNDS and REPEATS must be at least 1")
    by_kind, wrong = op_times(args.workload, args.rounds, args.repeats, args.seed)
    print(f"# {args.workload} seed {args.seed}: rounds 0-{args.rounds - 1}, "
          f"min CPU time of {args.repeats} repeats per op")
    summary = {}
    for kind in perfbench_run.KINDS:
        ms = [1e3 * s for s in by_kind.get(kind, [])]
        if ms:
            summary[kind] = {"ops": len(ms), "median_ms": statistics.median(ms),
                             "mean_ms": statistics.fmean(ms)}
            print(f"{kind:8s} ops {len(ms):4d}  median {summary[kind]['median_ms']:9.4f} ms  "
                  f"mean {summary[kind]['mean_ms']:9.4f} ms")
    for op, out in wrong:
        print(f"# WRONG {op.kind} {op.problem}: {out} [{op}]", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": args.rounds,
                      "repeats": args.repeats, "wrong": len(wrong), "kinds": summary}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
