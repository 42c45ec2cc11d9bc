"""Paired per-op CPU times of two checkouts on a perfbench workload.

Usage: python scripts/ab_times.py PARENT CHANGE WORKLOAD ROUNDS REPEATS [--seed SEED]

PARENT and CHANGE are the roots of two checkouts. One worker process is
started per checkout; each imports its checkout's `src/` and `perfbench/`
and sets WORKLOAD up as perfbench/run.py does (problem files written and
loaded with validation, one untimed op of each kind). The driver then sends
every op of rounds 0 .. ROUNDS - 1 to the two workers one at a time, REPEATS
times, in ABBA order (parent first on even steps, change first on odd ones),
and reads back each op's CPU time (`time.process_time`) and outcome. It
does this in two blocks, each on two fresh workers: in the first the
parent's worker is started first, in the second the change's. An op's size
on a side is its minimum over the repeats of both blocks, and its paired
ratio is the change's size over the parent's. So host drift that spans more
than one op moves both sides alike, a steady speed difference between the
two workers of a block (their placement or memory layout) reaches both
sides too, and an A/A run (one checkout as both) reads about 1.

How many rounds: A/A runs at seed 7 with REPEATS 3 (2 shared vCPUs, see
BENCH_array_step.json) put every kind's interval within [0.97, 1.03] at
16 rounds on many_kinks (2 of 2 runs; 8 rounds: 1 of 2; 2 and 4 rounds: 0
of 3), at 32 rounds on wide_map (2 of 2; 16 rounds: 1 of 2; 2 to 8 rounds:
0 of 6) and at 64 rounds on desk (1 of 2; 2 to 32 rounds: 0 of 7). On
desk the ~1 ms certify and smooth ops vary most between repeats. On
wide_map a whole run can still read about 2% off 1 in A/A (32 rounds:
newton 0.979 and 0.981, with 95 and 102 wins of 128), so a wide_map ratio
within 2% of 1 is no move.

Prints, per op kind, the number of ops, the median paired ratio with a 95%
sign-test interval for it, the share of ops the change wins (ratio below
1) and each side's median size; the last line is the same as one JSON
object. Exits 1 when an op gives an answer perfbench counts as wrong on
either side.
"""

import argparse
import json
import math
import pathlib
import statistics
import subprocess
import sys


def worker(checkout, workload, seed, rounds):
    """Serve ops of the workload's rounds 0 .. rounds - 1 by index: one
    index per input line, one JSON reply per line (CPU seconds, whether the
    answer is correct, outcome label). Library output goes to stderr."""
    import importlib.util
    import tempfile
    import time

    root = pathlib.Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    # perfbench/run.py pins the BLAS thread pools when it loads, before numpy.
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    reply, sys.stdout = sys.stdout, sys.stderr
    bench = run.Bench(run.WORKLOADS[workload], seed)
    with tempfile.TemporaryDirectory() as tmp:
        bench.dir = pathlib.Path(tmp)
        bench.setup()
    bench.warm_up()
    ops = [op for r in range(rounds) for op in bench.workload.round(seed, r)]
    print(json.dumps([op.kind for op in ops]), file=reply, flush=True)
    for line in sys.stdin:
        op = ops[int(line)]
        t0 = time.process_time()
        _, out = bench.issue(op)
        cpu = time.process_time() - t0
        print(json.dumps([cpu, bench.correct(op, out), out.label]), file=reply, flush=True)


class Worker:
    def __init__(self, checkout, workload, seed, rounds):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(checkout), workload, str(seed),
             str(rounds)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.kinds = self._read()

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def run(self, i):
        self.proc.stdin.write(f"{i}\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def sign_interval(ratios, level=0.95):
    """The order-statistic interval (lo, hi) that holds the median with at
    least `level` confidence by the sign test; (min, max) when there are too
    few ratios for that."""
    r, n = sorted(ratios), len(ratios)
    k = 0  # the largest k with P(Binomial(n, 1/2) < k) <= (1 - level) / 2
    while k < n // 2 and sum(math.comb(n, j) for j in range(k + 1)) / 2 ** n <= (1 - level) / 2:
        k += 1
    return (r[0], r[-1]) if k == 0 else (r[k - 1], r[n - k])


def ab_times(parent, change, workload, rounds, repeats, seed):
    """(kinds of the ops, [parent size, change size] per op in s, wrong
    (side, op index, label) answers) over two blocks, each on two fresh
    workers: in the first the parent's worker is started first, in the
    second the change's."""
    kinds, sizes, wrong = None, None, []
    for swap in (False, True):  # the second block starts the change's worker first
        workers = [Worker(checkout, workload, seed, rounds)
                   for checkout in ((change, parent) if swap else (parent, change))]
        sides = workers[::-1] if swap else workers
        try:
            if kinds is None:
                kinds = sides[0].kinds
                sizes = [[math.inf, math.inf] for _ in kinds]
            if sides[0].kinds != kinds or sides[1].kinds != kinds:
                raise RuntimeError("the checkouts issue different ops")
            step = 0
            for _ in range(repeats):
                for i in range(len(kinds)):
                    for s in ((0, 1) if step % 2 == 0 else (1, 0)):
                        cpu, correct, label = sides[s].run(i)
                        sizes[i][s] = min(sizes[i][s], cpu)
                        if not correct:
                            wrong.append((("parent", "change")[s], i, label))
                    step += 1
        finally:
            for w in workers:
                w.close()
    return kinds, sizes, wrong


def summarize(kinds, sizes):
    """Per kind: ops, median paired ratio, its interval, wins, each side's median ms."""
    summary = {}
    for kind in dict.fromkeys(kinds):
        pairs = [s for k, s in zip(kinds, sizes) if k == kind]
        ratios = [b / a for a, b in pairs]
        lo, hi = sign_interval(ratios)
        summary[kind] = {"ops": len(pairs), "median_ratio": statistics.median(ratios),
                         "interval": [lo, hi], "wins": sum(b < a for a, b in pairs),
                         "parent_median_ms": 1e3 * statistics.median(a for a, _ in pairs),
                         "change_median_ms": 1e3 * statistics.median(b for _, b in pairs)}
    return summary


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        checkout, workload, seed, rounds = argv[1:]
        return worker(checkout, workload, int(seed), int(rounds))
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("rounds", type=int)
    ap.add_argument("repeats", type=int)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.repeats < 1:
        ap.error("ROUNDS and REPEATS must be at least 1")
    kinds, sizes, wrong = ab_times(args.parent, args.change, args.workload, args.rounds,
                                   args.repeats, args.seed)
    summary = summarize(kinds, sizes)
    print(f"# {args.workload} seed {args.seed}: rounds 0-{args.rounds - 1}, min CPU time of "
          f"{args.repeats} repeats per op and side, ratio = change / parent")
    for kind, v in summary.items():
        lo, hi = v["interval"]
        print(f"{kind:8s} ops {v['ops']:4d}  ratio {v['median_ratio']:6.3f} "
              f"[{lo:6.3f}, {hi:6.3f}]  wins {v['wins']:4d}/{v['ops']:<4d}  "
              f"parent {v['parent_median_ms']:9.4f} ms  change {v['change_median_ms']:9.4f} ms")
    for side, i, label in wrong:
        print(f"# WRONG {side} op {i} ({kinds[i]}): {label}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": args.rounds,
                      "repeats": args.repeats, "wrong": len(wrong), "kinds": summary}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
