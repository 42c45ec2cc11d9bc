"""End-to-end benchmark drive: certify, solve, classify, summarize.

Runs each built-in benchmark through the restricted Newton method on the
manifold at its reference (a kink, or the one piece of a smooth problem),
prints a per-benchmark summary table plus the certificate conclusions, and
exits nonzero if any certified benchmark fails its expected verdict.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from plqnewton.benchmarks import BENCHMARKS  # noqa: E402
from plqnewton.certify import certify_subregularity  # noqa: E402
from plqnewton.plq import eval_with_active  # noqa: E402
from plqnewton.rates import classify_rate  # noqa: E402
from plqnewton.solver import SolveOptions, solve  # noqa: E402

EXPECT_CERTIFIED = {"b1_minimax", "b1_cubic", "b1_scaled", "l1_kink", "cross_l1",
                    "rosenbrock_ls", "expsin_ls"}


def run_one(name, bench):
    p = bench.problem
    cert = certify_subregularity(p, bench.xbar) if bench.xbar is not None else None
    prof = eval_with_active(p.h, p.c.value(bench.xbar))
    try:
        tr = solve(p, "newton", bench.start_x, bench.start_y, SolveOptions(tol=1e-12),
                   reference=(bench.xbar, bench.ybar))
        verdict = classify_rate(tr.errors((bench.xbar, bench.ybar)))
        solve_desc = (f"{'converged' if tr.converged else 'stalled':9s} "
                      f"iters={tr.final.k:2d} rate={verdict.classification}")
        final_err = tr.errors((bench.xbar, bench.ybar))[-1]
    except Exception as err:  # local methods legitimately refuse some variants
        solve_desc = f"{type(err).__name__}: {err}"
        final_err = float("nan")
        tr = None
    conclusion = cert.conclusion if cert else "n/a"
    ok = (conclusion == "strongly-metrically-subregular") == (name in EXPECT_CERTIFIED)
    print(f"{name:14s} kbar={prof.kbar} cert={conclusion:28s} "
          f"{solve_desc}  final_err={final_err:.1e}  [{'ok' if ok else 'UNEXPECTED'}]")
    return ok


def main():
    np.set_printoptions(precision=3)
    all_ok = True
    for name, build in sorted(BENCHMARKS.items()):
        all_ok &= run_one(name, build())
    print("all benchmark expectations met" if all_ok else "UNEXPECTED verdicts above")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
