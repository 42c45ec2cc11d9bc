"""Empirical basin probe for the restricted Newton iteration.

For a chosen benchmark, samples starts at increasing offset radii and reports
the fraction that converge to the reference pair within 8 iterations with a
classifiable quadratic tail. The theorem neighborhood is existential; this
script is how the shipped `basin` entries of the benchmarks were measured.
"""

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from plqnewton.benchmarks import BENCHMARKS  # noqa: E402
from plqnewton.manifold import build_manifold  # noqa: E402
from plqnewton.rates import classify_rate  # noqa: E402
from plqnewton.solver import SolveOptions, newton_solve  # noqa: E402


def probe(bench, radius, trials, rng):
    try:
        md = build_manifold(bench.problem.h, bench.problem.c.value(bench.xbar))
    except Exception as err:
        raise SystemExit(f"{bench.name}: not a kink benchmark ({err})")
    converged = quadratic = 0
    for _ in range(trials):
        dx = rng.standard_normal(bench.problem.n)
        dx *= radius / np.linalg.norm(dx)
        dy = rng.standard_normal(bench.problem.m)
        dy *= 0.3 * radius / np.linalg.norm(dy)
        try:
            tr = newton_solve(bench.problem, md, (bench.xbar + dx, bench.ybar + dy),
                              SolveOptions(tol=1e-12),
                              reference=(bench.xbar, bench.ybar))
            errs = tr.errors((bench.xbar, bench.ybar))
            if tr.converged and tr.final.k <= 8 and errs[-1] <= 1e-9:
                converged += 1
                if classify_rate(errs).classification == "quadratic":
                    quadratic += 1
        except Exception:
            pass
    return converged / trials, quadratic / trials


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("benchmark", choices=sorted(BENCHMARKS))
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--radii", type=float, nargs="+",
                    default=[0.1, 0.2, 0.4, 0.6, 0.8, 1.2, 1.6])
    args = ap.parse_args()
    bench = BENCHMARKS[args.benchmark]()
    rng = np.random.default_rng(args.seed)
    print(f"{args.benchmark}: fraction converged / fraction with a quadratic verdict")
    for r in args.radii:
        conv, quad = probe(bench, r, args.trials, rng)
        print(f"  radius {r:5.2f}: {conv:5.2f} / {quad:5.2f}")


if __name__ == "__main__":
    sys.exit(main())
