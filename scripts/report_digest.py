"""Digest of `cli.run_report` over a fixed set of 660 ops.

Usage: python scripts/report_digest.py OUT

Writes one line per op to OUT: the op's tag, then the exit code and the
report JSON with sorted keys, or the error class and message when the op is
refused. Two checkouts give the same answer on every op exactly when their
digests are byte-identical, so comparing a change with its parent is `cmp`.

The ops:
  - each of the nine shipped benchmarks, as `plqnewton` runs a benchmark
    name: validate, certify at the reference and at `--point random` with
    seeds 3, 7, 11 and 42, and solve with newton, enum, quasi and smooth from
    its start;
  - validate on every problem file of the `desk`, `wide_map` and
    `many_kinks` workloads (perfbench/workloads.py) at workload seeds 7 and
    11, and every op of rounds 0-1 of `desk` and `wide_map` and of rounds 0-2
    of `many_kinks`, on problem files loaded and run as perfbench/run.py does.
"""

import dataclasses
import json
import pathlib
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS  # noqa: E402
from plqnewton.benchmarks import BENCHMARKS  # noqa: E402
from plqnewton.cli import run_report  # noqa: E402
from plqnewton.errors import INPUT_ERRORS, REGIME_ERRORS  # noqa: E402
from plqnewton.problems import load_problem, parse_problem_dict  # noqa: E402

CERTIFY_SEEDS = (3, 7, 11, 42)
METHODS = ("newton", "enum", "quasi", "smooth")
WORKLOAD_ROUNDS = {"desk": 2, "wide_map": 2, "many_kinks": 3}
WORKLOAD_SEEDS = (7, 11)
# The options of a `plqnewton` command line that sets none.
CLI_OPTS = {"seed": 42, "method": None, "tol": None, "max_iter": None, "trace": None,
            "point": None}


def digest_line(tag, pf, command, opts):
    try:
        report, code = run_report(pf, command, {**CLI_OPTS, **opts})
    except INPUT_ERRORS + REGIME_ERRORS as err:
        return f"{tag} {type(err).__name__} {json.dumps(str(err))}"
    return f"{tag} {code} {json.dumps(report, sort_keys=True)}"


def benchmark_lines():
    """The 90 ops on the nine shipped benchmarks."""
    for name, build in sorted(BENCHMARKS.items()):
        pf = parse_problem_dict(build().as_problem_dict())
        yield digest_line(f"{name}/validate", pf, "validate", {})
        yield digest_line(f"{name}/certify", pf, "certify", {})
        for seed in CERTIFY_SEEDS:
            yield digest_line(f"{name}/certify/random/{seed}", pf, "certify",
                              {"point": "random", "seed": seed})
        for method in METHODS:
            yield digest_line(f"{name}/solve/{method}", pf, "solve", {"method": method})


def workload_lines(workload, seed, rounds, directory):
    """Validate on each problem file, then every op of rounds 0 .. rounds - 1
    of one workload at one seed."""
    pfs = {path.stem: load_problem(path, validate=True)
           for path in workload.write(seed, directory)}
    for stem, pf in pfs.items():
        yield digest_line(f"{workload.name}/{seed}/validate/{stem}", pf, "validate", {})
    for r in range(rounds):
        for i, op in enumerate(workload.round(seed, r)):
            tag = f"{workload.name}/{seed}/{r}/{i}/{op.kind}/{op.problem}"
            pf = pfs[op.problem]
            if op.kind == "certify":
                yield digest_line(tag, pf, "certify", {"seed": op.seed, "point": op.point})
                continue
            pf = dataclasses.replace(
                pf, start_x=np.array(op.start_x),
                start_y=None if op.start_y is None else np.array(op.start_y))
            yield digest_line(tag, pf, "solve", {"method": op.kind, "tol": 1e-12, "max_iter": 50})


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[0], "w") as out, tempfile.TemporaryDirectory() as tmp:
        for text in benchmark_lines():
            out.write(text + "\n")
        for name, rounds in WORKLOAD_ROUNDS.items():
            for seed in WORKLOAD_SEEDS:
                directory = pathlib.Path(tmp) / f"{name}-{seed}"
                for text in workload_lines(WORKLOADS[name], seed, rounds, directory):
                    out.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
