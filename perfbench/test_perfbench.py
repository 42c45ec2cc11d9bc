"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 -m pytest perfbench -q

They run perfbench/run.py as a subprocess, as the benchmark is run, and take
about a minute and a half.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Per-layer metrics that are counts, or ratios of counts, and must repeat exactly.
EXACT_UNITS = {"count", "1/op", "1/iter", "iter"}


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_each_workload_completes_at_minimal_length(workload):
    res = result(bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0, m["name"]


def test_layer_counts_repeat_exactly():
    runs = [result(bench("--workload", "desk", "--seed", "3", "--seconds", "1", "--trace", "1"))
            for _ in range(2)]
    names = {m["name"] for m in SPEC["per_layer"]}
    for res in runs:
        assert res["correct"] and set(res["metrics"]) == names
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in EXACT_UNITS]
    assert exact
    for name in exact:
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name


def test_flipped_verdict_is_counted_as_failed():
    proc = bench("--workload", "desk", "--seed", "7", "--seconds", "1", "--trace", "0",
                 "--flip", "b1_minimax")
    res = result(proc)
    assert not res["correct"] and res["failed"] >= 1
    assert "FAILED certify b1_minimax" in proc.stderr


def test_fails_without_library_sources():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_scaling_follows_the_host():
    from hostspeed import REFERENCE_S, ReferenceClock

    # A host at half the reference speed: its wall times halve when scaled.
    assert ReferenceClock.scales([2 * REFERENCE_S] * 4) == pytest.approx([0.5] * 3)
    # One slow timing among its neighbours is damped by their median.
    timings = [REFERENCE_S] * 3 + [5 * REFERENCE_S] + [REFERENCE_S] * 3
    assert ReferenceClock.scales(timings) == pytest.approx([1.0] * 6)
    assert ReferenceClock().measure() > 0
