"""The scripts: the benchmark verdict table and the report digest are part of the suite."""

import importlib.util
import json
import pathlib

import numpy as np

from plqnewton.errors import INPUT_ERRORS, REGIME_ERRORS

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
CERTIFIED = ["b1_cubic", "b1_minimax", "b1_scaled", "cross_l1", "expsin_ls", "l1_kink",
             "rosenbrock_ls"]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_benchmarks_verdict_table(capsys):
    script = _load("run_benchmarks")
    with np.printoptions():  # the script sets a global print precision
        assert script.main() == 0
    out = capsys.readouterr().out
    rows = {line.split()[0]: line for line in out.splitlines()[:-1]}
    assert len(rows) == 9
    certified = sorted(name for name, row in rows.items()
                       if "cert=strongly-metrically-subregular" in row)
    assert certified == CERTIFIED
    assert "cert=not-certified" in rows["b1_flat"] and "StepError" in rows["b1_flat"]
    assert "cert=not-certified" in rows["b1_negated"]
    assert "UNEXPECTED" not in out
    assert out.splitlines()[-1] == "all benchmark expectations met"


def test_report_digest_benchmark_lines():
    script = _load("report_digest")
    lines = list(script.benchmark_lines())
    assert len(lines) == 90
    assert list(script.benchmark_lines()) == lines  # a digest compares by bytes
    fields = [line.split(" ", 2) for line in lines]
    assert len({tag for tag, _, _ in fields}) == 90
    for tag, head, rest in fields:
        if head in ("0", "1"):
            report = json.loads(rest)
            assert report["command"] == tag.split("/")[1], tag
        else:
            assert head in ("RegimeError", "StepError"), tag
            assert json.loads(rest)
    certified = sorted(tag.split("/")[0] for tag, head, _ in fields
                       if tag.endswith("/certify") and head == "0")
    assert certified == CERTIFIED
    validated = [(head, json.loads(rest)["command"]) for tag, head, rest in fields
                 if tag.endswith("/validate")]
    assert validated == [("0", "validate")] * 9


def test_report_digest_workload_lines(tmp_path):
    # The workload path of the digest: validate on the four many_kinks files,
    # then the 44 ops of round 0 at seed 7, newton at k_bar = 8 and 16 included.
    script = _load("report_digest")
    lines = list(script.workload_lines(script.WORKLOADS["many_kinks"], 7, 1, tmp_path))
    assert len(lines) == 48
    fields = [line.split(" ", 2) for line in lines]
    assert len({tag for tag, _, _ in fields}) == 48
    documented = {cls.__name__ for cls in INPUT_ERRORS + REGIME_ERRORS}
    newton = 0
    for tag, head, rest in fields:
        body = json.loads(rest)
        if head not in ("0", "1"):
            assert head in documented, tag
            assert "/newton/" not in tag, tag
            continue
        if "/newton/" in tag:
            newton += 1
            assert body["identification"]["linearized_on_manifold"] is True, tag
    assert newton == 10
