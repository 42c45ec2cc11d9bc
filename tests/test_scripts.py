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


def test_digest_diff_lists_each_difference(tmp_path, capsys):
    script = _load("digest_diff")
    same = 'a/certify 0 {"cqs": {"sc": true, "ybar": [0.5, NaN]}, "x": [1.0]}'
    lines_a = [same, 'a/solve 1 {"iterations": 3, "r": 0.25}', 'a/validate 0 {"ok": true}',
               'b/solve StepError "singular"']
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("\n".join(lines_a) + "\n")

    def run(lines_b):
        b.write_text("\n".join(lines_b) + "\n")
        code = script.main([str(a), str(b)])
        return code, capsys.readouterr().out.splitlines()

    assert run(lines_a) == (0, ["0 of 4 ops differ, 0 in float values only"])
    floats = [same, 'a/solve 1 {"iterations": 3, "r": 0.2500000000000001}', *lines_a[2:]]
    assert run(floats) == (0, ["a/solve 1 1", "  /r: 0.25 0.2500000000000001",
                               "1 of 4 ops differ, 1 in float values only"])
    others = ['a/certify 0 {"cqs": {"sc": false, "ybar": [0.5, NaN]}, "x": [1.0, 2.0]}',
              'a/solve 0 {"iterations": 2, "r": 0.25}', 'a/validate 0 {"ok": true, "new": 1}',
              'b/solve RegimeError "singular"', 'c/solve 0 {}']
    code, out = run(others)
    assert code == 1
    assert out == ["a/certify 0 0", "  /cqs/sc: true false", "  /x: [1.0] [1.0, 2.0]",
                   "a/solve 1 0", "  /iterations: 3 2",
                   "a/validate 0 0", "  /new: - 1",
                   "b/solve StepError RegimeError",
                   "c/solve - 0",
                   "5 of 5 ops differ, 0 in float values only"]
    assert script.main([str(a)]) == 2


def test_ab_times_smoke(capsys):
    # An A/A run: one round of desk at seed 7, each op issued once per side.
    script = _load("ab_times")
    root = str(SCRIPTS.parent)
    assert script.main([root, root, "desk", "1", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    summary = json.loads(out[-1])
    assert (summary["workload"], summary["rounds"], summary["repeats"], summary["wrong"]) \
        == ("desk", 1, 1, 0)
    assert {kind: v["ops"] for kind, v in summary["kinds"].items()} \
        == {"certify": 12, "newton": 9, "enum": 12, "quasi": 8, "smooth": 4}
    for v in summary["kinds"].values():
        lo, hi = v["interval"]
        assert 0 < lo <= v["median_ratio"] <= hi and 0 <= v["wins"] <= v["ops"]
    assert [line.split()[0] for line in out[1:-1]] == list(summary["kinds"])


def test_ab_times_sign_interval():
    script = _load("ab_times")
    # n = 10: P(Binomial(10, 1/2) <= 1) = 11/1024 <= 0.025 < 56/1024.
    assert script.sign_interval(list(range(10, 0, -1))) == (2, 9)
    assert script.sign_interval([3.0, 1.0, 2.0]) == (1.0, 3.0)
