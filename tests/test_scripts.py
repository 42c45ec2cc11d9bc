"""The end-to-end benchmark script: its verdict table is part of the suite."""

import importlib.util
import pathlib

import numpy as np

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
