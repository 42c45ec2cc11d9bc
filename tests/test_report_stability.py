"""Reports on the nine shipped benchmarks stay what they were.

`data/report_snapshot.json` holds the `run_report` output of `certify` (at the
reference and at a seeded random point) and of `solve` with every method, on
each built-in benchmark; a method the solver refuses is recorded by its error.
Non-float fields (verdicts, statuses, active pieces, iteration counts,
messages) must match exactly. Floats must match within 1e-12, relative or
absolute, so that another LAPACK build does not trip the test.

Regenerate the snapshot, only after a deliberate change of behaviour, with

    PYTHONPATH=src python tests/test_report_stability.py
"""

import json
import math
import pathlib

import pytest

from plqnewton.benchmarks import BENCHMARKS
from plqnewton.cli import run_report
from plqnewton.errors import PLQError
from plqnewton.problems import parse_problem_dict

SNAPSHOT = pathlib.Path(__file__).with_name("data") / "report_snapshot.json"
METHODS = ("newton", "enum", "quasi", "smooth")
FLOAT_TOL = 1e-12


def _cases():
    for name in sorted(BENCHMARKS):
        yield f"{name} certify", name, "certify", {"seed": 42}
        yield f"{name} certify-random", name, "certify", {"seed": 42, "point": "random"}
        for method in METHODS:
            yield (f"{name} {method}", name, "solve",
                   {"method": method, "tol": 1e-12, "max_iter": 50})


def _report(name, command, opts):
    pf = parse_problem_dict(BENCHMARKS[name]().as_problem_dict())
    try:
        report, code = run_report(pf, command, opts)
    except PLQError as err:
        return {"error": f"{type(err).__name__}: {err}"}
    # A JSON round trip, so that the comparison sees what `--json` writes.
    return json.loads(json.dumps({"exit": code, "report": report}))


def _assert_matches(got, want, path="$"):
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and isinstance(want, (int, float)), path
        if math.isinf(want) or math.isnan(want):
            assert got == want or (math.isnan(got) and math.isnan(want)), path
            return
        gap = abs(got - want)
        assert gap <= FLOAT_TOL or gap <= FLOAT_TOL * max(abs(got), abs(want)), \
            f"{path}: {got!r} != {want!r}"
        return
    assert type(got) is type(want), f"{path}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def snapshot():
    return json.loads(SNAPSHOT.read_text())


def test_snapshot_covers_every_case(snapshot):
    assert sorted(snapshot) == sorted(key for key, *_ in _cases())


@pytest.mark.parametrize("key,name,command,opts", list(_cases()),
                         ids=[key for key, *_ in _cases()])
def test_report_matches_snapshot(snapshot, key, name, command, opts):
    _assert_matches(_report(name, command, opts), snapshot[key])


if __name__ == "__main__":
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps({key: _report(name, command, opts)
                                    for key, name, command, opts in _cases()},
                                   indent=1, sort_keys=True) + "\n")
