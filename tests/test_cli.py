import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from plqnewton.benchmarks import b1_minimax
from plqnewton import cli
from plqnewton.cli import main, run_report
from plqnewton.errors import PLQError, SchemaError, ValidationFailure
from plqnewton.problems import load_problem, parse_problem_dict

BENCH_DIR = "benchmarks"


def _doc():
    return b1_minimax().as_problem_dict()


class TestLoadProblem:
    def test_loads_benchmark_file(self, tmp_path):
        path = tmp_path / "b1.json"
        path.write_text(json.dumps(_doc()))
        pf = load_problem(path)
        assert pf.problem.n == 2 and pf.problem.m == 2
        assert pf.problem.h.n_pieces == 2
        assert np.allclose(pf.reference[0], [0, 0])

    def test_dimension_mismatch_pointer(self, tmp_path):
        doc = _doc()
        doc["c"] = doc["c"][:1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            load_problem(path)
        assert err.value.pointer == "/c"

    def test_h_m_mismatch(self, tmp_path):
        doc = _doc()
        doc["h"]["m"] = 3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            load_problem(path)
        assert err.value.pointer == "/h/m"

    def test_asymmetric_q_rejected(self, tmp_path):
        doc = _doc()
        doc["h"]["pieces"][0]["Q"] = [[0.0, 1.0], [0.0, 0.0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            load_problem(path)
        assert "/h/pieces/0" in err.value.pointer

    def test_expression_error_pointer(self, tmp_path):
        doc = _doc()
        doc["c"][1] = "x1 + * x2"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            load_problem(path)
        assert err.value.pointer == "/c/1"

    def test_discontinuous_representation_fails_validation(self, tmp_path):
        doc = {
            "n": 1, "m": 1,
            "h": {"m": 1,
                  "hyperplanes": [{"a": [1.0], "alpha": 0.0}],
                  "pieces": [{"signs": [1], "b": [0.0]},
                             {"signs": [-1], "b": [0.0], "beta": 1.0}]},
            "c": ["x1"],
        }
        path = tmp_path / "disc.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationFailure):
            load_problem(path)

    def test_one_point_piece_is_reported_not_raised(self, tmp_path):
        # Pieces (-inf, 0] with value 0, [0, inf) with value u + 1 and {0}
        # with value 0: each failure is listed; no evaluation of h raises.
        doc = {"n": 1, "m": 1,
               "h": {"m": 1,
                     "hyperplanes": [{"a": [1.0], "alpha": 0.0}, {"a": [-1.0], "alpha": 0.0}],
                     "pieces": [{"signs": [1, -1], "b": [0.0]},
                                {"signs": [-1, 1], "b": [1.0], "beta": 1.0},
                                {"signs": [1, 1], "b": [0.0]}]},
               "c": ["x1"]}
        path = tmp_path / "point.json"
        path.write_text(json.dumps(doc))
        rep, code = run_report(load_problem(path, validate=False), "validate", {"seed": 42})
        assert code == 2
        assert rep["report"]["messages"] == ["pieces 0,1: boundary value mismatch 1",
                                             "pieces 1,2: boundary value mismatch 0.5"]
        with pytest.raises(ValidationFailure) as err:
            load_problem(path)
        assert "pieces 0,1: boundary value mismatch 1" in str(err.value)
        assert "pieces 1,2: boundary value mismatch 0.5" in str(err.value)

    def test_validate_report_does_not_depend_on_the_seed(self, tmp_path):
        # -|u| is concave: the verdict and its margins are the same at every seed.
        doc = {"n": 1, "m": 1, "c": ["x1"],
               "h": {"m": 1, "hyperplanes": [{"a": [1.0], "alpha": 0.0}],
                     "pieces": [{"signs": [-1], "b": [-1.0]}, {"signs": [1], "b": [1.0]}]}}
        path = tmp_path / "negabs.json"
        path.write_text(json.dumps(doc))
        outs = [tmp_path / "seed1.json", tmp_path / "seed2.json"]
        for seed, out in zip(("1", "2"), outs):
            assert main(["validate", str(path), "--seed", seed, "--json", str(out)]) == 2
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert json.loads(outs[0].read_text())["report"]["facet_jumps"] == [[0, 1, -2.0]]

    def test_q_and_beta_defaults(self):
        pf = parse_problem_dict(_doc())
        assert not np.any(pf.problem.h.pieces[0].Q)
        assert pf.problem.h.pieces[0].beta == 0.0


class TestRunReport:
    def test_solve_report(self):
        pf = parse_problem_dict(_doc())
        rep, code = run_report(pf, "solve", {"seed": 42, "method": "newton",
                                             "tol": None, "max_iter": None,
                                             "trace": None})
        assert code == 0 and rep["converged"]
        assert rep["identification"]["linearized_on_manifold"]
        json.dumps(rep)  # must be serializable

    @pytest.mark.parametrize("name", ["rosenbrock_ls", "expsin_ls"])
    def test_newton_solve_report_inside_one_piece(self, name):
        # A one-piece manifold with no active hyperplane has no block
        # multipliers: the report says so with a null mu_min.
        from plqnewton.benchmarks import BENCHMARKS

        pf = parse_problem_dict(BENCHMARKS[name]().as_problem_dict())
        rep, code = run_report(pf, "solve", {"seed": 42, "method": "newton",
                                             "tol": None, "max_iter": None,
                                             "trace": None})
        assert code == 0 and rep["converged"]
        ident = json.loads(json.dumps(rep))["identification"]
        assert ident["linearized_on_manifold"] is True
        assert ident["mu_min"] is None
        assert ident["max_gluing_gap"] == 0.0

    def test_certify_report(self):
        pf = parse_problem_dict(_doc())
        rep, code = run_report(pf, "certify", {"seed": 42, "point": None})
        assert code == 0
        assert rep["subregularity"]["conclusion"] == "strongly-metrically-subregular"
        assert rep["partial_smoothness"]["certified"]
        json.dumps(rep)

    def test_rate_report(self):
        from plqnewton.benchmarks import b1_cubic

        pf = parse_problem_dict(b1_cubic().as_problem_dict())
        rep, code = run_report(pf, "rate", {"seed": 42, "method": None,
                                            "tol": None, "max_iter": None,
                                            "trace": None})
        assert code == 0
        assert rep["rate"]["classification"] == "quadratic"
        json.dumps(rep)

    def test_validate_report(self):
        pf = parse_problem_dict(_doc())
        rep, code = run_report(pf, "validate", {"seed": 42})
        assert code == 0 and rep["all_pass"]
        json.dumps(rep)

    def test_check_derivs_report(self):
        pf = parse_problem_dict(_doc())
        rep, code = run_report(pf, "check-derivs", {"seed": 42, "point": "random"})
        assert code == 0 and rep["pass"] and rep["points"] == cli.DERIV_POINTS
        assert rep["max_jacobian_deviation"] <= 1e-6
        json.dumps(rep)


class TestMainEntry:
    def test_solve_exit_zero_and_trace(self, tmp_path):
        trace = tmp_path / "tr.csv"
        jout = tmp_path / "rep.json"
        code = main(["solve", f"{BENCH_DIR}/b1_minimax.json", "--method", "newton",
                     "--trace", str(trace), "--json", str(jout)])
        assert code == 0
        assert trace.exists() and jout.exists()
        rep = json.loads(jout.read_text())
        assert rep["converged"]

    def test_max_iter_zero_is_kept(self, tmp_path):
        # 0 is a value, not "unset": no step is taken and the solve fails.
        jout = tmp_path / "rep.json"
        assert main(["solve", "b1_minimax", "--max-iter", "0", "--json", str(jout)]) == 1
        rep = json.loads(jout.read_text())
        assert rep["iterations"] == 0 and rep["message"] == "max_iter reached"

    def test_builtin_benchmark_name(self):
        assert main(["solve", "b1_cubic"]) == 0

    def test_missing_file_is_input_error(self, capsys):
        assert main(["solve", "no_such_file.json"]) == 2

    def test_schema_error_is_input_error(self, tmp_path):
        doc = _doc()
        del doc["h"]["pieces"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2

    @staticmethod
    def _empty_domain_file(tmp_path):
        # The only piece asks for c1 <= 0 and c1 >= 1.
        doc = {"name": "empty", "n": 1, "m": 1,
               "h": {"m": 1, "hyperplanes": [{"a": [1.0], "alpha": 0.0},
                                             {"a": [1.0], "alpha": 1.0}],
                     "pieces": [{"signs": [1, -1], "b": [0.0]}]},
               "c": ["x1"], "start": {"x": [0.0]}}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("command", ["solve", "certify"])
    def test_empty_domain_is_input_error(self, tmp_path, capsys, command):
        assert main([command, str(self._empty_domain_file(tmp_path))]) == 2
        assert "dom h is empty" in capsys.readouterr().err

    def test_empty_domain_is_not_full_dimensional(self, tmp_path):
        jout = tmp_path / "rep.json"
        assert main(["validate", str(self._empty_domain_file(tmp_path)),
                     "--json", str(jout)]) == 2
        report = json.loads(jout.read_text())["report"]
        assert "dom h is empty" in report["messages"]
        assert report["full_dimensional"] is False

    def test_regime_error_exit_code(self):
        # The smooth solver rejects a start on the kink.
        assert main(["solve", f"{BENCH_DIR}/b1_minimax.json", "--method", "smooth"]) == 3

    def test_certify_failure_exit_code(self):
        assert main(["certify", f"{BENCH_DIR}/b1_flat.json"]) == 1

    def test_reports_byte_stable(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["certify", f"{BENCH_DIR}/b1_minimax.json", "--seed", "7",
                     "--json", str(out1)]) == 0
        assert main(["certify", f"{BENCH_DIR}/b1_minimax.json", "--seed", "7",
                     "--json", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_console_script_installed(self):
        res = subprocess.run([sys.executable, "-m", "plqnewton.cli", "solve",
                              f"{BENCH_DIR}/rosenbrock_ls.json", "--method", "smooth"],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert "converged: True" in res.stdout

    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency; scipy serves the tests alone.
        res = subprocess.run([sys.executable, "-c",
                              "import sys, plqnewton.cli; print(sorted(m for m in sys.modules "
                              "if m.split('.')[0] == 'scipy'))"],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"


def _sumsq_file(tmp_path, c, x):
    """A one-piece problem h(c) = |c|^2 / 2 over R^2 started at x."""
    doc = {"name": "sumsq", "n": 2, "m": 2,
           "h": {"m": 2, "hyperplanes": [],
                 "pieces": [{"signs": [], "Q": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0]}]},
           "c": c, "start": {"x": x}}
    path = tmp_path / "sumsq.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestExitCodeContract:
    """Every package error ends the CLI with its documented exit code, not a
    traceback."""

    def test_overflow_in_smooth_solve_is_regime_error(self, tmp_path, capsys):
        path = _sumsq_file(tmp_path, ["exp(exp(exp(x1)))", "x2"], [10.0, 0.0])
        assert main(["solve", path, "--method", "smooth"]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_log_of_negative_in_smooth_solve_is_regime_error(self, tmp_path, capsys):
        path = _sumsq_file(tmp_path, ["log(x1)", "x2"], [-1.0, 0.0])
        assert main(["solve", path, "--method", "smooth"]) == 3
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["newton", "enum", "quasi", "smooth"])
    def test_overflowing_linearization_is_regime_error(self, tmp_path, capsys, method):
        # c1 = x1^8 + x2 overflows at the start x1 = 1e40: every method stops
        # at the first linearization and names the component, with no
        # RuntimeWarning on the way.
        doc = _doc()
        doc["c"] = ["x1*x1*x1*x1*x1*x1*x1*x1 + x2", "x2*x2"]
        doc["start"]["x"] = [1e40, 0.5]
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", str(path), "--method", method]) == 3
        assert caught == []
        assert capsys.readouterr().err == "regime error: component 0: non-finite value\n"

    def test_wrong_length_point_is_input_error(self, tmp_path, capsys):
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"x": [0.0, 0.0, 0.0]}))
        assert main(["certify", "b1_minimax", "--point", str(point)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "length 3" in err

    @pytest.mark.parametrize("content", ['{"y": [0, 0]}', "not json", "[1, 2]",
                                         '{"x": ["a", 1]}', '{"x": [[0, 0]]}',
                                         '{"x": [0, 0], "y": [[0.5, 0.5]]}'])
    def test_malformed_point_file_is_input_error(self, tmp_path, capsys, content):
        # No x, no JSON, not an object, a non-numeric x, a nested x or y.
        point = tmp_path / "point.json"
        point.write_text(content)
        for command in ("certify", "check-derivs"):
            assert main([command, "cross_l1", "--point", str(point)]) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err and "--point" in err

    def test_probes_is_no_longer_an_option(self, capsys):
        # Validation draws no random segments, so argparse refuses the flag.
        with pytest.raises(SystemExit) as exit_:
            main(["validate", "b1_minimax", "--probes", "5"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "--probes" in err

    @pytest.mark.parametrize("flags", [["--max-iter", "-5"], ["--tol", "-1"], ["--tol", "nan"]])
    def test_negative_or_nonfinite_solver_option_is_input_error(self, capsys, flags):
        assert main(["solve", "b1_minimax", *flags]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "max_iter >= 0" in err

    @pytest.mark.parametrize("command", [["certify", "--point", "random"], ["check-derivs"]])
    def test_negative_seed_is_input_error(self, capsys, command):
        assert main([command[0], "b1_cubic", *command[1:], "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "--seed must be nonnegative, got -1" in err

    @pytest.mark.parametrize("argv", [["validate", "{dir}"], ["validate", "{latin1}"],
                                      ["certify", "b1_cubic", "--point", "{dir}"],
                                      ["solve", "b1_cubic", "--trace", "{dir}"],
                                      ["solve", "b1_cubic", "--json", "{missing}"]])
    def test_unusable_path_is_input_error(self, tmp_path, capsys, argv):
        # A directory where a file is read or written, bytes that are not
        # UTF-8, and a file in a missing directory: exit 2, no report, and
        # the message names the path.
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"name": "caf\xe9"}')
        paths = {"dir": str(tmp_path), "latin1": str(latin1),
                 "missing": str(tmp_path / "no_such_dir" / "report.json")}
        argv = [arg.format(**paths) for arg in argv]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("input error: ")
        assert "Traceback" not in err and argv[-1] in err

    @pytest.mark.parametrize("name", ["b1_cubic", "no_reference"])
    def test_check_derivs_without_point_draws_random_points(self, tmp_path, monkeypatch,
                                                            capsys, name):
        # No --point means 'random': DERIV_POINTS seeded points, also for a
        # file with no reference solution (around its start).
        if name == "no_reference":
            name = _sumsq_file(tmp_path, ["x1*x2", "sin(x1) + x2^2"], [0.5, -1.0])
        seen, resolve = [], cli._resolve_point

        def spy(pf, spec, rng):
            x, y = resolve(pf, spec, rng)
            seen.append(tuple(x))
            return x, y

        monkeypatch.setattr(cli, "_resolve_point", spy)
        assert main(["check-derivs", name]) == 0
        assert len(set(seen)) == len(seen) == cli.DERIV_POINTS
        assert f"points: {cli.DERIV_POINTS}" in capsys.readouterr().out

    def test_solver_block_of_a_file_is_checked(self, tmp_path, capsys):
        doc = _doc()
        doc["solver"] = {"tol": -1e-12}
        path = tmp_path / "b1.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 2
        assert "tol must be finite" in capsys.readouterr().err

    def test_every_package_error_maps_to_2_or_3(self, monkeypatch):
        documented = {"SchemaError": 2, "ValidationFailure": 2, "PreconditionError": 2,
                      "RepresentationError": 2, "MembershipError": 2, "ExprSyntaxError": 2,
                      "RegimeError": 3, "StepError": 3, "DivergenceError": 3,
                      "DomainError": 3, "EvalDomainError": 3}
        for cls in _subclasses(PLQError):
            err = cls.__new__(cls, "probe")

            def raise_it(*args, err=err):
                raise err

            monkeypatch.setattr(cli, "run_report", raise_it)
            code = main(["solve", "b1_minimax"])
            assert code in (2, 3), cls.__name__
            assert code == documented.get(cls.__name__, code), cls.__name__


def _set(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


@pytest.mark.filterwarnings("error")
class TestNonFiniteNumbers:
    """Python's json reads NaN and Infinity; a problem file or a --point file
    that holds one is an input error (exit 2), with no warning."""

    @pytest.mark.parametrize("command, path, value, pointer", [
        ("validate", ("h", "pieces", 0, "b"), [np.inf, 0.0], "/h/pieces/0/b"),
        ("validate", ("h", "pieces", 1, "beta"), -np.inf, "/h/pieces/1/beta"),
        ("validate", ("h", "pieces", 0, "Q"), [[np.nan, 0.0], [0.0, 0.0]], "/h/pieces/0/Q/0"),
        ("validate", ("h", "hyperplanes", 0, "alpha"), np.nan, "/h/hyperplanes/0/alpha"),
        ("validate", ("h", "hyperplanes", 0, "a"), [np.inf, -1.0], "/h/hyperplanes/0/a"),
        ("certify", ("reference", "y"), [0.5, np.inf], "/reference/y"),
        ("solve", ("start", "x"), [np.nan, 0.0], "/start/x"),
        ("solve", ("solver", "tol"), np.inf, "/solver/tol"),
    ])
    def test_problem_file(self, tmp_path, capsys, command, path, value, pointer):
        doc = _doc()
        doc.setdefault("solver", {})
        _set(doc, path, value)
        file = tmp_path / "b1.json"
        file.write_text(json.dumps(doc))
        assert main([command, str(file)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and pointer in err and "finite" in err

    @pytest.mark.parametrize("point", [{"x": [np.nan, 0.0]}, {"x": [0.0, 0.0], "y": [np.inf, 0.0]}])
    def test_point_file(self, tmp_path, capsys, point):
        file = tmp_path / "point.json"
        file.write_text(json.dumps(point))
        for command in ("certify", "check-derivs"):
            assert main([command, "b1_minimax", "--point", str(file)]) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err and "non-finite" in err


@pytest.mark.filterwarnings("error")
class TestBooleansAndStrings:
    """JSON booleans and numeric strings are not numbers, and an integer
    beyond the double range is not finite: a problem file or a --point file
    that gives one where a number goes is an input error (exit 2)."""

    @pytest.mark.parametrize("command, path, value, pointer", [
        ("validate", ("h", "pieces", 0, "b"), [True, "0"], "/h/pieces/0/b"),
        ("validate", ("h", "pieces", 0, "Q"), [[False, 0.0], [0.0, 0.0]], "/h/pieces/0/Q/0"),
        ("validate", ("h", "pieces", 1, "beta"), "0", "/h/pieces/1/beta"),
        ("validate", ("h", "hyperplanes", 0, "a"), ["1", -1.0], "/h/hyperplanes/0/a"),
        ("certify", ("reference", "x"), [True, False], "/reference/x"),
        ("solve", ("start", "y"), ["0.5", 0.5], "/start/y"),
        ("validate", ("h", "hyperplanes", 0, "alpha"), 10 ** 400, "/h/hyperplanes/0/alpha"),
        ("solve", ("start", "x"), [10 ** 400, 0.0], "/start/x"),
    ])
    def test_problem_file(self, tmp_path, capsys, command, path, value, pointer):
        doc = _doc()
        _set(doc, path, value)
        file = tmp_path / "b1.json"
        file.write_text(json.dumps(doc))
        assert main([command, str(file)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and pointer in err

    @pytest.mark.parametrize("point, message", [
        ({"x": [True, False]}, "not a number"),
        ({"x": ["0.5", 0.0]}, "not a number"),
        ({"x": [0.0, 0.0], "y": [True, 0.5]}, "not a number"),
        ({"x": [10 ** 400, 0.0]}, "OverflowError"),
    ])
    def test_point_file(self, tmp_path, capsys, point, message):
        file = tmp_path / "point.json"
        file.write_text(json.dumps(point))
        for command in ("certify", "check-derivs"):
            assert main([command, "b1_minimax", "--point", str(file)]) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err and message in err
