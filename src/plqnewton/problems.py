"""Problem-file loading and validation.

The JSON layout:

    {
      "name": "...",                      (optional)
      "n": int, "m": int,
      "h": {"m": int,
            "hyperplanes": [{"a": [...], "alpha": x}, ...],
            "pieces": [{"signs": [1,-1,...], "Q": [[...]], "b": [...],
                        "beta": x}, ...]},
      "c": ["expr", ...],                 (m strings over x1..xn)
      "reference": {"x": [...], "y": [...]},   (optional known solution)
      "start": {"x": [...], "y": [...]},       (optional; y may be omitted)
      "solver": {"method": "newton", "tol": 1e-12, "max_iter": 50}
    }

Q omitted means the zero matrix; beta omitted means 0. Every number must be
a finite JSON number: Python's json reads NaN and Infinity, and the schema
refuses them, as it refuses a boolean or a string where a number goes.
Schema problems raise SchemaError with a JSON-pointer-style location; a
loaded representation is then validated by `plq.validate_representation` and
failures raise ValidationFailure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .composite import CompositeProblem
from .errors import ExprSyntaxError, SchemaError, ValidationFailure
from .exprmap import SmoothMap
from .plq import Hyperplane, Piece, PLQFunction, validate_representation
from .solver import METHODS


@dataclass
class SolverSpec:
    method: str = "newton"
    tol: float = 1e-12
    max_iter: int = 50


@dataclass
class ProblemFile:
    name: str
    problem: CompositeProblem
    reference: tuple | None     # (xbar, ybar)
    start_x: np.ndarray | None
    start_y: np.ndarray | None
    solver: SolverSpec = field(default_factory=SolverSpec)
    path: str = ""


def _want(obj, key, kind, ptr, optional=False, default=None):
    if key not in obj:
        if optional:
            return default
        raise SchemaError(f"{ptr}/{key}", "missing required field")
    val = obj[key]
    if kind == "int":
        if not isinstance(val, int) or isinstance(val, bool):
            raise SchemaError(f"{ptr}/{key}", "expected an integer")
    elif kind == "num":
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise SchemaError(f"{ptr}/{key}", "expected a number")
        try:
            finite = math.isfinite(val)
        except OverflowError:  # an integer beyond the double range
            finite = False
        if not finite:
            raise SchemaError(f"{ptr}/{key}", "expected a finite number")
    elif kind == "list":
        if not isinstance(val, list):
            raise SchemaError(f"{ptr}/{key}", "expected a list")
    elif kind == "dict":
        if not isinstance(val, dict):
            raise SchemaError(f"{ptr}/{key}", "expected an object")
    elif kind == "str":
        if not isinstance(val, str):
            raise SchemaError(f"{ptr}/{key}", "expected a string")
    return val


def json_floats(vals) -> list:
    """The entries of a JSON list as floats. Raises TypeError when one is
    not a number, a boolean or a string included (float() would read True
    as 1.0 and "0.5" as 0.5), and OverflowError on an integer beyond the
    double range."""
    if not {bool, str}.isdisjoint(map(type, vals)):
        raise TypeError("a boolean or a string is not a number")
    return [float(v) for v in vals]


def _num_vector(val, length, ptr):
    if not isinstance(val, list) or len(val) != length:
        raise SchemaError(ptr, f"expected a list of {length} numbers")
    try:
        vals = json_floats(val)
    except (TypeError, ValueError):
        raise SchemaError(ptr, "expected numeric entries") from None
    except OverflowError:
        raise SchemaError(ptr, "expected finite entries") from None
    if not all(map(math.isfinite, vals)):
        raise SchemaError(ptr, "expected finite entries")
    return np.asarray(vals, dtype=float)


def parse_problem_dict(doc: dict, path: str = "") -> ProblemFile:
    n = _want(doc, "n", "int", "")
    m = _want(doc, "m", "int", "")
    if n < 1 or m < 1:
        raise SchemaError("/n", "dimensions must be positive")
    hblock = _want(doc, "h", "dict", "")
    hm = _want(hblock, "m", "int", "/h")
    if hm != m:
        raise SchemaError("/h/m", f"h is over R^{hm} but the problem declares m={m}")
    hp_list = _want(hblock, "hyperplanes", "list", "/h", optional=True, default=[])
    hps = []
    for i, item in enumerate(hp_list):
        ptr = f"/h/hyperplanes/{i}"
        if not isinstance(item, dict):
            raise SchemaError(ptr, "expected an object")
        a = _num_vector(_want(item, "a", "list", ptr), m, f"{ptr}/a")
        alpha = _want(item, "alpha", "num", ptr)
        try:
            hps.append(Hyperplane(a, alpha))
        except ValueError as err:
            raise SchemaError(ptr, str(err)) from None
    s = len(hps)
    piece_list = _want(hblock, "pieces", "list", "/h")
    if not piece_list:
        raise SchemaError("/h/pieces", "at least one piece is required")
    pieces = []
    for i, item in enumerate(piece_list):
        ptr = f"/h/pieces/{i}"
        if not isinstance(item, dict):
            raise SchemaError(ptr, "expected an object")
        signs = _num_vector(_want(item, "signs", "list", ptr), s, f"{ptr}/signs")
        b = _num_vector(_want(item, "b", "list", ptr, optional=True,
                              default=[0.0] * m), m, f"{ptr}/b")
        beta = _want(item, "beta", "num", ptr, optional=True, default=0.0)
        Q = item.get("Q")
        if Q is None:
            Qm = np.zeros((m, m))
        else:
            if not isinstance(Q, list) or len(Q) != m:
                raise SchemaError(f"{ptr}/Q", f"expected an {m}x{m} matrix")
            Qm = np.vstack([_num_vector(row, m, f"{ptr}/Q/{r}") for r, row in enumerate(Q)])
        try:
            pieces.append(Piece(signs, Qm, b, beta))
        except ValueError as err:
            raise SchemaError(ptr, str(err)) from None
    try:
        h = PLQFunction(m, hps, pieces, name=str(doc.get("name", "")))
    except ValueError as err:
        raise SchemaError("/h", str(err)) from None

    exprs = _want(doc, "c", "list", "")
    if len(exprs) != m:
        raise SchemaError("/c", f"expected {m} component expressions, found {len(exprs)}")
    comps = []
    for i, text in enumerate(exprs):
        if not isinstance(text, str):
            raise SchemaError(f"/c/{i}", "expected an expression string")
        try:
            from .exprmap import parse_expr

            comps.append(parse_expr(text, n))
        except ExprSyntaxError as err:
            raise SchemaError(f"/c/{i}", str(err)) from None
    cmap = SmoothMap(n, m, tuple(comps), tuple(exprs))
    problem = CompositeProblem(h, cmap, name=str(doc.get("name", "")))

    reference = None
    if "reference" in doc:
        ref = _want(doc, "reference", "dict", "")
        xbar = _num_vector(_want(ref, "x", "list", "/reference"), n, "/reference/x")
        ybar = _num_vector(_want(ref, "y", "list", "/reference"), m, "/reference/y")
        reference = (xbar, ybar)
    start_x = start_y = None
    if "start" in doc:
        st = _want(doc, "start", "dict", "")
        start_x = _num_vector(_want(st, "x", "list", "/start"), n, "/start/x")
        if "y" in st:
            start_y = _num_vector(st["y"], m, "/start/y")
    sol = SolverSpec()
    if "solver" in doc:
        sb = _want(doc, "solver", "dict", "")
        sol.method = _want(sb, "method", "str", "/solver", optional=True, default="newton")
        if sol.method not in METHODS:
            raise SchemaError("/solver/method", f"must be one of {METHODS}")
        sol.tol = float(_want(sb, "tol", "num", "/solver", optional=True, default=1e-12))
        sol.max_iter = int(_want(sb, "max_iter", "int", "/solver", optional=True, default=50))
    return ProblemFile(name=str(doc.get("name", "")), problem=problem,
                       reference=reference, start_x=start_x, start_y=start_y,
                       solver=sol, path=path)


def load_problem(path, probes=200, validate=True, rng=None) -> ProblemFile:
    """Load and validate a problem file.

    Schema violations raise SchemaError with a JSON pointer; representation
    failures (empty domain, discontinuity, the range condition, negative
    curvature, non-convexity, overlapping interiors) raise ValidationFailure
    listing every failure. Every check is exact and draws no random number:
    `probes` and `rng` are accepted and ignored, for callers written when
    convexity was sampled (perfbench/run.py still passes them).
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise SchemaError("", f"invalid JSON: {err}") from None
    pf = parse_problem_dict(doc, path=str(path))
    if validate:
        rep = validate_representation(pf.problem.h)
        if not rep.all_pass:
            raise ValidationFailure(rep.messages or ["representation checks failed"])
    return pf
