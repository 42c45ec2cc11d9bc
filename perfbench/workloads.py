"""Seeded workloads: problem files, op schedules and expected outcomes.

A workload writes its problem files from a seed, and yields its ops in
rounds. Every op carries the outcome it must produce, so the runner can check
each answer. Round `r` of seed `s` is the same list on every run.

Ops are the user-facing commands: `certify` at a point, and `solve` with one
of the methods newton | enum | quasi | smooth. An op's `kind` is the command
for certify and the method for solves; it names the latency population.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

KINDS = ("certify", "newton", "enum", "quasi", "smooth")

# Expected outcomes. An error class name means a documented refusal (exit 3).
CERTIFIED = "certified"
NOT_CERTIFIED = "not-certified"
CONVERGED = "converged"
# Any answer of a local method: converged to some KKT point, stalled, or a
# documented refusal. Used where the method has no claim on the reference.
LOCAL = "local"


@dataclass(frozen=True)
class Op:
    kind: str                  # certify | newton | enum | quasi | smooth
    problem: str               # name of a problem file of the workload
    expect: str                # CERTIFIED | NOT_CERTIFIED | CONVERGED | error class name
    point: str | None = None   # certify: None for the reference, or "random"
    seed: int = 42             # certify --seed (drives --point random)
    start_x: tuple = ()        # solve: start point
    start_y: tuple | None = None


def _num(v: float) -> float:
    return float(round(float(v), 4))


def _vec(a) -> list:
    return [_num(v) for v in a]


def _problem(name, n, m, hyperplanes, pieces, c, xbar, ybar) -> dict:
    """A problem file without a start: each solve op brings its own."""
    return {"name": name, "n": n, "m": m,
            "h": {"m": m, "hyperplanes": hyperplanes, "pieces": pieces},
            "c": c, "reference": {"x": _vec(xbar), "y": _vec(ybar)}}


def _max2(name, n, c) -> dict:
    """max(c1, c2) split along c1 = c2, with the kink at c = (1, 1), y = (1/2, 1/2)."""
    return _problem(name, n, 2, [{"a": [1.0, -1.0], "alpha": 0.0}],
                    [{"signs": [-1], "b": [1.0, 0.0]}, {"signs": [1], "b": [0.0, 1.0]}],
                    c, np.zeros(n), [0.5, 0.5])


def _offset(rng, n, radius):
    return rng.uniform(-radius, radius, n)


class Workload:
    """Base class: `name`, `problems(seed)` and `round(seed, r)`."""

    name = ""
    trace_rounds = 1   # rounds replayed by the traced run

    def problems(self, seed: int) -> dict:
        raise NotImplementedError

    def round(self, seed: int, r: int) -> list:
        raise NotImplementedError

    def write(self, seed: int, directory: Path) -> list:
        """Write the problem files; returns their paths."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, doc in self.problems(seed).items():
            path = directory / f"{name}.json"
            path.write_text(json.dumps(doc, indent=1, sort_keys=True))
            paths.append(path)
        return paths


# -- desk -----------------------------------------------------------------------


class Desk(Workload):
    """The nine shipped benchmarks (n = 2, s <= 2), as users run them."""

    name = "desk"
    trace_rounds = 4
    # Starts: (centre x, x offset per coordinate, centre y, y offset per coordinate).
    STARTS = {
        "b1_minimax": ((0.3, -0.2), 0.1, (0.7, 0.3), 0.05),
        "b1_scaled": ((0.3, -0.2), 0.1, (0.7, 0.3), 0.05),
        "b1_cubic": ((0.55, 0.0), 0.1, (0.5, 0.5), 0.05),
        "l1_kink": ((0.4, 0.0), 0.2, (0.0, 1.0), 0.1),
        "cross_l1": ((0.3, 0.25), 0.1, (0.2, -0.1), 0.05),
        "b1_flat": ((0.1, 0.1), 0.05, (0.5, 0.5), 0.05),
        "rosenbrock_ls": ((0.6, 0.2), 0.1, None, 0.0),
        "expsin_ls": ((0.8, -0.7), 0.1, None, 0.0),
    }
    # The frozen Hessian of quasi converges only linearly on b1_cubic's cubic;
    # from the Newton starts it stalls at max_iter, so it starts nearer.
    QUASI_STARTS = {"b1_cubic": ((0.15, 0.0), 0.05, (0.5, 0.5), 0.05)}
    # Solve ops per round: (method, problem, copies). The copies put each
    # method's median inside one cluster of similar latencies, with about a
    # sixth of the samples or more on either side: newton's median falls among
    # l1_kink/cross_l1, enum's among b1_cubic, quasi's among l1_kink/cross_l1,
    # smooth's among expsin_ls. With an even split between two clusters, the
    # median would jump between them from run to run.
    SOLVES = (
        ("newton", "b1_flat", 1), ("newton", "b1_minimax", 1), ("newton", "b1_scaled", 1),
        ("newton", "l1_kink", 2), ("newton", "cross_l1", 2), ("newton", "b1_cubic", 2),
        ("enum", "rosenbrock_ls", 1), ("enum", "b1_minimax", 1), ("enum", "b1_scaled", 1),
        ("enum", "expsin_ls", 1), ("enum", "b1_cubic", 4), ("enum", "l1_kink", 2),
        ("enum", "cross_l1", 2),
        ("quasi", "b1_minimax", 1), ("quasi", "b1_scaled", 1), ("quasi", "cross_l1", 2),
        ("quasi", "l1_kink", 2), ("quasi", "b1_cubic", 2),
        ("smooth", "expsin_ls", 3), ("smooth", "rosenbrock_ls", 1),
    )
    # Random certify points per round, on problems taken in turn. They are
    # quick rejections, kept to a quarter of the certify ops so that the
    # certify median stays among the reference certificates.
    RANDOM_CERTIFY = 3

    def problems(self, seed):
        from plqnewton.benchmarks import BENCHMARKS

        return {name: build().as_problem_dict() for name, build in sorted(BENCHMARKS.items())}

    def _start(self, rng, method, problem):
        spec = self.QUASI_STARTS.get(problem) if method == "quasi" else None
        cx, rx, cy, ry = spec or self.STARTS[problem]
        x = np.asarray(cx) + _offset(rng, 2, rx)
        y = None if cy is None else tuple(_vec(np.asarray(cy) + _offset(rng, 2, ry)))
        return tuple(_vec(x)), y

    def round(self, seed, r):
        rng = np.random.default_rng([seed, r])
        names = sorted(self.STARTS.keys() | {"b1_negated"})
        ops = [Op("certify", name, NOT_CERTIFIED if name in ("b1_flat", "b1_negated")
                  else CERTIFIED) for name in names]
        for j in range(self.RANDOM_CERTIFY):
            name = names[(r * self.RANDOM_CERTIFY + j) % len(names)]
            ops.append(Op("certify", name, NOT_CERTIFIED, point="random",
                          seed=int(rng.integers(1 << 30))))
        for method, name, copies in self.SOLVES:
            expect = "StepError" if name == "b1_flat" else CONVERGED
            for _ in range(copies):
                x, y = self._start(rng, method, name)
                ops.append(Op(method, name, expect, start_x=x, start_y=y))
        return ops


# -- wide_map -------------------------------------------------------------------


def chained_rosenbrock(name, n) -> dict:
    """0.5 ||r(x)||^2 with the 2n - 1 chained-Rosenbrock residuals; root all-ones."""
    c = []
    for i in range(1, n):
        c += [f"10*(x{i + 1} - x{i}^2)", f"1 - x{i}"]
    c.append(f"1 - x{n}")
    m = len(c)
    return _problem(name, n, m, [],
                    [{"signs": [], "Q": np.eye(m).tolist(), "b": [0.0] * m}],
                    c, np.ones(n), np.zeros(m))


def cubic_minimax(name, n, rng) -> dict:
    """max(c1, c2) over R^n with a seeded shared cubic; solution 0, y = (1/2, 1/2)."""
    d = rng.uniform(0.5, 1.5, n - 1)
    # |v| stays near 0.3 whatever n, which keeps quasi's frozen Hessian close
    # enough for it to converge at tol 1e-12 within max_iter.
    v = rng.uniform(-0.5, 0.5, n) / np.sqrt(n)
    base = " + ".join(f"{_num(d[i])}*x{i + 1}^2" for i in range(n - 1))
    cubic = "(" + " + ".join(f"{_num(v[i])}*x{i + 1}" for i in range(n)) + ")^3"
    return _max2(name, n, [f"{base} + (x{n} - 1)^2 + {cubic}",
                           f"{base} + (x{n} + 1)^2 + {cubic}"])


class WideMap(Workload):
    """Smooth maps with n in {20, 40} and s <= 1: exprmap jets dominate."""

    name = "wide_map"
    # Per round: instances at n = 40 outnumber those at n = 20 three to one,
    # so each method's median and tail fall among the n = 40 solves.
    SIZES = (40, 40, 40, 20)

    def problems(self, seed):
        rng = np.random.default_rng([seed, 0])
        docs = {}
        for n in sorted(set(self.SIZES)):
            docs[f"rosen_{n}"] = chained_rosenbrock(f"rosen_{n}", n)
        for i, n in enumerate(self.SIZES):
            docs[f"minimax_{n}_{i}"] = cubic_minimax(f"minimax_{n}_{i}", n, rng)
        return docs

    def round(self, seed, r):
        rng = np.random.default_rng([seed, 1, r])
        ops = [Op("certify", "rosen_40", CERTIFIED)]
        ops += [Op("certify", f"minimax_40_{i}", CERTIFIED) for i in range(2)]
        for n in self.SIZES:
            x = tuple(_vec(1.0 + _offset(rng, n, 0.1)))
            ops += [Op(m, f"rosen_{n}", CONVERGED, start_x=x) for m in ("smooth", "enum")]
            # smooth, the cheapest method here, runs from a second start too:
            # with twice the samples its tail moves less between runs.
            x = tuple(_vec(1.0 + _offset(rng, n, 0.1)))
            ops.append(Op("smooth", f"rosen_{n}", CONVERGED, start_x=x))
        for i, n in enumerate(self.SIZES):
            x = tuple(_vec(_offset(rng, n, 0.1)))
            u = rng.uniform(-0.1, 0.1)
            y = (_num(0.5 + u), _num(0.5 - u))
            ops += [Op(m, f"minimax_{n}_{i}", CONVERGED, start_x=x, start_y=y)
                    for m in ("newton", "enum", "quasi")]
        return ops


# -- many_kinks -----------------------------------------------------------------


def weighted_l1_crossing(name, n, rng) -> dict:
    """sum_i w_i |c_i| with c_i = x_i + a_i x_{i+1}^2 (cyclic): s = n, K = 2^n.

    The solution x = 0 sits on the crossing of all n hyperplanes, with y = 0
    in the interior of the subdifferential box.
    """
    w = rng.uniform(0.5, 2.0, n)
    a = rng.uniform(0.2, 0.6, n) * rng.choice([-1.0, 1.0], n)
    hyperplanes = [{"a": [1.0 if j == i else 0.0 for j in range(n)], "alpha": 0.0}
                   for i in range(n)]
    pieces = [{"signs": list(signs), "b": [-s * _num(wi) for s, wi in zip(signs, w)]}
              for signs in itertools.product((-1, 1), repeat=n)]
    c = [f"x{i + 1} + {_num(a[i])}*x{(i + 1) % n + 1}^2" for i in range(n)]
    return _problem(name, n, n, hyperplanes, pieces, c, np.zeros(n), np.zeros(n))


class ManyKinks(Workload):
    """Weighted-l1 crossings with s = n in {3, 4}: LPs and enumeration dominate."""

    name = "many_kinks"
    SIZES = (3, 3, 3, 4)
    # Starts per method and s = 3 instance in a round. The s = 4 instance is
    # certified, and solved from one start, in the first round only: its ops
    # cost five to ten s = 3 ones, and once per run they stay above each
    # method's median and tail and leave more of the run to s = 3 samples.
    STARTS = 3

    def problems(self, seed):
        rng = np.random.default_rng([seed, 0])
        return {f"kinks_{n}_{i}": weighted_l1_crossing(f"kinks_{n}_{i}", n, rng)
                for i, n in enumerate(self.SIZES)}

    def round(self, seed, r):
        rng = np.random.default_rng([seed, 1, r])
        ops = []
        for i, n in enumerate(self.SIZES):
            if n == 4 and r > 0:
                continue
            name = f"kinks_{n}_{i}"
            ops.append(Op("certify", name, CERTIFIED))
            for _ in range(self.STARTS if n == 3 else 1):
                # Off every hyperplane, so the start lies inside one piece.
                # Within this band quasi takes four steps from almost every
                # start; wider bands mix four- and five-step solves and split
                # its latencies in two.
                x = tuple(_vec(rng.choice((-1.0, 1.0), n) * rng.uniform(0.04, 0.07, n)))
                y = tuple(_vec(_offset(rng, n, 0.15)))
                ops += [Op(m, name, CONVERGED, start_x=x, start_y=y)
                        for m in ("newton", "enum", "quasi")]
                # Inside one linear piece, smooth Newton jumps to that piece's
                # own stationary point. It is usually refused (RegimeError)
                # because the linearized point leaves the piece; now and then
                # it converges there, at a saddle far from the reference.
                ops.append(Op("smooth", name, LOCAL, start_x=x, start_y=y))
        return ops


WORKLOADS = {w.name: w for w in (Desk(), WideMap(), ManyKinks())}
