"""Built-in PLQ functions and benchmark problems used by tests, scripts and docs.

Piece ordering conventions matter for the sign bookkeeping of the manifold
matrices: the four-quadrant functions list the quadrants as (+,+), (+,-),
(-,+), (-,-) so the all-plus-signs piece comes last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .composite import CompositeProblem
from .exprmap import SmoothMap
from .plq import Hyperplane, Piece, PLQFunction

_Z2 = np.zeros((2, 2))


def l1_plq() -> PLQFunction:
    """|c1| + |c2| over the four quadrants of the plane."""
    hps = [Hyperplane([1.0, 0.0], 0.0), Hyperplane([0.0, 1.0], 0.0)]
    pieces = [
        Piece([-1, -1], _Z2, [1.0, 1.0]),    # c1 >= 0, c2 >= 0
        Piece([-1, 1], _Z2, [1.0, -1.0]),    # c1 >= 0, c2 <= 0
        Piece([1, -1], _Z2, [-1.0, 1.0]),    # c1 <= 0, c2 >= 0
        Piece([1, 1], _Z2, [-1.0, -1.0]),    # c1 <= 0, c2 <= 0
    ]
    return PLQFunction(2, hps, pieces, name="l1")


def l1sq_plq() -> PLQFunction:
    """(|c1| + |c2|)^2 with the same four-quadrant layout."""
    hps = [Hyperplane([1.0, 0.0], 0.0), Hyperplane([0.0, 1.0], 0.0)]

    def q(s1, s2):
        return 2.0 * np.array([[1.0, s1 * s2], [s1 * s2, 1.0]])

    z2 = np.zeros(2)
    pieces = [
        Piece([-1, -1], q(+1, +1), z2),
        Piece([-1, 1], q(+1, -1), z2),
        Piece([1, -1], q(-1, +1), z2),
        Piece([1, 1], q(-1, -1), z2),
    ]
    return PLQFunction(2, hps, pieces, name="l1sq")


def max2_plq() -> PLQFunction:
    """max(c1, c2) split along the diagonal c1 = c2."""
    hps = [Hyperplane([1.0, -1.0], 0.0)]
    pieces = [
        Piece([-1], _Z2, [1.0, 0.0]),   # c1 >= c2: value c1
        Piece([1], _Z2, [0.0, 1.0]),    # c1 <= c2: value c2
    ]
    return PLQFunction(2, hps, pieces, name="max2")


def nlp_plq() -> PLQFunction:
    """c1 + indicator(c2 <= 0): a one-piece function with a domain boundary."""
    hps = [Hyperplane([0.0, 1.0], 0.0)]
    pieces = [Piece([1], _Z2, [1.0, 0.0])]
    return PLQFunction(2, hps, pieces, name="nlp")


def halfquad_plq() -> PLQFunction:
    """One-dimensional: 0.5 u^2 on [0, inf), 0 on [-1, 0], +inf below -1."""
    hps = [Hyperplane([1.0], 0.0), Hyperplane([1.0], -1.0)]
    pieces = [
        Piece([-1, -1], [[1.0]], [0.0]),   # u >= 0 (and u >= -1): 0.5 u^2
        Piece([1, -1], [[0.0]], [0.0]),    # -1 <= u <= 0: 0
    ]
    return PLQFunction(1, hps, pieces, name="halfquad")


def sumsq_plq(m: int = 2) -> PLQFunction:
    """0.5 ||u||^2 on all of R^m: a single piece with no hyperplanes."""
    return PLQFunction(m, [], [Piece(np.zeros(0), np.eye(m), np.zeros(m))], name="sumsq")


# -- composite benchmarks ----------------------------------------------------


@dataclass(frozen=True)
class Benchmark:
    """A composite problem with its known solution and a default start.

    `basin` describes the empirically measured start region from which the
    restricted Newton iteration reliably exhibits its certified behavior
    (convergence in few iterations with a classifiable quadratic tail). Keys:
    dx_box (per-coordinate offset intervals) or dx_radius (offset-norm
    interval), plus dy_radius for the dual offset norm.
    """

    name: str
    problem: CompositeProblem
    xbar: np.ndarray | None
    ybar: np.ndarray | None
    start_x: np.ndarray
    start_y: np.ndarray | None  # None: solver-specific default
    h_key: str
    c_exprs: tuple
    basin: dict | None = None

    def as_problem_dict(self) -> dict:
        h = self.problem.h
        d = {
            "name": self.name,
            "n": self.problem.n,
            "m": self.problem.m,
            "h": {
                "m": h.m,
                "hyperplanes": [{"a": hp.a.tolist(), "alpha": hp.alpha} for hp in h.hyperplanes],
                "pieces": [
                    {"signs": [int(s) for s in p.signs],
                     **({"Q": p.Q.tolist()} if np.any(p.Q) else {}),
                     "b": p.b.tolist(),
                     **({"beta": p.beta} if p.beta else {})}
                    for p in h.pieces
                ],
            },
            "c": list(self.c_exprs),
            "start": {"x": self.start_x.tolist(),
                      **({"y": self.start_y.tolist()} if self.start_y is not None else {})},
            "solver": {"method": "newton", "tol": 1e-12, "max_iter": 50},
        }
        if self.xbar is not None:
            d["reference"] = {"x": self.xbar.tolist(), "y": self.ybar.tolist()}
        return d


def _bench(name, h_key, h, exprs, n, xbar, ybar, start_x, start_y, basin=None) -> Benchmark:
    prob = CompositeProblem(h, SmoothMap.from_strings(exprs, n), name=name)
    return Benchmark(
        name=name, problem=prob,
        xbar=None if xbar is None else np.asarray(xbar, dtype=float),
        ybar=None if ybar is None else np.asarray(ybar, dtype=float),
        start_x=np.asarray(start_x, dtype=float),
        start_y=None if start_y is None else np.asarray(start_y, dtype=float),
        h_key=h_key, c_exprs=tuple(exprs), basin=basin)


def sample_basin_start(bench: Benchmark, rng):
    """A random primal-dual start from the benchmark's measured basin."""
    if bench.basin is None:
        raise ValueError(f"benchmark {bench.name} has no measured basin")
    spec = bench.basin
    if "dx_box" in spec:
        dx = np.array([rng.uniform(lo, hi) for lo, hi in spec["dx_box"]])
    else:
        dx = rng.standard_normal(bench.problem.n)
        dx *= rng.uniform(*spec["dx_radius"]) / np.linalg.norm(dx)
    dy = rng.standard_normal(bench.problem.m)
    dy *= rng.uniform(*spec["dy_radius"]) / np.linalg.norm(dy)
    return bench.xbar + dx, bench.ybar + dy


def b1_minimax() -> Benchmark:
    """min max(x1^2 + (x2-1)^2, x1^2 + (x2+1)^2): kink along x2 = 0."""
    return _bench("b1_minimax", "max2", max2_plq(),
                  ["x1^2 + (x2 - 1)^2", "x1^2 + (x2 + 1)^2"], 2,
                  xbar=[0.0, 0.0], ybar=[0.5, 0.5],
                  start_x=[0.3, -0.2], start_y=[0.7, 0.3])


def l1_kink() -> Benchmark:
    """An l1 composite with one active hyperplane at the solution (two pieces)."""
    return _bench("l1_kink", "l1", l1_plq(),
                  ["x1 + 0.8*x1^2", "1 + x2^2 + 0.1*x1^2"], 2,
                  xbar=[0.0, 0.0], ybar=[0.0, 1.0],
                  start_x=[0.4, -0.4], start_y=[0.15, 0.9],
                  basin={"dx_box": [(0.2, 0.6), (-0.5, 0.5)],
                         "dy_radius": (0.05, 0.25)})


def cross_l1() -> Benchmark:
    """An l1 composite whose solution sits on the full four-piece crossing."""
    return _bench("cross_l1", "l1", l1_plq(),
                  ["x1 + 0.3*x2^2", "x2 - 0.2*x1^2"], 2,
                  xbar=[0.0, 0.0], ybar=[0.0, 0.0],
                  start_x=[0.3, 0.25], start_y=[0.2, -0.1],
                  basin={"dx_radius": (0.4, 0.65), "dy_radius": (0.1, 0.3)})


def b1_cubic() -> Benchmark:
    """The minimax benchmark with a shared cubic term added to both components.

    The solution pair, active structure, reduced curvature and manifold data
    all match b1_minimax (the cubic has zero gradient and Hessian at the
    solution), but the extra nonlinearity produces a genuine asymptotic
    quadratic tail instead of finite termination. The cubic also creates a
    second stationary pair near x1 = -2/3 on the same manifold; the measured
    basin keeps starts on the positive-x1 side of it.
    """
    return _bench("b1_cubic", "max2", max2_plq(),
                  ["x1^2 + (x2 - 1)^2 + (x1 + 0.2*x2)^3",
                   "x1^2 + (x2 + 1)^2 + (x1 + 0.2*x2)^3"], 2,
                  xbar=[0.0, 0.0], ybar=[0.5, 0.5],
                  start_x=[0.5, -0.3], start_y=[0.6, 0.3],
                  basin={"dx_box": [(0.45, 0.7), (-0.35, 0.35)],
                         "dy_radius": (0.05, 0.15)})


def b1_scaled() -> Benchmark:
    """The minimax benchmark at curvature scale 0.05.

    The shallow curvature stretches a superlinear trace to 13+ moving
    iterations before the double-precision floor, enough for the final
    Dennis-More ratio to drop well below 1e-3.
    """
    return _bench("b1_scaled", "max2", max2_plq(),
                  ["0.05*(x1^2 + (x2 - 1)^2)", "0.05*(x1^2 + (x2 + 1)^2)"], 2,
                  xbar=[0.0, 0.0], ybar=[0.5, 0.5],
                  start_x=[0.3, -0.2], start_y=[0.7, 0.3])


def rosenbrock_ls() -> Benchmark:
    """Zero-residual least squares 0.5||c(x)||^2 with root (1, 1).

    Newton terminates finitely here (the only nonlinearity is x1^2, which is
    resolved exactly once x1 lands), so this one exercises convergence, not
    rate classification.
    """
    return _bench("rosenbrock_ls", "sumsq", sumsq_plq(2),
                  ["x1 - 1", "10*(x2 - x1^2)"], 2,
                  xbar=[1.0, 1.0], ybar=[0.0, 0.0],
                  start_x=[0.6, 0.2], start_y=[-0.4, -3.2])


def expsin_ls() -> Benchmark:
    """Zero-residual least squares with transcendental residuals, root (0, 0)."""
    return _bench("expsin_ls", "sumsq", sumsq_plq(2),
                  ["exp(x1) - 1 + x2^2", "sin(x2) + x1^2 + x1"], 2,
                  xbar=[0.0, 0.0], ybar=[0.0, 0.0],
                  start_x=[0.8, -0.7], start_y=None)


def b1_flat() -> Benchmark:
    """B1 with c independent of x2: multipliers form a segment, curvature flat."""
    return _bench("b1_flat", "max2", max2_plq(),
                  ["x1^2 + 1", "x1^2 + 1"], 2,
                  xbar=[0.0, 0.0], ybar=[0.5, 0.5],
                  start_x=[0.1, 0.1], start_y=[0.5, 0.5])


def b1_negated() -> Benchmark:
    """B1 with both components negated: stationary pair with negative curvature."""
    return _bench("b1_negated", "max2", max2_plq(),
                  ["-(x1^2) - (x2 - 1)^2", "-(x1^2) - (x2 + 1)^2"], 2,
                  xbar=[0.0, 0.0], ybar=[0.5, 0.5],
                  start_x=[0.0, 0.0], start_y=[0.5, 0.5])


BENCHMARKS = {
    "b1_minimax": b1_minimax,
    "b1_cubic": b1_cubic,
    "b1_scaled": b1_scaled,
    "l1_kink": l1_kink,
    "cross_l1": cross_l1,
    "rosenbrock_ls": rosenbrock_ls,
    "expsin_ls": expsin_ls,
    "b1_flat": b1_flat,
    "b1_negated": b1_negated,
}
