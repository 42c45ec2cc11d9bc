import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plqnewton import simplex
from plqnewton.simplex import feasible_point, max_slack_point, solve_lp, support_value


def test_box_min():
    r = solve_lp([-1.0, -1.0], F=[[1, 0], [0, 1], [-1, 0], [0, -1]], f=[1, 1, 0, 0])
    assert r.optimal
    assert np.allclose(r.x, [1, 1])
    assert r.objective == pytest.approx(-2.0)


def test_infeasible():
    r = solve_lp([0.0, 0.0], F=[[1, 0], [-1, 0]], f=[-1, -1])
    assert r.status == "infeasible"


def test_unbounded():
    r = solve_lp([-1.0, 0.0], F=[[0, 1]], f=[1])
    assert r.status == "unbounded"


def test_equality_constraint():
    r = solve_lp([1.0, 1.0], F=[[-1, 0], [0, -1]], f=[0, 0], E=[[1, 1]], e=[1])
    assert r.optimal
    assert r.objective == pytest.approx(1.0)
    assert r.x.sum() == pytest.approx(1.0)


def test_degenerate_no_cycle():
    # Klee-Minty-like degenerate rows; Bland's rule must terminate.
    F = [[1, 0, 0], [4, 1, 0], [8, 4, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    f = [5, 25, 125, 0, 0, 0]
    r = solve_lp([-4.0, -2.0, -1.0], F=F, f=f)
    assert r.optimal
    assert r.objective == pytest.approx(-125.0)


def test_max_slack_square():
    x, t = max_slack_point(F=[[1, 0], [0, 1], [-1, 0], [0, -1]], f=[1, 1, 1, 1], cap=10)
    assert t == pytest.approx(1.0)
    assert np.max(np.abs(x)) <= 1e-9


def test_max_slack_signed_for_infeasible_rows():
    # {x <= -2} n {x >= -1} is empty; the signed slack reports the gap.
    x, t = max_slack_point(F=[[1.0], [-1.0]], f=[-2.0, 1.0])
    assert t == pytest.approx(-0.5)


def test_max_slack_none_for_infeasible_equalities():
    x, t = max_slack_point(F=[[1.0, 0.0]], f=[1.0],
                           E=[[1.0, 0.0], [1.0, 0.0]], e=[0.0, 1.0])
    assert x is None and t is None


def test_max_slack_without_rows(monkeypatch):
    # No row at all: the variable count comes from F's columns, and the
    # slack is the cap at the origin, stated without an LP.
    x, t = max_slack_point(np.zeros((0, 3)), np.zeros(0), cap=4.0)
    assert t == 4.0 and np.array_equal(x, np.zeros(3))
    lps = []
    monkeypatch.setattr(simplex, "solve_lp", lambda *args: lps.append(args))
    for n in (1, 3, 20, 79):
        for cap in (1, 4.0):
            x, t = max_slack_point(np.zeros((0, n)), np.zeros(0), cap=cap)
            assert type(t) is float and t == cap
            assert x.shape == (n,) and np.array_equal(x, np.zeros(n))
            assert not np.signbit(x).any()
    assert lps == []


def test_max_slack_with_equality():
    # Segment {y1 = 1, -1 <= y2 <= 1}: depth 1 around (1, 0).
    x, t = max_slack_point(F=[[0, 1], [0, -1]], f=[1, 1], E=[[1, 0]], e=[1], cap=5)
    assert t == pytest.approx(1.0)
    assert x[0] == pytest.approx(1.0)


def test_support_box():
    F = [[1, 0], [0, 1], [-1, 0], [0, -1]]
    f = [1, 2, 1, 2]
    v, arg = support_value([3.0, -1.0], F=F, f=f)
    assert v == pytest.approx(3 * 1 + (-1) * (-2))
    assert np.allclose(arg, [1, -2])


def test_feasible_point_none_for_empty():
    assert feasible_point(F=[[1.0], [-1.0]], f=[-1.0, -1.0]) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_random_feasibility_agrees_with_interior_construction(seed):
    # Build a polytope guaranteed to contain x0; the solver must find a point in it.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    rows = int(rng.integers(1, 8))
    F = rng.standard_normal((rows, n))
    x0 = rng.standard_normal(n)
    f = F @ x0 + rng.uniform(0.01, 1.0, size=rows)
    x = feasible_point(F=F, f=f)
    assert x is not None
    assert np.all(F @ x <= f + 1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_random_lp_bounded_box_optimum_on_vertex(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    c = rng.standard_normal(n)
    F = np.vstack([np.eye(n), -np.eye(n)])
    f = np.ones(2 * n)
    r = solve_lp(c, F=F, f=f)
    assert r.optimal
    # Optimum of a linear functional over the unit box is -sum |c_i|.
    assert r.objective == pytest.approx(-np.sum(np.abs(c)), abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_random_lp_agrees_with_scipy(seed):
    from scipy.optimize import linprog

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    rows = int(rng.integers(1, 7))
    c = rng.standard_normal(n)
    # Random inequalities plus a box keep the problem bounded; feasibility is
    # not guaranteed, so status agreement is part of the check.
    F = np.vstack([rng.standard_normal((rows, n)), np.eye(n), -np.eye(n)])
    f = np.concatenate([rng.standard_normal(rows), np.full(2 * n, 3.0)])
    n_eq = int(rng.integers(0, 2))
    E = rng.standard_normal((n_eq, n)) if n_eq else None
    e = rng.standard_normal(n_eq) if n_eq else None
    ours = solve_lp(c, F=F, f=f, E=E, e=e)
    ref = linprog(c, A_ub=F, b_ub=f, A_eq=E, b_eq=e,
                  bounds=[(None, None)] * n, method="highs")
    if ref.status == 2:
        assert ours.status == "infeasible"
    else:
        assert ref.status == 0
        assert ours.optimal
        assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
