import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from plqnewton.errors import EvalDomainError, ExprSyntaxError
from plqnewton.exprmap import (
    BinOp,
    Const,
    Func,
    IntPow,
    Neg,
    SmoothMap,
    Var,
    fd_jacobian,
    fd_weighted_hessian,
    parse_expr,
)

from oracles import eval_value, format_expr, rotated_map


class TestParsing:
    def test_polynomial(self):
        ast = parse_expr("x1^2 + x2", 2)
        assert eval_value(ast, [3.0, 1.0]) == pytest.approx(10.0)

    def test_sin_product(self):
        ast = parse_expr("sin(x1)*x2", 2)
        assert eval_value(ast, [0.0, 5.0]) == pytest.approx(0.0)

    def test_variable_out_of_range(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("x3", 2)

    def test_syntax_error_has_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("x1 + * 2", 2)
        assert err.value.position == 5

    def test_precedence(self):
        ast = parse_expr("1 + 2 * 3 - 4 / 2", 1)
        assert eval_value(ast, [0.0]) == pytest.approx(5.0)

    def test_power_binds_parsed_base(self):
        # Under this grammar '-x1^2' is (-x1)^2.
        ast = parse_expr("-x1^2", 1)
        assert eval_value(ast, [3.0]) == pytest.approx(9.0)

    def test_negative_exponent(self):
        ast = parse_expr("x1^-2", 1)
        assert eval_value(ast, [2.0]) == pytest.approx(0.25)

    def test_scientific_number(self):
        ast = parse_expr("1e-3 * x1", 1)
        assert eval_value(ast, [2.0]) == pytest.approx(2e-3)

    def test_nested_functions(self):
        ast = parse_expr("exp(log(x1)) + sqrt(x1^2)", 1)
        assert eval_value(ast, [2.5]) == pytest.approx(5.0)


def _ast_strategy(n=2, depth=3):
    # Constants are nonnegative: the grammar has no negative literal, so a
    # parsed tree always carries the sign as a Neg node.
    leaf = st.one_of(
        st.integers(1, n).map(Var),
        st.floats(0, 4, allow_nan=False).map(lambda v: Const(abs(round(v, 3)))),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*"), children, children).map(lambda t: BinOp(*t)),
            children.map(Neg),
            st.tuples(children, st.integers(0, 3)).map(lambda t: IntPow(t[0], t[1])),
            st.tuples(st.sampled_from(["sin", "cos", "exp"]), children).map(lambda t: Func(*t)),
        )

    return st.recursive(leaf, extend, max_leaves=8)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_ast_strategy())
    def test_parse_of_format_is_identity(self, ast):
        assert parse_expr(format_expr(ast), 2) == ast


class TestSweepOrders:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ast_strategy(), min_size=1, max_size=3),
           st.lists(st.floats(-2, 2), min_size=2, max_size=2),
           st.lists(st.floats(-2, 2), min_size=3, max_size=3))
    def test_lower_orders_are_the_parts_of_the_full_jet(self, comps, x, y):
        # Bit-identical, not approximate: the value and first-order sweeps do
        # the floating-point operations of the parts they share with the full one.
        c = SmoothMap(2, len(comps), tuple(comps))
        y = y[:len(comps)]
        try:
            lin = c.evaluate(x, y)
        except EvalDomainError:
            assume(False)
        assume(np.all(np.isfinite(lin.H)))
        assert np.array_equal(c.value(x), lin.c)
        assert np.array_equal(c.jacobian(x), lin.J)
        first = c.evaluate(x)
        assert np.array_equal(first.c, lin.c) and np.array_equal(first.J, lin.J)
        assert first.H is None


class TestEvaluateMap:
    def test_polynomial_map(self):
        c = SmoothMap.from_strings(["x1^2", "x2"], 2)
        val, jac, wh = c.evaluate([1.0, 2.0], [1.0, 0.0])
        assert np.allclose(val, [1, 2])
        assert np.allclose(jac, [[2, 0], [0, 1]])
        assert np.allclose(wh, [[2, 0], [0, 0]])

    def test_bilinear(self):
        c = SmoothMap.from_strings(["x1*x2"], 2)
        _, _, wh = c.evaluate([2.0, 3.0], [1.0])
        assert np.allclose(wh, [[0, 1], [1, 0]])

    def test_weighted_sin(self):
        # Oracle: central differences at step 1e-5 within 1e-6.
        c = SmoothMap.from_strings(["sin(x1)"], 1)
        _, _, wh = c.evaluate([0.7], [2.0])
        assert wh[0, 0] == pytest.approx(-2 * np.sin(0.7), abs=1e-12)
        fd = fd_weighted_hessian(c, [0.7], [2.0])
        assert abs(wh[0, 0] - fd[0, 0]) < 1e-6

    def test_domain_error_carries_component(self):
        c = SmoothMap.from_strings(["x1", "log(x1)"], 1)
        with pytest.raises(EvalDomainError) as err:
            c.value([-1.0])
        assert err.value.component == 1

    def test_division_by_zero(self):
        c = SmoothMap.from_strings(["1/x1"], 1)
        with pytest.raises(EvalDomainError):
            c.value([0.0])

    @pytest.mark.parametrize("exprs,x,component", [
        (["exp(exp(exp(x1)))", "x2"], [10.0, 0.0], 0),
        (["x2", "x1^400"], [1e10, 0.0], 1),
    ])
    @pytest.mark.parametrize("sweep", ["value", "jacobian", "weighted_hessian"])
    def test_overflow_is_a_domain_error(self, exprs, x, component, sweep):
        c = SmoothMap.from_strings(exprs, 2)
        args = (x, [1.0, 1.0]) if sweep == "weighted_hessian" else (x,)
        with pytest.raises(EvalDomainError) as err:
            getattr(c, sweep)(*args)
        assert err.value.component == component

    def test_fault_only_in_the_hessian_spares_lower_orders(self):
        # d2 log(v) = -1/v^2 divides by an underflowed v*v at v = 1e-200.
        c = SmoothMap.from_strings(["log(x1)"], 1)
        assert c.value([1e-200])[0] == pytest.approx(-460.517, rel=1e-5)
        assert c.jacobian([1e-200])[0, 0] == 1.0 / 1e-200
        with pytest.raises(EvalDomainError) as err:
            c.evaluate([1e-200], [1.0])
        assert err.value.component == 0

    def test_hessian_symmetric(self):
        rng = np.random.default_rng(2)
        c = SmoothMap.from_strings(
            ["sin(x1)*exp(x2) + x1^3*x2", "x1*x2*x1 - cos(x2)"], 2)
        for _ in range(50):
            x = rng.uniform(-2, 2, size=2)
            y = rng.standard_normal(2)
            wh = c.weighted_hessian(x, y)
            assert np.max(np.abs(wh - wh.T)) <= 1e-13

    def test_ad_matches_fd_on_random_points(self):
        rng = np.random.default_rng(8)
        c = SmoothMap.from_strings(
            ["exp(x1/4)*sin(x2)", "x1^2*x2 + sqrt(x2*x2 + 1)", "x1/(x2^2 + 2)"], 2)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=2)
            y = rng.standard_normal(3)
            jac = c.jacobian(x)
            scale_j = 1 + np.max(np.abs(jac))
            assert np.max(np.abs(jac - fd_jacobian(c, x))) <= 1e-6 * scale_j
            wh = c.weighted_hessian(x, y)
            scale_h = 1 + np.max(np.abs(wh))
            assert np.max(np.abs(wh - fd_weighted_hessian(c, x, y))) <= 1e-5 * scale_h

    def test_rotated_map(self):
        rng = np.random.default_rng(5)
        c = SmoothMap.from_strings(["x1^2 + sin(x2)", "x1*x2"], 2)
        theta = 0.6
        U = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        cr = rotated_map(c, U)
        for _ in range(20):
            x = rng.standard_normal(2)
            assert np.allclose(cr.value(x), c.value(U @ x), atol=1e-12)
            assert np.allclose(cr.jacobian(x), c.jacobian(U @ x) @ U, atol=1e-12)
