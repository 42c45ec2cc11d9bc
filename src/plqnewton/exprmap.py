"""Smooth maps defined by expression strings, with exact derivatives.

Grammar:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' int)?
    base   := number | 'x'<index> | func '(' expr ')' | '(' expr ')' | '-' base
    func   := sin | cos | exp | log | sqrt

Note that '^' binds the parsed base, so "-x1^2" is (-x1)^2 under this grammar.
Derivatives are exact for the grammar. One forward sweep over a component's
tree carries them only to the order the caller asks for: `SmoothMap.value` is
a float-only sweep, `jacobian` and `evaluate(x)` carry value and gradient,
and `evaluate(x, y)` adds the dense Hessian, which it sums with the weights y
into the linearization (c, J, H_y). The sweeps share one tree walker and
perform the same floating-point operations for the parts they share, so a
value or gradient does not depend on the order of the sweep that made it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EvalDomainError, ExprSyntaxError
from .numerics import as_vector

_FUNCS = ("sin", "cos", "exp", "log", "sqrt")


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class IntPow:
    child: object
    power: int


@dataclass(frozen=True)
class Func:
    name: str
    child: object


# -- tokenizer / parser --------------------------------------------------------


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            toks.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            try:
                val = float(text[i:j])
            except ValueError:
                raise ExprSyntaxError(f"bad number {text[i:j]!r}", i)
            toks.append(("num", val, i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    toks.append(("end", None, n))
    return toks


class _Parser:
    def __init__(self, toks, n_vars):
        self.toks = toks
        self.pos = 0
        self.n_vars = n_vars

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        node = self.base()
        if self.peek()[0] == "^":
            self.take()
            sign = 1
            if self.peek()[0] == "-":
                self.take()
                sign = -1
            tok = self.take("num")
            if float(tok[1]) != int(tok[1]):
                raise ExprSyntaxError("exponent must be an integer", tok[2])
            node = IntPow(node, sign * int(tok[1]))
        return node

    def base(self):
        tok = self.peek()
        if tok[0] == "-":
            self.take()
            return Neg(self.base())
        if tok[0] == "num":
            self.take()
            return Const(float(tok[1]))
        if tok[0] == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if tok[0] == "name":
            name = tok[1]
            if name in _FUNCS:
                self.take()
                self.take("(")
                node = self.expr()
                self.take(")")
                return Func(name, node)
            if name.startswith("x") and name[1:].isdigit():
                self.take()
                idx = int(name[1:])
                if not 1 <= idx <= self.n_vars:
                    raise ExprSyntaxError(f"variable x{idx} out of range 1..{self.n_vars}", tok[2])
                return Var(idx)
            raise ExprSyntaxError(f"unknown name {name!r}", tok[2])
        raise ExprSyntaxError(f"unexpected token {tok[1]!r}", tok[2])


def parse_expr(text: str, n: int):
    """Parse expression text over variables x1..xn into an AST."""
    return _Parser(_tokenize(text), n).parse()


# -- order-aware forward sweeps ---------------------------------------------------
#
# A jet is the tuple (value,), (value, gradient) or (value, gradient, Hessian):
# its length is the sweep's order plus one. Each part of a node's jet is made
# from the same parts of its children only, so a sweep of lower order performs
# exactly the floating-point operations of the parts it keeps from a higher
# one, and its results agree with them bit for bit.


def _leaf(v, i, n, order):
    """Jet of the constant v (i is None) or of the variable x_{i+1} = v."""
    if order == 0:
        return (v,)
    g = np.zeros(n)
    if i is not None:
        g[i] = 1.0
    return (v, g) if order == 1 else (v, g, np.zeros((n, n)))


def _chain(a, f0, d1, d2):
    """Jet of f(a) from f0 = f(a.v); d1() and d2() give f'(a.v) and f''(a.v)
    and are called only when the order needs them."""
    if len(a) == 1:
        return (f0,)
    f1 = d1()
    if len(a) == 2:
        return (f0, f1 * a[1])
    return (f0, f1 * a[1], f1 * a[2] + d2() * np.outer(a[1], a[1]))


def _mul(a, b):
    v = a[0] * b[0]
    if len(a) == 1:
        return (v,)
    g = a[0] * b[1] + b[0] * a[1]
    if len(a) == 2:
        return (v, g)
    cross = np.outer(a[1], b[1])
    return (v, g, a[0] * b[2] + b[0] * a[2] + cross + cross.T)


def _reciprocal(a):
    if a[0] == 0.0:
        raise EvalDomainError("division by zero")
    iv = 1.0 / a[0]
    return _chain(a, iv, lambda: -iv * iv, lambda: 2.0 * iv ** 3)


def _intpow(a, p):
    """a^p for an integer p >= 1."""
    v = a[0]
    return _chain(a, v ** p, lambda: p * v ** (p - 1),
                  lambda: p * (p - 1) * v ** (p - 2) if p >= 2 else 0.0)


def _apply(name, a):
    v = a[0]
    if name == "sin":
        return _chain(a, math.sin(v), lambda: math.cos(v), lambda: -math.sin(v))
    if name == "cos":
        return _chain(a, math.cos(v), lambda: -math.sin(v), lambda: -math.cos(v))
    if name == "exp":
        ev = math.exp(v)
        return _chain(a, ev, lambda: ev, lambda: ev)
    if name == "log":
        if v <= 0.0:
            raise EvalDomainError("log of a nonpositive value")
        return _chain(a, math.log(v), lambda: 1.0 / v, lambda: -1.0 / (v * v))
    if name == "sqrt":
        if v < 0.0:
            raise EvalDomainError("sqrt of a negative value")
        if v == 0.0:
            raise EvalDomainError("sqrt not differentiable at zero")
        s = math.sqrt(v)
        return _chain(a, s, lambda: 0.5 / s, lambda: -0.25 / (s * v))
    raise ValueError(f"unknown function {name}")


def _sweep(node, x, order):
    """Jet of one expression at x (a list of floats) to the given order:
    0 for the value, 1 adds the gradient, 2 adds the Hessian."""
    if isinstance(node, Const):
        return _leaf(node.value, None, len(x), order)
    if isinstance(node, Var):
        return _leaf(x[node.index - 1], node.index - 1, len(x), order)
    if isinstance(node, Neg):
        return tuple(map(operator.neg, _sweep(node.child, x, order)))
    if isinstance(node, BinOp):
        a = _sweep(node.left, x, order)
        b = _sweep(node.right, x, order)
        if node.op == "+":
            return tuple(map(operator.add, a, b))
        if node.op == "-":
            return tuple(map(operator.sub, a, b))
        if node.op == "*":
            return _mul(a, b)
        return _mul(a, _reciprocal(b))
    if isinstance(node, IntPow):
        a = _sweep(node.child, x, order)
        p = node.power
        if p < 0 and a[0] == 0.0:
            raise EvalDomainError("zero raised to a negative power")
        if p == 0:
            return _leaf(1.0, None, len(x), order)
        return _reciprocal(_intpow(a, -p)) if p < 0 else _intpow(a, p)
    if isinstance(node, Func):
        return _apply(node.name, _sweep(node.child, x, order))
    raise TypeError(f"not an expression node: {node!r}")


# -- smooth maps ------------------------------------------------------------------


class Linearization(NamedTuple):
    """c(x), its Jacobian, and the weighted Hessian sum_i y_i Hess c_i(x)
    (None when no y was given)."""

    c: np.ndarray
    J: np.ndarray
    H: np.ndarray | None


@dataclass(frozen=True)
class SmoothMap:
    """c : R^n -> R^m assembled from m expression components."""

    n: int
    m: int
    components: tuple
    texts: tuple = ()

    def __post_init__(self):
        if len(self.components) != self.m:
            raise ValueError("component count does not match m")

    @staticmethod
    def from_strings(exprs, n) -> "SmoothMap":
        comps = tuple(parse_expr(s, n) for s in exprs)
        return SmoothMap(n, len(comps), comps, tuple(exprs))

    def _jets(self, x, order):
        """Each component's jet at x; a domain fault, or an overflow or zero
        division in the arithmetic, raises EvalDomainError naming the component."""
        xs = x.tolist()
        for i, comp in enumerate(self.components):
            try:
                jet = _sweep(comp, xs, order)
            except EvalDomainError as err:
                raise EvalDomainError(str(err), component=i) from None
            except (OverflowError, ZeroDivisionError) as err:
                raise EvalDomainError(f"floating-point fault: {err}", component=i) from None
            yield jet

    def value(self, x) -> np.ndarray:
        """c(x), by a float-only sweep; a non-finite entry raises
        EvalDomainError naming its component."""
        x = as_vector(x, self.n, "x")
        out = np.empty(self.m)
        for i, jet in enumerate(self._jets(x, 0)):
            if not math.isfinite(jet[0]):
                raise EvalDomainError("non-finite value", component=i)
            out[i] = jet[0]
        return out

    def jacobian(self, x) -> np.ndarray:
        return self.evaluate(x).J

    def weighted_hessian(self, x, y) -> np.ndarray:
        return self.evaluate(x, y).H

    def evaluate(self, x, y=None) -> Linearization:
        """(value, jacobian, weighted hessian sum_i y_i Hess c_i) at x.

        Without y the sweep stops at first order and the weighted Hessian
        entry is None. A non-finite entry of c, J or H raises EvalDomainError
        naming the component that made it.
        """
        x = as_vector(x, self.n, "x")
        m, n = self.m, self.n
        # c, J and the weighted Hessian share one buffer, checked at once.
        buf = np.zeros(m + m * n + (0 if y is None else n * n))
        val, jac, wh = buf[:m], buf[m:m + m * n].reshape(m, n), None
        if y is not None:
            y = as_vector(y, m, "y")
            wh = buf[m + m * n:].reshape(n, n)
        with np.errstate(all="ignore"):  # an overflow or NaN is refused below
            for i, jet in enumerate(self._jets(x, 1 if y is None else 2)):
                val[i] = jet[0]
                jac[i] = jet[1]
                if wh is not None:
                    wh += y[i] * jet[2]
        if not np.isfinite(buf).all():
            self._refuse_nonfinite(x, y, 1 if y is None else 2)
        if wh is not None:
            wh = 0.5 * (wh + wh.T)
        return Linearization(val, jac, wh)

    def _refuse_nonfinite(self, x, y, order):
        """Raise EvalDomainError for the first component whose value,
        gradient or Hessian at x is not finite, or whose weighted Hessian
        term y_i Hess c_i makes the running sum non-finite."""
        wh = np.zeros((self.n, self.n))
        with np.errstate(all="ignore"):
            for i, jet in enumerate(self._jets(x, order)):
                parts = list(zip(("value", "gradient", "Hessian"), jet))
                if y is not None:
                    wh += y[i] * jet[2]
                    parts.append(("weighted Hessian", wh))
                for name, part in parts:
                    if not np.isfinite(part).all():
                        raise EvalDomainError(f"non-finite {name}", component=i)


def fd_jacobian(c: SmoothMap, x, step=1e-5) -> np.ndarray:
    """Central finite differences of the map values."""
    x = as_vector(x, c.n, "x")
    J = np.empty((c.m, c.n))
    for j in range(c.n):
        dx = np.zeros(c.n)
        dx[j] = step
        J[:, j] = (c.value(x + dx) - c.value(x - dx)) / (2 * step)
    return J


def fd_weighted_hessian(c: SmoothMap, x, y, step=1e-5) -> np.ndarray:
    """Central finite differences of the weighted gradient x -> Jac(x)^T y."""
    x = as_vector(x, c.n, "x")
    y = as_vector(y, c.m, "y")
    H = np.empty((c.n, c.n))
    for j in range(c.n):
        dx = np.zeros(c.n)
        dx[j] = step
        gp = c.jacobian(x + dx).T @ y
        gm = c.jacobian(x - dx).T @ y
        H[:, j] = (gp - gm) / (2 * step)
    return 0.5 * (H + H.T)
