"""IR simplification: constant folding and affine normalization."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ast as IR
from repro.core import types as T
from repro.core.prelude import Sym
from repro.scheduling.simplify import _linearize, simplify_expr


def C(v):
    return IR.Const(v, T.int_t)


def V(sym):
    return IR.Read(sym, (), T.index_t)


def bop(op, a, b, typ=T.index_t):
    return IR.BinOp(op, a, b, typ)


class TestFolding:
    def test_const_fold(self):
        assert simplify_expr(bop("+", C(2), C(3))).val == 5
        assert simplify_expr(bop("*", C(4), C(3))).val == 12
        assert simplify_expr(bop("/", C(7), C(2))).val == 3
        assert simplify_expr(bop("%", C(7), C(2))).val == 1

    def test_identity_elim(self):
        x = Sym("x")
        assert simplify_expr(bop("+", V(x), C(0))) == V(x)
        assert simplify_expr(bop("*", C(1), V(x))) == V(x)
        assert simplify_expr(bop("*", C(0), V(x))).val == 0

    def test_affine_cancellation(self):
        x = Sym("x")
        # (16*x + 3) - 16*x  ->  3
        e = bop("-", bop("+", bop("*", C(16), V(x)), C(3)), bop("*", C(16), V(x)))
        out = simplify_expr(e)
        assert isinstance(out, IR.Const) and out.val == 3

    def test_affine_collection(self):
        x = Sym("x")
        # x + x + x -> 3*x
        e = bop("+", bop("+", V(x), V(x)), V(x))
        out = simplify_expr(e)
        lin = _linearize(out)
        assert lin == (0, {x: 3})

    def test_comparison_fold(self):
        out = simplify_expr(bop("<", C(3), C(4), T.bool_t))
        assert out.val is True

    def test_non_affine_preserved(self):
        x = Sym("x")
        e = bop("/", V(x), C(4))
        out = simplify_expr(e)
        assert isinstance(out, IR.BinOp) and out.op == "/"


class TestLinearize:
    def test_simple(self):
        x, y = Sym("x"), Sym("y")
        e = bop("+", bop("*", C(2), V(x)), bop("-", V(y), C(5)))
        assert _linearize(e) == (-5, {x: 2, y: 1})

    def test_div_not_linear(self):
        x = Sym("x")
        assert _linearize(bop("/", V(x), C(2))) is None

    def test_neg(self):
        x = Sym("x")
        e = IR.USub(V(x), T.index_t)
        assert _linearize(e) == (0, {x: -1})


_SYMS = [Sym("sa"), Sym("sb")]


@st.composite
def exprs(draw, depth=3):
    if depth == 0:
        kind = draw(st.sampled_from(["const", "var"]))
        if kind == "const":
            return C(draw(st.integers(-10, 10)))
        return V(draw(st.sampled_from(_SYMS)))
    kind = draw(st.sampled_from(["const", "var", "add", "sub", "mul", "div", "mod"]))
    if kind == "const":
        return C(draw(st.integers(-10, 10)))
    if kind == "var":
        return V(draw(st.sampled_from(_SYMS)))
    a = draw(exprs(depth=depth - 1))
    if kind in ("div", "mod"):
        return bop("/" if kind == "div" else "%", a, C(draw(st.integers(1, 8))))
    if kind == "mul":
        return bop("*", C(draw(st.integers(-4, 4))), a)
    b = draw(exprs(depth=depth - 1))
    return bop("+" if kind == "add" else "-", a, b)


def _eval(e, env):
    if isinstance(e, IR.Const):
        return e.val
    if isinstance(e, IR.Read):
        return env[e.name]
    if isinstance(e, IR.USub):
        return -_eval(e.arg, env)
    if isinstance(e, IR.BinOp):
        l, r = _eval(e.lhs, env), _eval(e.rhs, env)
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r
        if e.op == "*":
            return l * r
        if e.op == "/":
            return l // r
        if e.op == "%":
            return l % r
    raise AssertionError(e)


@settings(max_examples=80, deadline=None)
@given(e=exprs(), va=st.integers(-20, 20), vb=st.integers(-20, 20))
def test_simplify_preserves_value(e, va, vb):
    env = {_SYMS[0]: va, _SYMS[1]: vb}
    assert _eval(simplify_expr(e), env) == _eval(e, env)
