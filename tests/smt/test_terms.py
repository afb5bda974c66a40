"""Unit + property tests for the SMT term language."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prelude import Sym
from repro.smt import terms as S


@pytest.fixture
def xy():
    return Sym("x"), Sym("y")


class TestSmartConstructors:
    def test_add_folds_constants(self):
        assert S.add(S.IntC(2), S.IntC(3)) == S.IntC(5)

    def test_add_flattens(self, xy):
        x, y = xy
        t = S.add(S.add(S.Var(x), S.IntC(1)), S.add(S.Var(y), S.IntC(2)))
        assert isinstance(t, S.Add)
        consts = [a for a in t.args if isinstance(a, S.IntC)]
        assert len(consts) == 1 and consts[0].val == 3

    def test_scale_zero(self, xy):
        assert S.scale(0, S.Var(xy[0])) == S.IntC(0)

    def test_scale_one_identity(self, xy):
        v = S.Var(xy[0])
        assert S.scale(1, v) is v

    def test_scale_distributes_over_add(self, xy):
        x, y = xy
        t = S.scale(3, S.add(S.Var(x), S.Var(y)))
        assert isinstance(t, S.Add)
        assert all(isinstance(a, S.Scale) for a in t.args)

    def test_scale_composes(self, xy):
        t = S.scale(2, S.scale(3, S.Var(xy[0])))
        assert isinstance(t, S.Scale) and t.coeff == 6

    def test_floordiv_by_one(self, xy):
        v = S.Var(xy[0])
        assert S.floordiv(v, 1) is v

    def test_floordiv_folds_constants(self):
        assert S.floordiv(S.IntC(-7), 2) == S.IntC(-4)  # floor semantics

    def test_mod_folds_constants(self):
        assert S.mod(S.IntC(-7), 4) == S.IntC(1)  # Python % semantics

    def test_mod_by_one(self, xy):
        assert S.mod(S.Var(xy[0]), 1) == S.IntC(0)

    def test_div_distribution_fold(self, xy):
        x = xy[0]
        # (4x + 3)/4 == x + 3/4 == x + 0
        t = S.floordiv(S.add(S.scale(4, S.Var(x)), S.IntC(3)), 4)
        assert t == S.Var(x)

    def test_mod_distribution_fold(self, xy):
        x = xy[0]
        t = S.mod(S.add(S.scale(4, S.Var(x)), S.IntC(3)), 4)
        assert t == S.IntC(3)

    def test_cmp_folds(self):
        assert S.lt(S.IntC(1), S.IntC(2)) == S.TRUE
        assert S.ge(S.IntC(1), S.IntC(2)) == S.FALSE

    def test_conj_identity_absorb(self, xy):
        a = S.lt(S.Var(xy[0]), S.IntC(3))
        assert S.conj(S.TRUE, a) is a
        assert S.conj(S.FALSE, a) == S.FALSE
        assert S.conj() == S.TRUE

    def test_disj_identity_absorb(self, xy):
        a = S.lt(S.Var(xy[0]), S.IntC(3))
        assert S.disj(S.FALSE, a) is a
        assert S.disj(S.TRUE, a) == S.TRUE
        assert S.disj() == S.FALSE

    def test_conj_dedup(self, xy):
        a = S.lt(S.Var(xy[0]), S.IntC(3))
        assert S.conj(a, a) is a

    def test_negate_involution(self, xy):
        a = S.lt(S.Var(xy[0]), S.IntC(3))
        assert S.negate(S.negate(a)) is a

    def test_exists_merges(self, xy):
        x, y = xy
        inner = S.exists([y], S.lt(S.Var(x), S.Var(y)))
        outer = S.exists([x], inner)
        assert isinstance(outer, S.Exists) and outer.vars == (x, y)

    def test_empty_quantifier(self, xy):
        a = S.lt(S.Var(xy[0]), S.IntC(3))
        assert S.exists([], a) is a
        assert S.forall([], a) is a


class TestSubstitution:
    def test_var_substitution(self, xy):
        x, y = xy
        t = S.add(S.Var(x), S.IntC(1))
        assert S.substitute(t, {x: S.IntC(4)}) == S.IntC(5)

    def test_shadowed_by_quantifier(self, xy):
        x, y = xy
        t = S.exists([x], S.lt(S.Var(x), S.Var(y)))
        out = S.substitute(t, {x: S.IntC(0), y: S.IntC(9)})
        assert isinstance(out, S.Exists)
        assert S.free_vars(out) == set()

    def test_free_vars(self, xy):
        x, y = xy
        t = S.conj(S.lt(S.Var(x), S.IntC(1)), S.exists([y], S.gt(S.Var(y), S.Var(x))))
        assert S.free_vars(t) == {x}

    def test_substitute_through_mod(self, xy):
        x = xy[0]
        t = S.mod(S.Var(x), 4)
        assert S.substitute(t, {x: S.IntC(7)}) == S.IntC(3)


# -- property-based tests ---------------------------------------------------


def _eval_term(t, env):
    if isinstance(t, S.Var):
        return env[t.sym]
    if isinstance(t, S.IntC):
        return t.val
    if isinstance(t, S.Add):
        return sum(_eval_term(a, env) for a in t.args)
    if isinstance(t, S.Scale):
        return t.coeff * _eval_term(t.arg, env)
    if isinstance(t, S.FloorDiv):
        return _eval_term(t.arg, env) // t.divisor
    if isinstance(t, S.Mod):
        return _eval_term(t.arg, env) % t.divisor
    raise AssertionError(f"unexpected {t}")


@st.composite
def linear_terms(draw, syms):
    coeffs = [draw(st.integers(-8, 8)) for _ in syms]
    const = draw(st.integers(-20, 20))
    parts = [S.scale(c, S.Var(s)) for c, s in zip(coeffs, syms)]
    parts.append(S.IntC(const))
    return S.add(*parts)


_SYMS = [Sym("a"), Sym("b"), Sym("c")]


@settings(max_examples=60, deadline=None)
@given(
    t=linear_terms(_SYMS),
    d=st.integers(2, 9),
    vals=st.tuples(*[st.integers(-30, 30) for _ in _SYMS]),
)
def test_mod_constructor_preserves_semantics(t, d, vals):
    env = dict(zip(_SYMS, vals))
    assert _eval_term(S.mod(t, d), env) == _eval_term(t, env) % d


@settings(max_examples=60, deadline=None)
@given(
    t=linear_terms(_SYMS),
    d=st.integers(2, 9),
    vals=st.tuples(*[st.integers(-30, 30) for _ in _SYMS]),
)
def test_floordiv_constructor_preserves_semantics(t, d, vals):
    env = dict(zip(_SYMS, vals))
    assert _eval_term(S.floordiv(t, d), env) == _eval_term(t, env) // d


@settings(max_examples=60, deadline=None)
@given(
    t=linear_terms(_SYMS),
    k=st.integers(-6, 6),
    vals=st.tuples(*[st.integers(-30, 30) for _ in _SYMS]),
)
def test_scale_preserves_semantics(t, k, vals):
    env = dict(zip(_SYMS, vals))
    assert _eval_term(S.scale(k, t), env) == k * _eval_term(t, env)
