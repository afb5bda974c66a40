"""Unit + property tests for the shared row operations, the Omega test and
Cooper projection."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prelude import Sym
from repro.smt import linear as L
from repro.smt.omega import (
    DIV,
    EQ,
    GEQ,
    Infeasible,
    feasible,
    normalize,
    project,
)


def lin(coeffs, const):
    return (const, {v: c for v, c in coeffs.items() if c})


def _at(row, v, value):
    """``row`` with the variable ``v`` fixed to ``value``."""
    kind, e, d = row
    return (kind, L.substitute(e, lin({v: 1}, -value), v), d)


class TestRowOperations:
    def test_normalize_drops_zero_coeffs(self):
        x = Sym("x")
        assert L.normalize(3, {x: 0}) == lin({}, 3)

    def test_combine_cancels_the_variable(self):
        # 2x + y + 3 >= 0 and -2x + 5y - 1 >= 0  ->  12y + 4 >= 0,
        # gcd-tightened to y >= 0
        x, y = Sym("x"), Sym("y")
        out = L.combine(lin({x: 2, y: 1}, 3), lin({x: -2, y: 5}, -1), x)
        assert out == lin({y: 1}, 0)

    def test_combine_dark_shadow_offset(self):
        # 3x - 10 >= 0 and -2x + 9 >= 0: the real shadow 2*(-10) + 3*9 >= 0,
        # the dark shadow less (3-1)*(2-1)
        x = Sym("x")
        lo, up = lin({x: 3}, -10), lin({x: -2}, 9)
        assert L.combine(lo, up, x) == lin({}, 7)
        assert L.combine(lo, up, x, 2) == lin({}, 5)

    def test_subst(self):
        x, y = Sym("x"), Sym("y")
        a = lin({x: 3, y: 1}, 0)
        # x = 2y + 1, i.e. x - 2y - 1 == 0
        out = L.substitute(a, lin({x: 1, y: -2}, -1), x)
        assert out == lin({y: 7}, 3)

    def test_dedupe_keeps_the_tightest_row(self):
        x, y = Sym("x"), Sym("y")
        rows = [lin({x: 1}, 5), lin({y: 1}, 0), lin({x: 1}, 2)]
        assert L.dedupe(rows) == [lin({x: 1}, 2), lin({y: 1}, 0)]

    def test_lincomb(self):
        # 2*(x + 3y + 1) - 3*(2y - 4) = 2x + 14, the y term dropped
        x, y = Sym("x"), Sym("y")
        a = lin({x: 1, y: 3}, 1)
        assert L.lincomb((2, a), (-3, lin({y: 2}, -4))) == lin({x: 2}, 14)
        assert L.lincomb((1, a), (-1, a)) == lin({}, 0)
        assert a == lin({x: 1, y: 3}, 1)  # the arguments are not changed

    def test_normalize_eq_divides_by_the_gcd(self):
        # 4x - 6y + 10 == 0  ->  2x - 3y + 5 == 0
        x, y = Sym("x"), Sym("y")
        assert L.normalize_eq(10, {x: 4, y: -6, Sym("z"): 0}) == lin(
            {x: 2, y: -3}, 5
        )

    def test_normalize_eq_no_integer_solution(self):
        # 2x + 4y == 3 has no integer solution; 0 == 1 has none at all
        x, y = Sym("x"), Sym("y")
        assert L.normalize_eq(-3, {x: 2, y: 4}) is None
        assert L.normalize_eq(1, {x: 0}) is None
        assert L.normalize_eq(0, {x: 0}) == lin({}, 0)

    @given(
        st.integers(-20, 20),
        st.integers(-6, 6),
        st.integers(-6, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_normalize_eq_keeps_the_integer_solutions(self, c, a, b):
        x, y = Sym("x"), Sym("y")
        out = L.normalize_eq(c, {x: a, y: b})
        for vx, vy in itertools.product(range(-8, 9), repeat=2):
            holds = c + a * vx + b * vy == 0
            if out is None:
                assert not holds
            else:
                oc, om = out
                assert holds == (oc + om.get(x, 0) * vx + om.get(y, 0) * vy == 0)


class TestNormalize:
    def test_constant_contradiction_geq(self):
        with pytest.raises(Infeasible):
            normalize([(GEQ, lin({}, -1), 0)])

    def test_constant_contradiction_eq(self):
        with pytest.raises(Infeasible):
            normalize([(EQ, lin({}, 2), 0)])

    def test_gcd_tightening(self):
        # 2x - 1 >= 0 tightens to x - 1 >= 0 (x >= 1 over integers)
        x = Sym("x")
        (out,) = normalize([(GEQ, lin({x: 2}, -1), 0)])
        assert out[1] == lin({x: 1}, -1)

    def test_eq_divisibility_contradiction(self):
        x = Sym("x")
        with pytest.raises(Infeasible):
            normalize([(EQ, lin({x: 2}, 1), 0)])  # 2x + 1 = 0

    def test_div_constant(self):
        with pytest.raises(Infeasible):
            normalize([(DIV, lin({}, 3), 2)])
        assert normalize([(DIV, lin({}, 4), 2)]) == []


class TestFeasible:
    def test_simple_sat(self):
        x = Sym("x")
        assert feasible([(GEQ, lin({x: 1}, -5), 0)])  # x >= 5

    def test_between_bounds(self):
        x = Sym("x")
        cons = [
            (GEQ, lin({x: 1}, -3), 0),  # x >= 3
            (GEQ, lin({x: -1}, 3), 0),  # x <= 3
        ]
        assert feasible(cons)
        cons2 = [
            (GEQ, lin({x: 1}, -4), 0),
            (GEQ, lin({x: -1}, 3), 0),
        ]
        assert not feasible(cons2)

    def test_dark_shadow_gap(self):
        # 3x in [10, 11] has no integer solution
        x = Sym("x")
        cons = [
            (GEQ, lin({x: 3}, -10), 0),
            (GEQ, lin({x: -3}, 11), 0),
        ]
        assert not feasible(cons)

    def test_splinter_needed(self):
        # 3x >= 10 and 2x <= 9: x = 4 works (12 >= 10, 8 <= 9)
        x = Sym("x")
        cons = [
            (GEQ, lin({x: 3}, -10), 0),
            (GEQ, lin({x: -2}, 9), 0),
        ]
        assert feasible(cons)

    def test_equality_substitution(self):
        x, y = Sym("x"), Sym("y")
        cons = [
            (EQ, lin({x: 1, y: -2}, 0), 0),  # x = 2y
            (GEQ, lin({x: 1}, -7), 0),  # x >= 7
            (GEQ, lin({x: -1}, 8), 0),  # x <= 8
        ]
        assert feasible(cons)  # x = 8, y = 4

    def test_equality_mod_reduction(self):
        # 7x + 12y = 1 solvable (gcd 1); 6x + 12y = 1 is not
        x, y = Sym("x"), Sym("y")
        assert feasible([(EQ, lin({x: 7, y: 12}, -1), 0)])
        assert not feasible([(EQ, lin({x: 6, y: 12}, -1), 0)])

    def test_divisibility(self):
        x = Sym("x")
        cons = [
            (DIV, lin({x: 1}, 0), 4),  # 4 | x
            (GEQ, lin({x: 1}, -1), 0),  # x >= 1
            (GEQ, lin({x: -1}, 3), 0),  # x <= 3
        ]
        assert not feasible(cons)
        cons[2] = (GEQ, lin({x: -1}, 4), 0)  # x <= 4
        assert feasible(cons)

    def test_tiling_disjointness(self):
        # 16a + b == 16c + d, 0<=b,d<16, a < c: infeasible
        a, b, c, d = (Sym(n) for n in "abcd")
        cons = [
            (EQ, lin({a: 16, b: 1, c: -16, d: -1}, 0), 0),
            (GEQ, lin({b: 1}, 0), 0),
            (GEQ, lin({b: -1}, 15), 0),
            (GEQ, lin({d: 1}, 0), 0),
            (GEQ, lin({d: -1}, 15), 0),
            (GEQ, lin({c: 1, a: -1}, -1), 0),  # c >= a + 1
        ]
        assert not feasible(cons)


class TestProject:
    def test_project_equality_unit(self):
        # exists x. x = y + 1 and x >= 3  ->  y >= 2
        x, y = Sym("x"), Sym("y")
        cons = [
            (EQ, lin({x: 1, y: -1}, -1), 0),
            (GEQ, lin({x: 1}, -3), 0),
        ]
        (out,) = project(cons, [x])
        assert out == [(GEQ, lin({y: 1}, -2), 0)]

    def test_project_equality_coefficient(self):
        # exists x. 3x = y  ->  3 | y
        x, y = Sym("x"), Sym("y")
        cons = [(EQ, lin({x: 3, y: -1}, 0), 0)]
        (out,) = project(cons, [x])
        assert any(kind == DIV and d == 3 for kind, _e, d in out)

    def test_project_inequalities_exact(self):
        # exists x. y <= x <= z  ->  y <= z
        x, y, z = Sym("x"), Sym("y"), Sym("z")
        cons = [
            (GEQ, lin({x: 1, y: -1}, 0), 0),
            (GEQ, lin({x: -1, z: 1}, 0), 0),
        ]
        (out,) = project(cons, [x])
        assert out == [(GEQ, lin({z: 1, y: -1}, 0), 0)]

    def test_project_cooper_divisibility(self):
        # exists x. 2x <= y <= 2x + 1 is always true: projection must be
        # satisfiable for every y in a small range
        x, y = Sym("x"), Sym("y")
        cons = [
            (GEQ, lin({y: 1, x: -2}, 0), 0),
            (GEQ, lin({y: -1, x: 2}, 1), 0),
        ]
        disjuncts = project(cons, [x])
        assert disjuncts
        for yv in range(-4, 5):
            ok = any(
                feasible([_at(c, y, yv) for c in d])
                for d in disjuncts
            )
            assert ok, f"y={yv} wrongly excluded"

    def test_project_preserves_free_var_meaning(self):
        # exists x. y = 2x  ->  y even; verify on concrete values
        x, y = Sym("x"), Sym("y")
        cons = [(EQ, lin({y: 1, x: -2}, 0), 0)]
        disjuncts = project(cons, [x])
        for yv in range(-6, 7):
            got = any(
                feasible([_at(c, y, yv) for c in d])
                for d in disjuncts
            )
            assert got == (yv % 2 == 0)


# -- property-based: compare against brute force ------------------------------

_VARS = [Sym("p"), Sym("q")]


@st.composite
def small_systems(draw):
    n = draw(st.integers(1, 4))
    cons = []
    for _ in range(n):
        coeffs = {v: draw(st.integers(-4, 4)) for v in _VARS}
        const = draw(st.integers(-10, 10))
        kind = draw(st.sampled_from([GEQ, EQ]))
        cons.append((kind, lin(coeffs, const), 0))
    # keep systems bounded so brute force over [-12, 12]^2 is conclusive
    for v in _VARS:
        cons.append((GEQ, lin({v: 1}, 12), 0))
        cons.append((GEQ, lin({v: -1}, 12), 0))
    return cons


def _brute_force(cons):
    for pv, qv in itertools.product(range(-12, 13), repeat=2):
        ok = True
        for kind, (const, m), _d in cons:
            val = const
            val += m.get(_VARS[0], 0) * pv
            val += m.get(_VARS[1], 0) * qv
            if kind == GEQ and val < 0:
                ok = False
                break
            if kind == EQ and val != 0:
                ok = False
                break
        if ok:
            return True
    return False


@settings(max_examples=80, deadline=None)
@given(cons=small_systems())
def test_feasible_matches_brute_force(cons):
    assert feasible(cons) == _brute_force(cons)
