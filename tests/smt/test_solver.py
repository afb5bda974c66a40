"""Tests of the full decision procedure: validity, satisfiability, QE."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prelude import Sym
from repro.smt import terms as S
from repro.smt.solver import Solver, dnf_stream, elim_ite, nnf


@pytest.fixture
def solver():
    return Solver()


def V(sym):
    return S.Var(sym)


class TestGroundDecisions:
    def test_trivial(self, solver):
        assert solver.prove(S.TRUE)
        assert not solver.prove(S.FALSE)
        assert solver.satisfiable(S.TRUE)
        assert not solver.satisfiable(S.FALSE)

    def test_arith_validity(self, solver):
        x = Sym("x")
        assert solver.prove(S.gt(S.add(V(x), S.IntC(1)), V(x)))
        assert not solver.prove(S.gt(V(x), S.IntC(0)))

    def test_parity(self, solver):
        x = Sym("x")
        assert not solver.satisfiable(S.eq(S.scale(2, V(x)), S.IntC(5)))
        assert solver.satisfiable(S.eq(S.scale(2, V(x)), S.IntC(6)))

    def test_bool_vars(self, solver):
        b = S.Var(Sym("b"), S.BOOL)
        assert solver.satisfiable(b)
        assert not solver.satisfiable(S.conj(b, S.negate(b)))
        assert solver.prove(S.disj(b, S.negate(b)))

    def test_implication_chains(self, solver):
        x, y, z = Sym("x"), Sym("y"), Sym("z")
        phi = S.implies(
            S.conj(S.le(V(x), V(y)), S.le(V(y), V(z))), S.le(V(x), V(z))
        )
        assert solver.prove(phi)

    def test_mod_range(self, solver):
        x = Sym("x")
        assert solver.prove(
            S.conj(S.ge(S.mod(V(x), 7), S.IntC(0)), S.lt(S.mod(V(x), 7), S.IntC(7)))
        )

    def test_div_mod_identity(self, solver):
        x = Sym("x")
        recomposed = S.add(S.scale(5, S.floordiv(V(x), 5)), S.mod(V(x), 5))
        assert solver.prove(S.eq(recomposed, V(x)))

    def test_div_monotone(self, solver):
        x, y = Sym("x"), Sym("y")
        phi = S.implies(
            S.le(V(x), V(y)), S.le(S.floordiv(V(x), 3), S.floordiv(V(y), 3))
        )
        assert solver.prove(phi)


class TestQuantifiers:
    def test_exists_simple(self, solver):
        x, y = Sym("x"), Sym("y")
        assert solver.prove(S.forall([y], S.exists([x], S.gt(V(x), V(y)))))

    def test_forall_false(self, solver):
        x = Sym("x")
        assert not solver.prove(S.forall([x], S.gt(V(x), S.IntC(0))))

    def test_forall_exists_div(self, solver):
        x, y = Sym("x"), Sym("y")
        # every y is within 1 of an even number below it
        phi = S.forall(
            [y],
            S.exists(
                [x],
                S.conj(
                    S.le(S.scale(2, V(x)), V(y)),
                    S.lt(V(y), S.add(S.scale(2, V(x)), S.IntC(2))),
                ),
            ),
        )
        assert solver.prove(phi)

    def test_forall_exists_parity_false(self, solver):
        x, y = Sym("x"), Sym("y")
        assert not solver.prove(
            S.forall([y], S.exists([x], S.eq(V(y), S.scale(2, V(x)))))
        )

    def test_shared_binder_existentials_not_conflated(self, solver):
        # two existentials over the same Sym are independent: both hold at
        # x == 0, y == 1 although no single k satisfies both bodies
        k, x, y = Sym("k"), Sym("x"), Sym("y")
        both = S.conj(
            S.exists([k], S.conj(S.eq(V(k), S.IntC(0)), S.eq(V(x), V(k)))),
            S.exists([k], S.conj(S.eq(V(k), S.IntC(1)), S.eq(V(y), V(k)))),
        )
        facts = S.conj(S.eq(V(x), S.IntC(0)), S.eq(V(y), S.IntC(1)))
        assert solver.satisfiable(S.conj(facts, both))
        assert not solver.prove(S.implies(facts, S.negate(both)))

    def test_residue_coverage(self, solver):
        # forall p exists i, j in [0,16): p = 16i + j
        p, i, j = Sym("p"), Sym("i"), Sym("j")
        phi = S.forall(
            [p],
            S.exists(
                [i, j],
                S.conj(
                    S.ge(V(j), S.IntC(0)),
                    S.lt(V(j), S.IntC(16)),
                    S.eq(V(p), S.add(S.scale(16, V(i)), V(j))),
                ),
            ),
        )
        assert solver.prove(phi)

    def test_residue_gap_detected(self, solver):
        p, i, j = Sym("p"), Sym("i"), Sym("j")
        phi = S.forall(
            [p],
            S.exists(
                [i, j],
                S.conj(
                    S.ge(V(j), S.IntC(0)),
                    S.lt(V(j), S.IntC(15)),  # one residue missing
                    S.eq(V(p), S.add(S.scale(16, V(i)), V(j))),
                ),
            ),
        )
        assert not solver.prove(phi)

    def test_nested_alternation(self, solver):
        # forall x exists y: x <= 4y < x + 4
        x, y = Sym("x"), Sym("y")
        phi = S.forall(
            [x],
            S.exists(
                [y],
                S.conj(
                    S.le(V(x), S.scale(4, V(y))),
                    S.lt(S.scale(4, V(y)), S.add(V(x), S.IntC(4))),
                ),
            ),
        )
        assert solver.prove(phi)

    def test_bounded_forall_under_exists(self, solver):
        # exists n >= 1 such that forall i in [0, n): i < n  (trivially sat)
        n, i = Sym("n"), Sym("i")
        phi = S.exists(
            [n],
            S.conj(
                S.ge(V(n), S.IntC(1)),
                S.forall(
                    [i],
                    S.implies(
                        S.conj(S.ge(V(i), S.IntC(0)), S.lt(V(i), V(n))),
                        S.lt(V(i), V(n)),
                    ),
                ),
            ),
        )
        assert solver.satisfiable(phi)


class TestSchedulingShapedQueries:
    """Queries shaped like the effect analysis generates."""

    def test_tile_disjointness(self, solver):
        io, ii, jo, ji = (Sym(n) for n in ("io", "ii", "jo", "ji"))
        bounds = S.conj(
            S.ge(V(ii), S.IntC(0)), S.lt(V(ii), S.IntC(16)),
            S.ge(V(ji), S.IntC(0)), S.lt(V(ji), S.IntC(16)),
        )
        phi = S.forall(
            [io, ii, jo, ji],
            S.implies(
                S.conj(bounds, S.lt(V(io), V(jo))),
                S.negate(
                    S.eq(
                        S.add(S.scale(16, V(io)), V(ii)),
                        S.add(S.scale(16, V(jo)), V(ji)),
                    )
                ),
            ),
        )
        assert solver.prove(phi)

    def test_guarded_split_coverage(self, solver):
        # guarded split covers [0, N): forall p in [0,N) exists io,ii
        N, p, io, ii = Sym("N"), Sym("p"), Sym("io"), Sym("ii")
        phi = S.forall(
            [N, p],
            S.implies(
                S.conj(S.ge(V(p), S.IntC(0)), S.lt(V(p), V(N))),
                S.exists(
                    [io, ii],
                    S.conj(
                        S.ge(V(ii), S.IntC(0)),
                        S.lt(V(ii), S.IntC(4)),
                        S.eq(V(p), S.add(S.scale(4, V(io)), V(ii))),
                        S.lt(S.add(S.scale(4, V(io)), V(ii)), V(N)),
                    ),
                ),
            ),
        )
        assert solver.prove(phi)

    def test_trip_count_positive(self, solver):
        # K >= 1 and 16 | K implies K/16 >= 1
        K = Sym("K")
        phi = S.implies(
            S.conj(
                S.ge(V(K), S.IntC(1)),
                S.eq(S.mod(V(K), 16), S.IntC(0)),
            ),
            S.ge(S.floordiv(V(K), 16), S.IntC(1)),
        )
        assert solver.prove(phi)

    def test_shadow_full_coverage(self, solver):
        # forall p in [0, N): written by some i in [0, N) with p == i
        N, p, i = Sym("N"), Sym("p"), Sym("i")
        inside = S.conj(S.ge(V(p), S.IntC(0)), S.lt(V(p), V(N)))
        written = S.exists(
            [i],
            S.conj(S.ge(V(i), S.IntC(0)), S.lt(V(i), V(N)), S.eq(V(p), V(i))),
        )
        assert solver.prove(S.forall([N, p], S.implies(inside, written)))


class TestIteElimination:
    def test_ite_in_atom(self, solver):
        x = Sym("x")
        c = S.gt(V(x), S.IntC(0))
        t = S.ite(c, S.IntC(1), S.IntC(-1))
        # sign(x) * x >= 0 ... for x != 0: ite(x>0,1,-1)*... simplified form:
        phi = S.disj(
            S.conj(c, S.eq(t, S.IntC(1))),
            S.conj(S.negate(c), S.eq(t, S.IntC(-1))),
        )
        assert solver.prove(phi)

    def test_elim_ite_structure(self):
        x = Sym("x")
        c = S.gt(V(x), S.IntC(0))
        atom = S.eq(S.ite(c, S.IntC(1), S.IntC(2)), S.IntC(1))
        out = elim_ite(atom)
        assert isinstance(out, (S.Or, S.And, S.Cmp, S.BoolC))
        assert not _contains_ite(out)


def _contains_ite(t):
    if isinstance(t, S.Ite):
        return True
    return any(_contains_ite(c) for c in S.children(t))


class TestInternals:
    def test_nnf_pushes_negation(self):
        x = Sym("x")
        a = S.lt(V(x), S.IntC(1))
        b = S.gt(V(x), S.IntC(5))
        out = nnf(S.negate(S.conj(a, b)))
        assert isinstance(out, S.Or)

    def test_nnf_neq_splits(self):
        x = Sym("x")
        out = nnf(S.negate(S.eq(V(x), S.IntC(0))))
        assert isinstance(out, S.Or) and len(out.args) == 2

    def test_dnf_stream_counts(self):
        x = Sym("x")
        lits = [S.eq(V(x), S.IntC(i)) for i in range(4)]
        t = S.conj(S.disj(lits[0], lits[1]), S.disj(lits[2], lits[3]))
        assert len(list(dnf_stream(t))) == 4

    def test_dnf_stream_prune(self):
        x = Sym("x")
        lits = [S.eq(V(x), S.IntC(i)) for i in range(4)]
        t = S.conj(S.disj(lits[0], lits[1]), S.disj(lits[2], lits[3]))
        seen = list(dnf_stream(t, prune=lambda ls: False))
        assert seen == []

    def test_prove_cache(self, solver):
        x = Sym("x")
        phi = S.gt(S.add(V(x), S.IntC(1)), V(x))
        solver.prove(phi)
        before = solver.stats["cache_hits"]
        solver.prove(phi)
        assert solver.stats["cache_hits"] == before + 1


# -- property-based: validity of random ground implications ------------------

_PVARS = [Sym("u"), Sym("v")]


@st.composite
def atoms(draw):
    coeffs = {s: draw(st.integers(-3, 3)) for s in _PVARS}
    const = draw(st.integers(-8, 8))
    op = draw(st.sampled_from(["<=", "<", "==", ">=", ">"]))
    lhs = S.add(*[S.scale(c, S.Var(s)) for s, c in coeffs.items()], S.IntC(const))
    return S.cmp(op, lhs, S.IntC(0))


@st.composite
def formulas(draw, depth=2):
    if depth == 0:
        return draw(atoms())
    kind = draw(st.sampled_from(["atom", "and", "or", "not"]))
    if kind == "atom":
        return draw(atoms())
    if kind == "not":
        return S.negate(draw(formulas(depth=depth - 1)))
    a = draw(formulas(depth=depth - 1))
    b = draw(formulas(depth=depth - 1))
    return S.conj(a, b) if kind == "and" else S.disj(a, b)


def _eval_formula(t, env):
    if isinstance(t, S.BoolC):
        return t.val
    if isinstance(t, S.Cmp):
        l = _eval_t(t.lhs, env)
        r = _eval_t(t.rhs, env)
        return {
            "==": l == r, "<=": l <= r, "<": l < r, ">=": l >= r, ">": l > r
        }[t.op]
    if isinstance(t, S.Not):
        return not _eval_formula(t.arg, env)
    if isinstance(t, S.And):
        return all(_eval_formula(a, env) for a in t.args)
    if isinstance(t, S.Or):
        return any(_eval_formula(a, env) for a in t.args)
    raise AssertionError(t)


def _eval_t(t, env):
    if isinstance(t, S.Var):
        return env[t.sym]
    if isinstance(t, S.IntC):
        return t.val
    if isinstance(t, S.Add):
        return sum(_eval_t(a, env) for a in t.args)
    if isinstance(t, S.Scale):
        return t.coeff * _eval_t(t.arg, env)
    raise AssertionError(t)


@settings(max_examples=50, deadline=None)
@given(phi=formulas())
def test_satisfiable_never_contradicts_witness(phi):
    """If brute force finds a witness in a small box, the solver must say
    satisfiable (completeness on the box); if the solver says unsat, no
    witness may exist in the box (soundness)."""
    solver = Solver()
    sat = solver.satisfiable(phi)
    witness = any(
        _eval_formula(phi, dict(zip(_PVARS, vals)))
        for vals in itertools.product(range(-10, 11), repeat=2)
    )
    if witness:
        assert sat
    if not sat:
        assert not witness
