"""The interval/affine fast path (capped Fourier-Motzkin + box domain)."""

from __future__ import annotations

import contextlib
import importlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SchedulingError, obs
from repro.analysis import absint
from repro.analysis.absint import Box, Facts, Linearizer, refute, try_prove
from repro.core.prelude import Sym
from repro.obs.smtstats import STATS
from repro.smt import omega
from repro.smt import terms as S


def _v(name):
    return S.Var(Sym(name))


class TestLinearizer:
    def test_affine_atom(self):
        lz = Linearizer()
        x = _v("x")
        cons = lz.atom_cons(S.lt(S.scale(3, x), S.IntC(7)))
        # 3x < 7  ->  -3x + 6 >= 0
        assert len(cons) == 1
        c, m = cons[0]
        assert c == 6 and list(m.values()) == [-3]

    def test_shared_quotient_variable(self):
        # both occurrences of n/16 must purify to the SAME pseudo-variable
        lz = Linearizer()
        n = _v("n")
        _c1, m1 = lz.lin(S.floordiv(n, 16))
        _c2, m2 = lz.lin(S.floordiv(n, 16))
        assert m1 == m2
        # two defining constraints for one quotient, not four
        assert len(lz.cons) == 2

    def test_distinct_quotients_stay_distinct(self):
        lz = Linearizer()
        n, m = _v("n"), _v("m")
        _c1, q1 = lz.lin(S.floordiv(n, 16))
        _c2, q2 = lz.lin(S.floordiv(m, 16))
        assert q1 != q2

    def test_mod_shares_quotient(self):
        # n % 16 rewrites to n - 16*(n/16) reusing the n/16 quotient
        lz = Linearizer()
        n = _v("n")
        _c, mq = lz.lin(S.floordiv(n, 16))
        (qsym,) = mq.keys()
        _c2, mm = lz.lin(S.Mod(n, 16))
        assert mm.get(qsym) == -16

    def test_non_affine_raises(self):
        lz = Linearizer()
        with pytest.raises(absint.NonAffine):
            lz.lin(S.add(_v("x"), S.Var(Sym("b"), S.BOOL)))


class TestRefute:
    def test_ground_contradiction(self):
        assert refute([(-1, {})])

    def test_simple_bounds(self):
        x = Sym("x")
        # x >= 5 and x <= 3
        assert refute([(-5, {x: 1}), (3, {x: -1})])
        # x >= 3 and x <= 5: feasible
        assert not refute([(-3, {x: 1}), (5, {x: -1})])

    def test_gcd_tightening(self):
        x = Sym("x")
        # 2x >= 1 and 2x <= 1 has the rational solution x = 1/2 but no
        # integer one; gcd tightening must catch it
        assert refute([(-1, {x: 2}), (1, {x: -2})])

    def test_var_cap_bails(self):
        syms = [Sym(f"v{i}") for i in range(absint.MAX_VARS + 1)]
        cons = [(0, {s: 1}) for s in syms]
        assert not refute(cons)

    def test_elimination_tie_goes_to_lowest_sym_id(self):
        # a and b each make one pos*neg pairing, c two: a (the older Sym)
        # wins however the candidates are ordered
        a, b, c = Sym("a"), Sym("b"), Sym("c")
        rows = [(0, {b: 1}), (0, {b: -1}), (0, {a: 1}), (0, {a: -1}),
                (0, {c: 1}), (1, {c: 1}), (0, {c: -1})]
        for order in ([a, b, c], [c, b, a], [b, c, a]):
            assert absint._elimination_var(rows, order) == (a, 1)
        assert absint._elimination_var(rows, [c, b]) == (b, 1)


# -- property-based: the fast path against brute force and the Omega test ----

_P = [Sym("p"), Sym("q"), Sym("r")]
_BOX = 5


@st.composite
def bounded_rows(draw):
    """A few random rows over three variables, some paired with their
    negation (an equality, for the substitution step), inside the box
    ``[-_BOX, _BOX]^3`` so that brute force is conclusive."""
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        m = {v: draw(st.integers(-4, 4)) for v in _P}
        c = draw(st.integers(-12, 12))
        rows.append((c, m))
        if draw(st.booleans()):
            rows.append((-c, {v: -a for v, a in m.items()}))
    for v in _P:
        rows += [(_BOX, {v: 1}), (_BOX, {v: -1})]
    return draw(st.permutations(rows))


def _has_point(rows):
    return any(
        all(c + sum(a * pt[v] for v, a in m.items()) >= 0 for c, m in rows)
        for pt in (
            dict(zip(_P, vals))
            for vals in itertools.product(range(-_BOX, _BOX + 1), repeat=3)
        )
    )


@settings(max_examples=80, deadline=None)
@given(rows=bounded_rows())
def test_refute_never_refutes_a_system_with_an_integer_point(rows):
    assert not (absint._refute(rows) and _has_point(rows))


@settings(max_examples=80, deadline=None)
@given(rows=bounded_rows())
def test_refute_implies_omega_infeasible(rows):
    if absint._refute(rows):
        assert not omega.feasible([(omega.GEQ, r, 0) for r in rows])


class TestTryProve:
    def test_fig4a_tiled_bound(self):
        # 16*io + ii < N  under  0 <= io < N/16, 0 <= ii < 16
        N, io, ii = _v("N"), _v("io"), _v("ii")
        facts = [
            S.ge(io, S.IntC(0)),
            S.lt(io, S.floordiv(N, 16)),
            S.ge(ii, S.IntC(0)),
            S.lt(ii, S.IntC(16)),
            S.ge(N, S.IntC(0)),
        ]
        goal = S.lt(S.add(S.scale(16, io), ii), N)
        assert try_prove(Facts.of(facts), goal)
        assert try_prove(
            Facts.of(facts), S.ge(S.add(S.scale(16, io), ii), S.IntC(0))
        )

    def test_divisibility_connects(self):
        # N % 16 == 0 and i < N/16  implies  16*i + 15 < N
        N, i = _v("N"), _v("i")
        facts = [
            S.eq(S.Mod(N, 16), S.IntC(0)),
            S.ge(i, S.IntC(0)),
            S.lt(i, S.floordiv(N, 16)),
        ]
        goal = S.lt(S.add(S.scale(16, i), S.IntC(15)), N)
        assert try_prove(Facts.of(facts), goal)

    def test_never_disproves(self):
        # an actually-false goal must come back "unknown", not "disproved"
        N = _v("N")
        assert not try_prove(
            Facts.of([S.ge(N, S.IntC(0))]), S.lt(N, S.IntC(0))
        )
        # and an unprovable-but-satisfiable one too
        assert not try_prove(Facts.of([]), S.ge(N, S.IntC(0)))

    def test_conjunction_goal(self):
        x = _v("x")
        facts = [S.ge(x, S.IntC(2)), S.lt(x, S.IntC(5))]
        goal = S.conj(S.ge(x, S.IntC(0)), S.le(x, S.IntC(10)))
        assert try_prove(Facts.of(facts), goal)

    def test_equality_goal(self):
        x, y = _v("x"), _v("y")
        facts = [S.le(x, y), S.ge(x, y)]
        assert try_prove(Facts.of(facts), S.cmp("==", x, y))

    def test_negated_exists_goal(self):
        # not exists p: (p == 3 and p >= 5)  -- the Shadows-style query shape
        p = Sym("p")
        pv = S.Var(p)
        goal = S.negate(
            S.exists([p], S.conj(S.cmp("==", pv, S.IntC(3)), S.ge(pv, S.IntC(5))))
        )
        assert try_prove(Facts.of([]), goal)

    def test_shared_binder_existentials_not_conflated(self):
        # x == 0 and y == 1 make both existentials true, so their negated
        # conjunction is false; with the shared binder k read as one
        # variable the conjunction would look infeasible (k == 0 == 1)
        k = Sym("k")
        x, y, kv = _v("x"), _v("y"), S.Var(k)
        facts = [S.eq(x, S.IntC(0)), S.eq(y, S.IntC(1))]
        goal = S.negate(
            S.conj(
                S.exists([k], S.conj(S.eq(kv, S.IntC(0)), S.eq(x, kv))),
                S.exists([k], S.conj(S.eq(kv, S.IntC(1)), S.eq(y, kv))),
            )
        )
        assert not try_prove(Facts.of(facts), goal)

    def test_false_context_proves_anything(self):
        x = _v("x")
        facts = [S.lt(x, S.IntC(0)), S.ge(x, S.IntC(0))]
        assert try_prove(Facts.of(facts), S.cmp("==", x, S.IntC(99)))

    def test_non_affine_fact_is_dropped_not_fatal(self):
        x = _v("x")
        b = S.Var(Sym("b"), S.BOOL)
        facts = [S.Cmp("<", S.add(x, b), S.IntC(0)), S.ge(x, S.IntC(1))]
        assert try_prove(Facts.of(facts), S.ge(x, S.IntC(0)))

    def test_unrelated_false_context_still_proves(self):
        # the contradiction shares no variable with the goal: the goal's
        # cone of influence cannot refute it, the full system must
        x, y = _v("x"), _v("y")
        facts = [S.lt(x, S.IntC(0)), S.ge(x, S.IntC(0))]
        assert try_prove(Facts.of(facts), S.ge(y, S.IntC(7)))


class TestEqualityElimination:
    """The Omega test's equality step: a unit equality ``e == 0`` (rows
    ``e >= 0`` and ``-e >= 0``) substitutes one variable out of the
    system when Fourier-Motzkin alone cannot refute it."""

    def test_divisor_divisibility_is_proved_without_the_solver(self):
        N = _v("N")
        fact = S.eq(S.Mod(N, 16), S.IntC(0))
        goal = S.eq(S.Mod(N, 8), S.IntC(0))
        assert try_prove(Facts.of([fact]), goal)
        before = STATS.prove_calls
        assert absint.prove(Facts.of([fact]), goal, "rewrite")
        assert STATS.prove_calls == before

    def test_multiple_divisibility_stays_unknown(self):
        # N = 8 is a counterexample: the fast path must not claim it
        N = _v("N")
        facts = Facts.of([S.eq(S.Mod(N, 8), S.IntC(0))])
        assert not try_prove(facts, S.eq(S.Mod(N, 16), S.IntC(0)))

    def test_point_equality_existential(self):
        """The shape of a conv lint race goal: two iterations ``b < b2`` of
        a batch loop cannot touch the same point ``p`` when the point's
        first index is the batch iteration.  Without the substitution
        (``p0 = b``, ``p1 = oy``, ...) the opened existentials leave more
        variables than Fourier-Motzkin may take."""
        B, OY, OX, OC = _v("B"), _v("OY"), _v("OX"), _v("OC")
        b1, b2 = _v("b"), _v("b")
        p = [_v(f"p{k}") for k in range(4)]

        def access(b):
            its = [_v(n) for n in ("oy", "oxo", "oco", "xt", "ct", "i", "j")]
            oy, oxo, oco, xt, ct, i, j = its
            body = S.conj(
                S.eq(p[0], b), S.eq(p[1], oy),
                S.eq(p[2], S.add(S.scale(32, oxo), S.scale(16, xt), i)),
                S.eq(p[3], S.add(S.scale(32, oco), S.scale(16, ct), j)),
            )
            his = (OY, S.floordiv(OX, 32), S.floordiv(OC, 32),
                   S.IntC(2), S.IntC(2), S.IntC(16), S.IntC(16))
            for it, hi in reversed(list(zip(its, his))):
                body = S.Exists(
                    (it.sym,), S.conj(S.le(S.IntC(0), it), S.lt(it, hi), body)
                )
            return body

        facts = Facts.of([
            S.ge(B, S.IntC(1)), S.ge(OX, S.IntC(1)), S.ge(OC, S.IntC(1)),
            S.eq(S.Mod(OX, 32), S.IntC(0)), S.eq(S.Mod(OC, 32), S.IntC(0)),
            S.le(S.IntC(0), b1), S.lt(b1, B), S.le(S.IntC(0), b2),
            S.lt(b2, B), S.lt(b1, b2),
        ])
        assert try_prove(facts, S.negate(S.conj(access(b1), access(b2))))

    def test_non_unit_equality_keeps_its_verdict(self):
        x, y = Sym("x"), Sym("y")
        # 2x == 3y and 1 <= x <= 2: no integer point, but no unit
        # coefficient to substitute, so it stays beyond the fast path
        rows = [(0, {x: 2, y: -3}), (0, {x: -2, y: 3}),
                (-1, {x: 1}), (2, {x: -1})]
        assert absint._unit_equality(absint._rows(rows)) is None
        assert not refute(rows)
        # with y <= 0 Fourier-Motzkin refutes it, as before
        assert refute(rows + [(0, {y: -1})])


def _sgemm_beam():
    """The depth-3, budget-40 action-space beam search over
    ``sgemm_tune_base()`` that ``scripts/tune_smoke.py`` runs."""
    from repro.apps.x86_sgemm import sgemm_tune_base
    from repro.autotune import Space, TuneConfig, search

    space = Space.action_space("sgemm_beam", sgemm_tune_base(), depth=3)
    return search(space, TuneConfig(seed=0, budget=40))


def _search_module():
    # ``repro.autotune.search`` is also the name of the exported function
    return importlib.import_module("repro.autotune.search")


def _compile_recipes():
    """The seven kernels of the compile benchmark, each derived afresh
    (``__wrapped__`` skips the cache of the outermost recipe)."""
    from repro.apps import gemmini_conv, x86_conv, x86_sgemm
    from repro.apps import gemmini_matmul as gm

    return [
        gm.matmul_exo.__wrapped__, gm.matmul_oldlib.__wrapped__,
        lambda: gm.matmul_exo_blocked.__wrapped__(4, 4),
        gemmini_conv.conv_exo.__wrapped__, gemmini_conv.conv_oldlib.__wrapped__,
        x86_sgemm.sgemm_exo.__wrapped__, x86_conv.conv_exo.__wrapped__,
    ]


class TestVerdictStore:
    """The canonical store of :func:`absint.refute` verdicts, open for one
    search or one outermost recipe call."""

    @staticmethod
    def _system(a, b, c):
        # a >= 1, b >= a + 1, c >= b + 1, c <= 2: infeasible
        return [(-1, {a: 1}), (-1, {b: 1, a: -1}), (-1, {c: 1, b: -1}),
                (2, {c: -1})]

    def test_key_survives_order_preserving_renaming(self):
        a, b, c = Sym("a"), Sym("b"), Sym("c")
        x, y, z = Sym("x"), Sym("y"), Sym("z")
        assert absint._rank_key(self._system(a, b, c)) == absint._rank_key(
            self._system(x, y, z)
        )

    def test_key_tells_swapped_id_order_apart(self):
        a, b, c = Sym("a"), Sym("b"), Sym("c")
        assert absint._rank_key(self._system(a, b, c)) != absint._rank_key(
            self._system(b, a, c)
        )

    def test_renamed_system_is_a_store_hit(self):
        obs.reset()
        obs.enable()
        try:
            with absint.verdict_store() as store:
                assert refute(self._system(Sym("a"), Sym("b"), Sym("c")))
                assert refute(self._system(Sym("a"), Sym("b"), Sym("c")))
                assert len(store) == 1
            counters = obs.profile_dict()["counters"]
            assert counters["analysis.absint.store.miss"] == 1
            assert counters["analysis.absint.store.hit"] == 1
        finally:
            obs.disable()
            obs.reset()

    def test_nested_open_reuses_the_outer_store(self):
        with absint.verdict_store() as outer:
            with absint.verdict_store() as inner:
                assert inner is outer
            assert absint._store is outer
        assert absint._store is None

    @pytest.fixture
    def checked_refutes(self, monkeypatch):
        """Each ``refute`` call from now on, as (made inside a store, its
        verdict equals the uncached ``_refute``'s)."""
        seen = []
        inner = absint.refute

        def checked(cons):
            ok = inner(cons)
            seen.append((absint._store is not None, ok == absint._refute(cons)))
            return ok

        monkeypatch.setattr(absint, "refute", checked)
        return seen

    def test_search_verdicts_equal_uncached_refute(self, checked_refutes):
        _sgemm_beam()
        assert sum(s for s, _same in checked_refutes) > 100
        assert all(same for _s, same in checked_refutes)

    def test_recipe_verdicts_equal_uncached_refute(self, checked_refutes):
        in_store = []
        for build in _compile_recipes():
            start = len(checked_refutes)
            build()
            assert absint._store is None
            in_store.append(sum(s for s, _same in checked_refutes[start:]))
        assert all(in_store) and sum(in_store) > 100
        assert all(same for _s, same in checked_refutes)

    def test_store_is_dropped_when_recipe_raises(self):
        from repro.apps.x86_sgemm import build_sgemm_candidate, sgemm_tune_base

        with pytest.raises(SchedulingError):
            build_sgemm_candidate(sgemm_tune_base(), 5, 1, True)
        assert absint._store is None

    def test_recipe_inside_an_open_store_uses_it(self, monkeypatch):
        from repro.apps import x86_conv

        stores = []
        inner = absint.refute

        def recorded(cons):
            stores.append(absint._store)
            return inner(cons)

        monkeypatch.setattr(absint, "refute", recorded)
        with absint.verdict_store() as outer:
            x86_conv.conv_exo.__wrapped__()
            assert absint._store is outer
        assert stores and all(s is outer for s in stores)
        assert absint._store is None

    def test_each_recipe_call_starts_from_an_empty_store(self, monkeypatch):
        from repro.apps import x86_conv

        stores = []
        algorithm, schedule = x86_conv._conv_algorithm, x86_conv._schedule

        def recorded_algorithm(*args):
            stores.append((absint._store, len(absint._store)))
            return algorithm(*args)

        def recorded_schedule(*args):
            out = schedule(*args)
            stores.append((absint._store, len(absint._store)))
            return out

        monkeypatch.setattr(x86_conv, "_conv_algorithm", recorded_algorithm)
        monkeypatch.setattr(x86_conv, "_schedule", recorded_schedule)
        for _ in range(2):
            x86_conv.conv_exo.cache_clear()
            x86_conv.conv_exo()
            assert absint._store is None
        (a, a0), (a1, an), (b, b0), (b1, bn) = stores
        assert a is a1 and b is b1 and a is not b
        assert a0 == b0 == 0 and an == bn > 0

    def test_search_outcome_equals_search_without_store(self, monkeypatch):
        from repro.obs import journal

        def outcome(res):
            cands = [
                (c.describe(), c.ok, c.error, c.cost and c.cost.cycles,
                 [journal.record_to_dict(r)["verdict"]
                  for r in c.proc.schedule_log()] if c.ok else None)
                for c in res.candidates
            ]
            return cands, res.best.proc.c_code()

        stored = outcome(_sgemm_beam())
        monkeypatch.setattr(_search_module(), "verdict_store",
                            contextlib.nullcontext)
        assert outcome(_sgemm_beam()) == stored

    def test_each_search_starts_from_an_empty_store(self, monkeypatch):
        mod = _search_module()
        sizes = []
        inner = mod._search_beam

        def recorded(space, config, rng):
            sizes.append(len(absint._store))
            out = inner(space, config, rng)
            sizes.append(len(absint._store))
            return out

        monkeypatch.setattr(mod, "_search_beam", recorded)
        _sgemm_beam()
        assert absint._store is None
        _sgemm_beam()
        assert absint._store is None
        assert sizes[0] == sizes[2] == 0
        assert sizes[1] > 0 and sizes[3] > 0

    def test_store_is_dropped_when_search_raises(self, monkeypatch):
        def boom(space, config, rng):
            assert absint._store is not None
            raise RuntimeError("search failed")

        monkeypatch.setattr(_search_module(), "_search_beam", boom)
        with pytest.raises(RuntimeError):
            _sgemm_beam()
        assert absint._store is None

    def test_report_renders_store_counters(self):
        from repro.obs import report

        counters = {"analysis.absint.tried": 4,
                    "analysis.absint.discharged": 4,
                    "analysis.absint.store.hit": 3,
                    "analysis.absint.store.miss": 1}
        assert set(report.absint_fastpath(counters)) == {"total"}
        assert report.absint_store(counters) == {"hit": 3, "miss": 1}


class TestCone:
    def test_keeps_only_rows_linked_to_the_goal(self):
        # i is linked to the goal directly, n through the row i < n; the
        # unrelated loop j < m stays out, a variable-free row stays in
        i, n, j, m = (Sym(s) for s in "injm")
        i_lo, i_hi = (0, {i: 1}), (-1, {n: 1, i: -1})
        j_lo, j_hi = (0, {j: 1}), (-1, {m: 1, j: -1})
        ground = (5, {})
        goal = [(-1, {n: -1})]  # not (n >= 1)
        cone = absint._cone([j_lo, i_hi, ground, j_hi, i_lo], goal)
        assert cone == [i_hi, ground, i_lo]  # in their context positions
        assert absint._refute_goal([j_lo, i_hi, ground, j_hi, i_lo], goal)


class TestProveWrapper:
    def test_discharged_goal_skips_solver(self):
        x = _v("x")
        before = STATS.prove_calls
        facts = Facts.of([S.ge(x, S.IntC(0))])
        assert absint.prove(facts, S.ge(x, S.IntC(-1)), "bounds")
        assert STATS.prove_calls == before

    def test_fellthrough_goal_reaches_solver(self):
        x = _v("x")
        b = S.Var(Sym("b"), S.BOOL)
        # a boolean literal: the fast path leaves the goal to the solver
        goal = S.disj(S.ge(x, S.IntC(0)), b, S.negate(b))
        before = STATS.prove_calls
        assert absint.prove(Facts.of([]), goal, "bounds")
        assert STATS.prove_calls == before + 1

    def test_counters_flow(self):
        obs.reset()
        obs.enable()
        try:
            x = _v("x")
            absint.prove(Facts.of([S.ge(x, S.IntC(0))]), S.ge(x, S.IntC(-1)),
                         category="bounds")
            counters = obs.profile_dict()["counters"]
            assert counters["analysis.absint.tried"] == 1
            assert counters["analysis.absint.discharged"] == 1
            assert counters["analysis.absint.bounds.tried"] == 1
            assert counters["analysis.absint.bounds.discharged"] == 1
        finally:
            obs.disable()
            obs.reset()


class TestCaseSplit:
    """Disjunctive goals: the negated goal is expanded into conjunctive
    branches, each refuted against the facts."""

    def test_false_disjunctive_goal_not_proved(self):
        x = _v("x")
        facts = Facts.of([S.ge(x, S.IntC(0)), S.lt(x, S.IntC(10))])
        assert try_prove(facts, S.disj(S.lt(x, S.IntC(5)),
                                       S.ge(x, S.IntC(5))))
        assert not try_prove(facts, S.disj(S.lt(x, S.IntC(3)),
                                           S.gt(x, S.IntC(5))))

    def test_false_containment_goal_not_proved(self):
        # the containment shape: a point accessed by k in [0, 8) lies in
        # the box [0, 8), but not in the box [0, 4)
        p, k = _v("p"), Sym("k")
        kv = S.Var(k)
        accessed = S.exists([k], S.conj(S.le(S.IntC(0), kv),
                                        S.lt(kv, S.IntC(8)), S.eq(p, kv)))

        def inside(hi):
            return S.conj(S.ge(p, S.IntC(0)), S.lt(p, S.IntC(hi)))

        facts = Facts.of([])
        assert try_prove(facts, S.implies(accessed, inside(8)))
        assert not try_prove(facts, S.implies(accessed, inside(4)))

    def _cells(self, n):
        """``n`` variables each in [0, 10] and the goal that one of them
        is: its negation has ``2**n`` branches."""
        xs = [_v(f"x{k}") for k in range(n)]
        facts = Facts.of(
            [f for x in xs for f in (S.ge(x, S.IntC(0)), S.le(x, S.IntC(10)))]
        )
        goal = S.disj(
            *[S.conj(S.ge(x, S.IntC(0)), S.le(x, S.IntC(10))) for x in xs]
        )
        return facts, goal

    def test_branch_cap(self):
        assert 2**4 <= absint.MAX_BRANCHES < 2**5
        facts, goal = self._cells(4)
        assert len(absint._branches(goal)) == 16
        assert try_prove(facts, goal)
        facts, goal = self._cells(5)
        assert absint._branches(goal) is None
        assert not try_prove(facts, goal)
        from repro.smt.solver import Solver

        assert Solver().prove(S.implies(S.conj(*facts), goal))

    def test_universal_under_positive_polarity_is_unknown(self):
        # exists p. p == x is valid, but its negation is a universal
        x, p = _v("x"), Sym("p")
        goal = S.exists([p], S.eq(S.Var(p), x))
        assert absint._branches(goal) is None
        assert not try_prove(Facts.of([]), goal)
        # the same under a double negation
        assert not try_prove(Facts.of([]), S.Not(S.Not(goal)))

    def test_split_tail_race_goal(self):
        """Parallelizing the outer loop of a split with a tail loop poses a
        race goal over two disjunctive location sets: decided by the case
        split, without the solver."""
        from repro.analysis import parallel

        q = _proc(_TAIL_SRC).split("for j in _: _", 4, "jo", "ji", tail="cut")
        before = STATS.prove_calls
        goals = _recorded_goals(parallel, lambda: q.parallelize(
            "for i in _: _"))
        assert STATS.prove_calls == before
        (facts, goal), = goals
        assert isinstance(goal, S.Not) and len(absint._branches(goal)) == 4
        assert try_prove(Facts.of(facts), goal)

    def test_stage_mem_containment_goal(self):
        """stage_mem's containment goal ``not exists... or box``."""
        from repro.effects import api as effects_api

        p = _proc(_GEMM_SRC).split("for i in _: _", 4, "io", "ii",
                                    tail="perfect")
        goals = _recorded_goals(effects_api, lambda: p.stage_mem(
            "for k in _: _", "C[4*io + ii, j]", "acc"))
        ors = [(f, g) for f, g in goals if isinstance(g, S.Or)]
        assert len(ors) == 1
        facts, goal = ors[0]
        assert isinstance(goal.args[0], S.Not)
        assert isinstance(goal.args[0].arg, S.Exists)
        assert try_prove(Facts.of(facts), goal)

    def test_repeated_goal_in_one_scope_is_refuted_once(self, monkeypatch):
        import dataclasses

        from repro.core.checks import check_proc

        p = _proc("""
@proc
def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] = x[i] + x[i]
""")
        asked, decided = [], []
        inner_try, inner_decide = absint.try_prove, absint._decide

        def recorded_try(facts, goal):
            asked.append((id(facts), goal))
            return inner_try(facts, goal)

        def recorded_decide(facts, goal):
            decided.append((id(facts), goal))
            return inner_decide(facts, goal)

        monkeypatch.setattr(absint, "try_prove", recorded_try)
        monkeypatch.setattr(absint, "_decide", recorded_decide)
        check_proc(dataclasses.replace(p.ir()))
        # x[i] twice and y[i]: one bounds goal, 0 <= i < n, asked three
        # times in the loop body's scope and decided once
        assert len(asked) == 3 and len(set(asked)) == 1
        assert decided == asked[:1]


_TAIL_SRC = """
@proc
def f(n: size, x: f32[n, n] @ DRAM):
    for i in seq(0, n):
        for j in seq(0, n):
            x[i, j] = 1.0
"""

_GEMM_SRC = """
@proc
def gemm(M: size, N: size, K: size,
         A: f32[M, K] @ DRAM, B: f32[K, N] @ DRAM, C: f32[M, N] @ DRAM):
    assert M % 4 == 0
    for i in seq(0, M):
        for j in seq(0, N):
            for k in seq(0, K):
                C[i, j] += A[i, k] * B[k, j]
"""


def _proc(body):
    from repro.api import procs_from_source

    src = ("from __future__ import annotations\n"
           "from repro import proc, DRAM, f32, size\n") + body
    return list(procs_from_source(src).values())[-1]


def _recorded_goals(module, derive):
    """``(facts terms, goal)`` of every goal ``module`` routes through
    ``absint.prove`` while ``derive()`` runs."""
    seen = []
    inner = module.prove

    def recorded(facts, goal, category):
        seen.append((facts.terms, goal))
        return inner(facts, goal, category)

    module.prove = recorded
    try:
        derive()
    finally:
        module.prove = inner
    return seen


class TestDeterministicAnswers:
    def test_beam_search_answers_repeat_in_one_process(self):
        """A depth-4 Gemmini matmul beam search run three times in one
        process poses the same goals and gets the same fast-path answers:
        nothing in the fast path depends on object addresses."""
        from repro import autotune as at
        from repro.apps import gemmini_matmul as gm

        runs = []
        inner = absint.try_prove
        for _ in range(3):
            answers = []

            def recorded(facts, goal):
                ok = inner(facts, goal)
                answers.append(ok)
                return ok

            absint.try_prove = recorded
            try:
                space = at.Space.action_space("matmul_beam", gm.matmul_base,
                                              depth=4)
                at.search(space, at.TuneConfig(
                    seed=0, budget=200, model=at.GEMMINI_MODEL,
                    sizes={"N": 512, "M": 512, "K": 512},
                ))
            finally:
                absint.try_prove = inner
            runs.append(answers)
        assert len(runs[0]) > 1000
        assert runs[0] == runs[1] == runs[2]


_ROUTED_SRC = """
from __future__ import annotations
from repro import proc, DRAM, f32, size

@proc
def need3(k: size, x: f32 @ DRAM):
    assert CfgSound.a == 3
    x = 0.0

@proc
def latch(n: size, y: f32[n] @ DRAM):
    for i in seq(0, n):
        CfgSound.a = 3
    need3(n, y[0])

@proc
def dead(y: f32[8] @ DRAM):
    t: f32 @ DRAM
    t = 1.0
    t = 2.0
    for i in seq(0, 8):
        y[i] = t
"""


class TestRoutedGoalsSound:
    """Bounds, assert, race, rewrite, stage_mem coverage, dataflow and
    sanitize goals reach the solver only through :func:`absint.prove`, so
    the fast path decides most of them: every goal it proves must also be
    valid to the solver."""

    def test_fastpath_proofs_agree_with_solver(self, monkeypatch):
        from repro.analysis import parallel, sanitize
        from repro.api import procs_from_source
        from repro.apps import gemmini_conv, gemmini_matmul, x86_conv, x86_sgemm
        from repro.core import checks, dataflow
        from repro.core import types as T
        from repro.core.configs import Config
        from repro.effects import api as effects_api
        from repro.scheduling import primitives
        from repro.smt.solver import Solver

        proven = []
        real_prove = absint.prove

        def recording_prove(assumptions, goal, category):
            if try_prove(assumptions, goal):
                proven.append((category, list(assumptions), goal))
            return real_prove(assumptions, goal, category)

        # every caller of absint.prove (sanitize calls it by module)
        for mod in (absint, checks, dataflow, effects_api, parallel,
                    primitives):
            monkeypatch.setattr(mod, "prove", recording_prove)

        # derive the seven compile-benchmark kernels from scratch
        apps = (gemmini_conv, gemmini_matmul, x86_conv, x86_sgemm)
        for mod in apps:
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
        gm = gemmini_matmul
        kernels = [
            gm.matmul_exo(), gm.matmul_oldlib(), gm.matmul_exo_blocked(4, 4),
            gemmini_conv.conv_exo(), gemmini_conv.conv_oldlib(),
            x86_sgemm.sgemm_exo(), x86_conv.conv_exo(),
        ]
        # plus a config write inside a loop (dataflow) and a dead store
        # (sanitize), which the kernels do not exercise
        cfg = Config("CfgSound", [("a", T.int_t)])
        extra = procs_from_source(_ROUTED_SRC, {"CfgSound": cfg})
        for p in kernels + list(extra.values()):
            sanitize(p)
        # and race goals over a split with a tail loop: the case split
        # decides them branch by branch
        tail = _proc(_TAIL_SRC).split("for j in _: _", 4, "jo", "ji",
                                      tail="cut")
        tail.parallelize("for i in _: _")

        categories = {c for c, _a, _g in proven}
        assert {"bounds", "assert", "parallel", "rewrite", "dataflow",
                "sanitize"} <= categories
        assert any(
            c == "parallel" and len(absint._branches(g)) > 1
            for c, _a, g in proven
        )
        solver = Solver()
        for category, assumptions, goal in proven:
            assert solver.prove(S.implies(S.conj(*assumptions), goal)), (
                category, S.term_to_str(goal)
            )


class TestBoxDomain:
    def _binders(self, *triples):
        return [(s, lo, hi) for s, lo, hi in triples]

    def test_dense_unit_stride(self):
        i = Sym("i")
        box = absint._dense_box(
            [S.Var(i)], [(i, S.IntC(0), S.IntC(16))], Facts.of([])
        )
        assert box == Box((S.IntC(0),), (S.IntC(16),))

    def test_tiled_two_binder_dim(self):
        # 16*io + ii over io in [0,4), ii in [0,16) covers [0,64) densely
        io, ii = Sym("io"), Sym("ii")
        box = absint._dense_box(
            [S.add(S.scale(16, S.Var(io)), S.Var(ii))],
            [(io, S.IntC(0), S.IntC(4)), (ii, S.IntC(0), S.IntC(16))],
            Facts.of([]),
        )
        assert box is not None
        assert box.lo == (S.IntC(0),)
        assert box.hi == (S.IntC(64),)

    def test_strided_write_not_dense(self):
        # 2*i over i in [0,8) writes only even points: no box
        i = Sym("i")
        box = absint._dense_box(
            [S.scale(2, S.Var(i))], [(i, S.IntC(0), S.IntC(8))], Facts.of([])
        )
        assert box is None

    def test_zero_trip_loop_covers_nothing(self):
        i, n = Sym("i"), Sym("n")
        # trip count not provably >= 1 under empty assumptions
        box = absint._dense_box(
            [S.Var(i)], [(i, S.IntC(0), S.Var(n))], Facts.of([])
        )
        assert box is None
        # with n >= 1 it is a box
        box = absint._dense_box(
            [S.Var(i)],
            [(i, S.IntC(0), S.Var(n))],
            Facts.of([S.ge(S.Var(n), S.IntC(1))]),
        )
        assert box is not None

    def test_diagonal_footprint_rejected(self):
        i = Sym("i")
        box = absint._dense_box(
            [S.Var(i), S.Var(i)], [(i, S.IntC(0), S.IntC(4))], Facts.of([])
        )
        assert box is None

    def test_box_covers(self):
        cover = Box((S.IntC(0),), (S.IntC(16),))
        inner = Box((S.IntC(2),), (S.IntC(10),))
        assert absint.box_covers(Facts.of([]), cover, inner)
        assert not absint.box_covers(Facts.of([]), inner, cover)
