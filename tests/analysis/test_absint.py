"""The interval/affine fast path (capped Fourier-Motzkin + box domain)."""

from __future__ import annotations

import pytest

from repro import obs
from repro.analysis import absint
from repro.analysis.absint import Box, Facts, Linearizer, refute, try_prove
from repro.core.prelude import Sym
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
            lz.lin(S.Ite(S.lt(_v("x"), _v("y")), _v("x"), _v("y")))


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
        x, y = _v("x"), _v("y")
        facts = [S.Cmp("<", S.Ite(S.TRUE, x, y), S.IntC(0)), S.ge(x, S.IntC(1))]
        assert try_prove(Facts.of(facts), S.ge(x, S.IntC(0)))

    def test_unrelated_false_context_still_proves(self):
        # the contradiction shares no variable with the goal: the goal's
        # cone of influence cannot refute it, the full system must
        x, y = _v("x"), _v("y")
        facts = [S.lt(x, S.IntC(0)), S.ge(x, S.IntC(0))]
        assert try_prove(Facts.of(facts), S.ge(y, S.IntC(7)))


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
        assert sorted(map(repr, cone)) == sorted(map(repr, [i_hi, ground, i_lo]))
        assert absint._refute_goal([j_lo, i_hi, ground, j_hi, i_lo], goal)


class TestProveWrapper:
    def test_discharged_goal_skips_solver(self):
        from repro.smt.solver import DEFAULT_SOLVER

        x = _v("x")
        before = DEFAULT_SOLVER.stats["prove_calls"]
        facts = Facts.of([S.ge(x, S.IntC(0))])
        assert absint.prove(facts, S.ge(x, S.IntC(-1)), "bounds")
        assert DEFAULT_SOLVER.stats["prove_calls"] == before

    def test_fellthrough_goal_reaches_solver(self):
        from repro.smt.solver import DEFAULT_SOLVER

        x = _v("x")
        # non-affine goal: the fast path cannot decide it
        goal = S.ge(S.Ite(S.ge(x, S.IntC(0)), x, S.neg(x)), S.IntC(0))
        before = DEFAULT_SOLVER.stats["prove_calls"]
        assert absint.prove(Facts.of([]), goal, "bounds")
        assert DEFAULT_SOLVER.stats["prove_calls"] == before + 1

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
        from repro.smt.solver import DEFAULT_SOLVER

        q = _proc(_TAIL_SRC).split("for j in _: _", 4, "jo", "ji", tail="cut")
        before = DEFAULT_SOLVER.stats["prove_calls"]
        goals = _recorded_goals(parallel, lambda: q.parallelize(
            "for i in _: _"))
        assert DEFAULT_SOLVER.stats["prove_calls"] == before
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
