"""The search-scoped derivation table (``repro.scheduling.memo``): a
directive memo and check reuse for alpha-equivalent revisions, both exact,
both open only inside ``autotune.search``."""

from __future__ import annotations

import dataclasses
import importlib

import pytest

from repro import obs
from repro.api import procs_from_source
from repro.autotune import GEMMINI_MODEL, TuneConfig, cost_of, search
from repro.core import ast as IR
from repro.core import checks
from repro.core.memory import StaticMemory
from repro.core.pprint import proc_key
from repro.core.prelude import BoundsCheckError, SchedulingError, Sym
from repro.obs.journal import FAILED_LOG
from repro.scheduling import memo
from repro.scheduling.eqv import alpha_equiv_procs

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, DRAM, f32, size\n"
)


def _procs(body: str) -> dict:
    return procs_from_source(HEADER + body)


SCALE = """
@proc
def scale(x: f32[16] @ DRAM):
    for i in seq(0, 16):
        t: f32[1] @ DRAM
        t[0] = x[i]
        x[i] = t[0]
"""


def _scale():
    return _procs(SCALE)["scale"]


@pytest.fixture
def traced():
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


def _counter(name: str) -> int:
    return obs.profile_dict()["counters"].get(name, 0)


def _outcome(p, exc, model, sizes):
    """What a caller sees of one built point: the ok flag, the error text,
    the IR text, the C and the modeled cost."""
    if exc is not None:
        return (False, f"{type(exc).__name__}: {exc}", None, None, None)
    return (True, None, str(p), p.c_code(), cost_of(p, sizes, model).cycles)


class TestDirectiveMemo:
    @pytest.mark.parametrize("which", ["sgemm", "matmul"])
    def test_search_candidates_equal_fresh_builds(self, which):
        from repro.apps.gemmini_matmul import matmul_space
        from repro.apps.x86_sgemm import sgemm_space

        if which == "sgemm":
            space, cfg = sgemm_space(), TuneConfig(seed=0, budget=30)
        else:
            space = matmul_space()
            cfg = TuneConfig(seed=0, budget=6, model=GEMMINI_MODEL,
                             sizes={"N": 512, "M": 512, "K": 512})
        res = search(space, cfg)
        assert memo.current() is None
        assert len(res.candidates) == space.size()
        for c in res.candidates:
            got = _outcome(c.proc, c.exc, cfg.model, cfg.sizes)
            try:
                fresh, exc = space.build(space.base, **c.params), None
            except SchedulingError as e:
                fresh, exc = None, e
            want = _outcome(fresh, exc, cfg.model, cfg.sizes)
            assert got == want, c.describe()
            if c.ok:
                assert c.cost.cycles == want[-1]
                assert c.proc.schedule_log() == fresh.schedule_log()

    def test_grid_search_hits_the_memo(self, traced):
        from repro.apps.x86_sgemm import sgemm_space

        search(sgemm_space(), TuneConfig(seed=0, budget=30))
        assert _counter("sched.memo.directive_hits") > 0
        assert "Search-scoped derivation reuse" in obs.compile_profile()
        assert not any("memo" in k for k in obs.profile_dict()["autotune"])

    def test_report_renders_reuse_counters(self):
        from repro.obs import report

        counters = {"sched.memo.directive_hits": 5,
                    "sched.memo.checked_reused": 2}
        assert report.derivation_memo(counters) == {
            "directive_hits": 5, "checked_reused": 2}
        assert report.derivation_memo({}) == {}

    def test_hit_returns_the_revision_derived_first(self):
        p = _scale()
        with memo.derivation_table():
            a = p.split("for i in _: _", 4, "io", "ii", tail="perfect")
            b = p.split("for i in _: _", 4, "io", "ii", tail="perfect")
            c = p.split(p.find("for i in _: _"), 4, "io", "ii",
                        tail="perfect")
            d = p.split(p.find("for i in _: _"), 4, "io", "ii",
                        tail="perfect")
        assert a is b and c is d and a is not c
        assert str(a) == str(c)
        assert a.schedule_log() == p.split(
            "for i in _: _", 4, "io", "ii", tail="perfect").schedule_log()
        # outside a table nothing is shared
        assert p.split("for i in _: _", 4, "io", "ii", tail="perfect") is not a

    def test_keys_tell_literal_types_apart(self):
        p = _scale()
        keys = {memo.directive_key(p, "split", (v,), {})
                for v in (4, 4.0, True)}
        assert len(keys) == 3
        assert memo.directive_key(p, "split", ([4],), {}) is None
        assert (memo.directive_key(p, "split", (p.find("for i in _: _"),), {})
                == memo.directive_key(p, "split", (p.find("for i in _: _"),),
                                      {}))

    def test_failure_hit_reraises_and_is_logged(self, traced):
        p = _scale()
        msgs = []
        with memo.derivation_table():
            for _ in range(2):
                with pytest.raises(SchedulingError) as err:
                    p.split("for i in _: _", 5, "io", "ii", tail="perfect")
                msgs.append(str(err.value))
        assert msgs[0] == msgs[1]
        assert _counter("sched.memo.directive_hits") == 1
        assert [e[1:] for e in FAILED_LOG] == [
            ("split", ("for i in _: _", 5, "io", "ii"), msgs[0])] * 2


def _search_module():
    # ``repro.autotune.search`` is also the name of the exported function
    return importlib.import_module("repro.autotune.search")


class TestTableScope:
    def test_table_is_open_only_inside_search(self):
        from repro.apps.x86_sgemm import sgemm_space

        space = sgemm_space()
        inner, seen = space.build, []

        def build(base, **params):
            seen.append(memo.current())
            return inner(base, **params)

        space.build = build
        search(space, TuneConfig(seed=0, budget=4))
        assert memo.current() is None
        assert seen[0] is not None and all(t is seen[0] for t in seen)
        search(space, TuneConfig(seed=0, budget=4))
        assert seen[-1] is not seen[0]

    def test_table_is_dropped_when_search_raises(self, monkeypatch):
        from repro.apps.x86_sgemm import sgemm_space

        def boom(space, config, rng):
            assert memo.current() is not None
            raise RuntimeError("search failed")

        monkeypatch.setattr(_search_module(), "_search_grid", boom)
        with pytest.raises(RuntimeError):
            search(sgemm_space(), TuneConfig(seed=0, budget=4))
        assert memo.current() is None

    def test_nested_open_reuses_the_outer_table(self):
        with memo.derivation_table() as outer:
            with memo.derivation_table() as inner:
                assert inner is outer
            assert memo.current() is outer
        assert memo.current() is None


# ---------------------------------------------------------------------------
# Check reuse
# ---------------------------------------------------------------------------


@pytest.fixture
def check_calls(monkeypatch):
    """Every ``check_proc`` call, as the IR proc it checked."""
    calls = []
    inner = checks.check_proc

    def counted(proc, fwd=None):
        calls.append(proc)
        return inner(proc, fwd)

    monkeypatch.setattr(checks, "check_proc", counted)
    return calls


def _shadowed_nest():
    """Two procs that print the same, ``for i: for i: x[i] = 0.0``: in
    the first ``x[i]`` reads the outer ``i`` (in bounds), in the second
    the inner one, which runs to 9 (out of bounds for ``x: f32[8]``)."""
    (p,) = _procs("""
@proc
def nest(x: f32[8] @ DRAM):
    for i in seq(0, 8):
        for j in seq(0, 9):
            x[i] = 0.0
""").values()
    ir = p.ir()
    outer = ir.body[0]
    inner = dataclasses.replace(outer.body[0], iter=Sym("i"))
    (asg,) = inner.body
    rebound = dataclasses.replace(
        asg, idx=(dataclasses.replace(asg.idx[0], name=inner.iter),))

    def nest(stmt):
        body = (dataclasses.replace(inner, body=(stmt,)),)
        return dataclasses.replace(
            ir, body=(dataclasses.replace(outer, body=body),))

    return nest(asg), nest(rebound)


class TestCheckReuse:
    def _run(self, check_calls, *procs):
        """How many of ``procs``, in turn, ``check_derived`` checked."""
        check_calls.clear()
        with memo.derivation_table():
            for p in procs:
                memo.check_derived(p, None)
        return len(check_calls)

    def test_alpha_renamed_revision_is_reused(self, check_calls, traced):
        a = _scale().ir()
        b = dataclasses.replace(a, body=IR.alpha_rename(a.body))
        assert alpha_equiv_procs(a, b)
        assert self._run(check_calls, a, b) == 1
        assert _counter("sched.memo.checked_reused") == 1

    def test_no_reuse_outside_a_table(self, check_calls):
        a = _scale().ir()
        check_calls.clear()
        memo.check_derived(a, None)
        memo.check_derived(a, None)
        assert len(check_calls) == 2

    def test_alloc_memory(self, check_calls):
        p = _scale()
        a = p.simplify().ir()
        b = p.set_memory("t", StaticMemory).ir()
        assert not alpha_equiv_procs(a, b)
        assert self._run(check_calls, a, b) == 2

    def test_loop_bound(self, check_calls):
        procs = _procs("""
@proc
def a(x: f32[16] @ DRAM):
    for i in seq(0, 16):
        x[i] = 0.0

@proc
def b(x: f32[16] @ DRAM):
    for i in seq(0, 8):
        x[i] = 0.0
""")
        a, b = procs["a"].ir(), procs["b"].ir()
        assert not alpha_equiv_procs(a, b)
        assert self._run(check_calls, a, b) == 2

    def test_seq_against_par(self, check_calls):
        p = _procs("""
@proc
def fill(x: f32[16] @ DRAM):
    for i in seq(0, 16):
        x[i] = 0.0
""")["fill"]
        a = p.simplify().ir()
        b = p.parallelize("for i in _: _").ir()
        assert str(a).replace("seq", "par") == str(b)
        assert not alpha_equiv_procs(a, b)
        assert self._run(check_calls, a, b) == 2

    def test_callee_of_the_same_name(self, check_calls):
        src = """
@proc
def f(x: f32[4] @ DRAM):
    for i in seq(0, 4):
        x[i] = 0.0

@proc
def g(x: f32[4] @ DRAM):
    f(x)
"""
        a, b = _procs(src)["g"].ir(), _procs(src)["g"].ir()
        assert proc_key(a) == proc_key(b)
        assert not alpha_equiv_procs(a, b)
        assert self._run(check_calls, a, b) == 2

    def test_rebound_sym_with_equal_text(self, check_calls):
        good, bad = _shadowed_nest()
        other, _ = _shadowed_nest()
        assert str(good) == str(bad) == str(other)
        assert proc_key(good) == proc_key(bad) == proc_key(other)
        assert not alpha_equiv_procs(good, bad)
        assert alpha_equiv_procs(good, other)
        assert self._run(check_calls, good, other) == 1

    def test_failing_revision_never_hits_a_cached_pass(self, check_calls):
        good, bad = _shadowed_nest()
        check_calls.clear()
        with memo.derivation_table() as table:
            memo.check_derived(good, None)
            for _ in range(2):
                with pytest.raises(BoundsCheckError):
                    memo.check_derived(bad, None)
            assert sum(map(len, table.checked.values())) == 1
        assert len(check_calls) == 3

    def test_beam_outcome_equals_rebuilding_outside_a_search(self):
        """Every beam candidate -- each duplicate state included -- is what
        replaying its actions from the base outside any search gives."""
        from repro.apps.x86_sgemm import sgemm_tune_base
        from repro.autotune import Space

        space = Space.action_space("sgemm_beam", sgemm_tune_base(), depth=3)
        res = search(space, TuneConfig(seed=0, budget=40))
        assert res.stats["survivors"] > 1
        for c in res.candidates:
            try:
                p = space.base
                for act in c.params["actions"]:
                    p = act.apply(p)
                fresh = (True, str(p), p.c_code(), None)
            except SchedulingError as e:
                fresh = (False, None, None, f"{type(e).__name__}: {e}")
            got = (c.ok, str(c.proc) if c.ok else None,
                   c.proc.c_code() if c.ok else None, c.error)
            assert got == fresh, c.describe()
