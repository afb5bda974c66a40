"""Incremental beam search and lazily rendered rejection witnesses.

The beam search builds each successor by applying its one new action to
the parent candidate's procedure.  These tests pin that this is exactly
the schedule the action prefix replayed from the base would give, and
that a pruned candidate pays for its counterexample only when its error
is read.
"""

from __future__ import annotations

import pickle

import pytest

from repro import obs
from repro.api import procs_from_source
from repro.autotune import Space, TuneConfig, X86_MODEL, cost_of, search
from repro.core.prelude import BoundsCheckError, SchedulingError
from repro.obs import journal
from repro.smt.solver import DEFAULT_SOLVER

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, DRAM, f32, size\n"
)


def _p(body):
    return list(procs_from_source(HEADER + body).values())[-1]


@pytest.fixture(autouse=True)
def _obs_off():
    # tracing logs every rejected rewrite's message, which renders it
    was_enabled = obs.enabled()
    obs.disable()
    yield
    if was_enabled:
        obs.enable()


@pytest.fixture
def find_model_calls(monkeypatch):
    calls = []
    inner = DEFAULT_SOLVER.find_model

    def counting(formula):
        calls.append(formula)
        return inner(formula)

    monkeypatch.setattr(DEFAULT_SOLVER, "find_model", counting)
    return calls


@pytest.fixture
def rowsum():
    # parallelizing j (or any loop split out of it) races on y[i]
    return _p(
        """
@proc
def rowsum(x: f32[8, 16] @ DRAM, y: f32[8] @ DRAM):
    for i in seq(0, 8):
        for j in seq(0, 16):
            y[i] += x[i, j]
"""
    )


@pytest.fixture
def mm():
    return _p(
        """
@proc
def mm(A: f32[8, 8] @ DRAM, B: f32[8, 8] @ DRAM, C: f32[8, 8] @ DRAM):
    for i in seq(0, 8):
        for j in seq(0, 8):
            for k in seq(0, 8):
                C[i, j] += A[i, k] * B[k, j]
"""
    )


def _racy(res):
    return [c for c in res.candidates
            if not c.ok and c.params["actions"][-1].op == "parallelize"]


class TestLazyWitness:
    def test_no_find_model_until_error_is_read(self, rowsum, find_model_calls):
        space = Space.action_space("rowsum", rowsum, depth=2,
                                   split_factors=(4,))
        res = search(space, TuneConfig(seed=0, budget=30))
        racy = _racy(res)
        assert len(racy) >= 2
        assert find_model_calls == []
        for n, c in enumerate(racy, start=1):
            text = c.error
            assert "counterexample: iterations" in text
            assert len(find_model_calls) == n
            assert c.error == text  # rendered once, then cached
            assert len(find_model_calls) == n

    def test_witness_text_equals_eager_text(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[1] @ DRAM, a: f32[n] @ DRAM):
    for i in seq(0, n):
        x[0] += a[i]
"""
        )
        with pytest.raises(SchedulingError) as exc:
            p.parallelize("for i in _: _")
        # the message the eager renderer produced, verbatim
        assert str(exc.value) == (
            "parallelize: loop i is not parallelizable\n"
            "  conflicting pair on x: reduce x[0] (iteration i) with "
            "reduce x[0] (iteration i')\n"
            "  counterexample: iterations i = 0 and i = 1; "
            "both touch x[0]; n = 2"
        )

    def test_condition_witness_text_equals_eager_text(self):
        p = _p(
            """
@proc
def h(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = 0.0
"""
        )
        with pytest.raises(SchedulingError) as exc:
            p.split("for i in _: _", 4, "io", "ii", tail="perfect")
        assert str(exc.value) == (
            "split(perfect): trip count not divisible by factor: "
            "cannot prove condition (counterexample: n = 1)"
        )

    def test_bounds_witness_text_equals_eager_text(self):
        with pytest.raises(BoundsCheckError) as exc:
            _p(
                """
@proc
def g(n: size, x: f32[4] @ DRAM):
    for i in seq(0, n):
        x[i] = 0.0
"""
            )
        assert str(exc.value).endswith(
            ":6:8: cannot prove access to x in bounds "
            "(index i vs extent 4; counterexample: i = 4, n = 5)"
        )

    def test_pickle_round_trip_keeps_text(self, rowsum):
        space = Space.action_space("rowsum", rowsum, depth=1)
        res = search(space, TuneConfig(seed=0, budget=30))
        c = _racy(res)[0]
        assert c.exc.__traceback__ is None
        again = pickle.loads(pickle.dumps(c.exc))
        assert type(again) is type(c.exc)
        assert str(again) == str(c.exc)
        assert c.error == f"{type(again).__name__}: {again}"


class TestIncrementalBuild:
    def test_matches_replay_from_base(self, mm):
        space = Space.action_space("mm", mm, depth=3, split_factors=(2, 4))
        res = search(space, TuneConfig(seed=0, budget=40, branch=4))
        assert max(len(c.params["actions"]) for c in res.candidates) == 3
        assert any(c.ok for c in res.candidates[1:])
        assert any(not c.ok for c in res.candidates)
        for c in res.candidates:
            again = space.build_candidate(c.params)
            assert again.ok == c.ok, c.describe()
            assert again.error == c.error
            if not c.ok:
                continue
            assert str(again.proc) == str(c.proc)
            assert again.proc.c_code() == c.proc.c_code()
            assert again.proc._root is c.proc._root is mm
            assert [journal.record_to_dict(r)
                    for r in again.proc.schedule_log()] == [
                journal.record_to_dict(r) for r in c.proc.schedule_log()]
            assert cost_of(again.proc, None, X86_MODEL).cycles == c.cost.cycles

    def test_parent_must_prefix_the_child(self, mm):
        space = Space.action_space("mm", mm, depth=2)
        base = space.build_candidate({"actions": []})
        a, b = space.neighbors(mm)[:2]
        child = space.build_candidate({"actions": [a]}, parent=base)
        assert child.ok
        with pytest.raises(ValueError):
            space.build_candidate({"actions": [b, a]}, parent=child)
