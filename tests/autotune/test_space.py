"""Tests for Space / Candidate / action enumeration (autotune/space.py).

The core contract: illegal schedules are *pruned, never emitted* — every
directive failure becomes a pruned Candidate, and every surviving
candidate carries an all-ok-verdict provenance journal.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.api import procs_from_source
from repro.autotune import Choice, Space, enumerate_actions
from repro.obs.journal import VERDICT_OK

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, DRAM, f32, size\n"
)


def _p(body):
    return list(procs_from_source(HEADER + body).values())[-1]


@pytest.fixture(autouse=True)
def _clean_obs():
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    yield
    obs.reset()
    if not was_enabled:
        obs.disable()


@pytest.fixture
def scal():
    return _p(
        """
@proc
def scal(x: f32[100] @ DRAM):
    for i in seq(0, 100):
        x[i] = 2.0 * x[i]
"""
    )


def _split_build(base, factor):
    return base.split("for i in _: _", factor, "io", "ii", tail="perfect")


class TestParameterMode:
    def test_grid_is_deterministic_row_major(self, scal):
        sp = Space("s", scal,
                   choices=[Choice("a", (1, 2)), Choice("b", ("x", "y"))],
                   build=lambda base, a, b: base)
        assert sp.grid() == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
        ]
        assert sp.size() == 4

    def test_legal_candidate_has_checked_journal(self, scal):
        sp = Space("s", scal, choices=[Choice("factor", (4, 7))],
                   build=_split_build)
        c = sp.build_candidate({"factor": 4})
        assert c.ok and c.error is None
        assert all(r.verdict == VERDICT_OK for r in c.proc.schedule_log())

    def test_illegal_candidate_pruned_not_raised(self, scal):
        sp = Space("s", scal, choices=[Choice("factor", (4, 7))],
                   build=_split_build)
        c = sp.build_candidate({"factor": 7})  # 100 % 7 != 0
        assert not c.ok
        assert "SchedulingError" in c.error
        totals = obs.trace.TRACER.counter_totals()
        assert totals["autotune.candidates_pruned"] == 1

    def test_params_key_deterministic(self, scal):
        sp = Space("s", scal, choices=[Choice("factor", (4,))],
                   build=_split_build)
        a = sp.build_candidate({"factor": 4})
        b = sp.build_candidate({"factor": 4})
        assert a.params_key() == b.params_key()
        assert "factor=4" in a.describe()


class TestActionMode:
    def test_enumeration_is_deterministic(self, scal):
        a1 = enumerate_actions(scal)
        a2 = enumerate_actions(scal)
        assert [a.key() for a in a1] == [a.key() for a in a2]
        assert a1  # a loop nest always offers at least a split

    def test_actions_apply_through_directives(self, scal):
        acts = [a for a in enumerate_actions(scal) if a.op == "split"]
        p = acts[0].apply(scal)
        assert p is not scal
        assert all(r.verdict == VERDICT_OK for r in p.schedule_log())

    def test_action_space_candidates(self, scal):
        sp = Space.action_space("s", scal, depth=2)
        assert sp.is_action_space
        acts = sp.neighbors(scal)
        c = sp.build_candidate({"actions": [acts[0]]})
        assert c.ok
        assert sp.build_candidate({"actions": []}).ok  # the base itself

    def test_parameter_space_rejects_neighbors(self, scal):
        sp = Space("s", scal, choices=[Choice("factor", (4,))],
                   build=_split_build)
        with pytest.raises(ValueError):
            sp.neighbors(scal)
