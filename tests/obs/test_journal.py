"""Tests for the schedule provenance journal and the compile profile.

Includes the subsystem acceptance test: enable tracing, derive the
Fig. 4a Gemmini matmul schedule, and require (a) per-phase spans in the
profile, (b) that a re-derivation's solver queries are all answered from
the canonical cache, and (c) that replaying the provenance journal
regenerates an equivalent procedure.
"""

from __future__ import annotations

import pytest

from repro import SchedulingError, obs, proc
from repro.api import procs_from_source
from repro.obs import journal, trace

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


def _gemm():
    from repro import DRAM, f32, size

    return procs_from_source(
        _GEMM_SRC, {"DRAM": DRAM, "f32": f32, "size": size}
    )["gemm"]


@pytest.fixture(autouse=True)
def _clean_obs():
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    yield
    obs.reset()
    if not was_enabled:
        obs.disable()


class TestJournal:
    def test_root_proc_has_empty_journal(self):
        g = _gemm()
        assert g.schedule_log() == []
        assert g._root is g

    def test_directives_append_records(self):
        g = _gemm()
        fast = g.split("for i in _: _", 4, "io", "ii", tail="perfect")
        fast = fast.reorder("for ii in _: _")
        log = fast.schedule_log()
        assert [r.op for r in log] == ["split", "reorder"]
        assert log[0].args == ("for i in _: _", 4, "io", "ii")
        assert log[0].kwargs == (("tail", "perfect"),)
        assert all(r.verdict == journal.VERDICT_OK for r in log)

    def test_journal_is_cumulative_and_immutable_per_proc(self):
        g = _gemm()
        a = g.split("for i in _: _", 4, "io", "ii", tail="perfect")
        b = a.reorder("for ii in _: _")
        assert len(a.schedule_log()) == 1
        assert len(b.schedule_log()) == 2
        assert g.schedule_log() == []

    def test_failed_rewrite_recorded_not_journaled(self):
        g = _gemm()
        del journal.FAILED_LOG[:]
        with pytest.raises(SchedulingError):
            g.remove_loop("for k in _: _")  # k is used in the loop body
        assert len(journal.FAILED_LOG) == 1
        name, op, _args, msg = journal.FAILED_LOG[0]
        assert (name, op) == ("gemm", "remove_loop")
        assert msg

    def test_record_to_dict_is_json_safe(self):
        import json

        g = _gemm()
        fast = g.split("for i in _: _", 4, "io", "ii", tail="perfect")
        d = journal.record_to_dict(fast.schedule_log()[0])
        assert json.loads(json.dumps(d)) == d
        assert d["op"] == "split"

    def test_replay_regenerates_identical_procedure(self):
        g = _gemm()
        fast = (
            g.split("for i in _: _", 4, "io", "ii", tail="perfect")
            .reorder("for ii in _: _")
            .unroll("for ii in _: _")
        )
        again = fast.replay_schedule()
        assert str(again) == str(fast)
        assert again.c_code() == fast.c_code()

    def test_replay_against_explicit_base(self):
        g = _gemm()
        fast = g.split("for i in _: _", 4, "io", "ii", tail="perfect")
        again = journal.replay(g, fast.schedule_log())
        assert str(again) == str(fast)


class TestJournalCursorCompat:
    """The cursor refactor must not disturb pattern-string journals, and
    cursor-steered directives must journal replayable PathRefs."""

    def test_pattern_string_journal_replays_byte_identically(self):
        """A pre-refactor-style schedule — every directive steered by a
        pattern string — journals those strings verbatim and replays to
        byte-identical C."""
        g = _gemm()
        fast = (
            g.split("for i in _: _", 4, "io", "ii", tail="perfect")
            .reorder("for ii in _: _")
            .bind_expr("a_ik", "A[_] * B[_]")
        )
        log = fast.schedule_log()
        # the journal holds the original strings, not cursors or PathRefs
        assert log[0].args[0] == "for i in _: _"
        assert log[1].args[0] == "for ii in _: _"
        assert all(
            not isinstance(a, journal.PathRef)
            for rec in log for a in rec.args
        )
        again = fast.replay_schedule()
        assert again.c_code() == fast.c_code()

    def test_cursor_directive_journals_pathref(self):
        g = _gemm()
        cur = g.find("for i in _: _")
        fast = g.split(cur, 4, "io", "ii", tail="perfect")
        (rec,) = fast.schedule_log()
        ref = rec.args[0]
        assert isinstance(ref, journal.PathRef)
        assert ref.path == cur.path
        assert ref.count == 1

    def test_cursor_journal_replays_identically(self):
        g = _gemm()
        cur = g.find("for j in _: _")
        fast = g.split("for i in _: _", 4, "io", "ii", tail="perfect")
        fast = fast.split(cur, 4, "jo", "ji", tail="guard")
        again = fast.replay_schedule()
        assert str(again) == str(fast)
        assert again.c_code() == fast.c_code()

    def test_pathref_record_is_json_safe(self):
        import json

        g = _gemm()
        fast = g.split(g.find("for i in _: _"), 4, "io", "ii", tail="perfect")
        d = journal.record_to_dict(fast.schedule_log()[0])
        assert json.loads(json.dumps(d)) == d


class TestCompileProfile:
    def test_profile_dict_has_phase_spans(self):
        from repro.smt.solver import DEFAULT_SOLVER

        # cold canonical cache, and a perfect split by 2 whose divisibility
        # goal (M % 4 == 0 implies M % 2 == 0) the affine fast path cannot
        # decide, so a query reaches the solver and the smt phase appears
        DEFAULT_SOLVER.qcache.clear()
        g = _gemm()
        g = g.split("for i in _: _", 2, "io", "ii", tail="perfect")
        g = g.stage_mem("for k in _: _", "C[2*io + ii, j]", "acc")
        g.c_code()
        prof = obs.profile_dict()
        assert prof["counters"]["analysis.absint.rewrite.fellthrough"] > 0
        for phase in ("typecheck", "effects", "smt", "sched", "codegen"):
            assert phase in prof["phases"], f"missing phase {phase}"
        assert prof["smt"]["prove_calls"] > 0

    def test_compile_profile_renders(self):
        g = _gemm()
        g.split("for i in _: _", 4, "io", "ii", tail="perfect")
        text = obs.compile_profile()
        assert "Compile profile" in text
        assert "SMT query stats" in text

    def test_rewrite_goals_in_fastpath_table(self):
        from repro.apps import gemmini_matmul as gm
        from repro.obs.report import absint_fastpath

        gm.matmul_exo.__wrapped__()
        fp = absint_fastpath(obs.profile_dict()["counters"])
        rewrite = fp["rewrite"]
        assert rewrite["discharged"] > 0
        assert rewrite["tried"] == rewrite["discharged"] + rewrite["fellthrough"]


class TestFig4aAcceptance:
    def test_fig4a_matmul_profile_cache_and_replay(self):
        from repro.apps import gemmini_matmul as gm
        from repro.smt.solver import DEFAULT_SOLVER

        def derive():
            """Split a fresh gemm by 2 under ``M % 4 == 0`` and return the
            solver queries it made and how many of those the canonical
            cache answered.  The affine fast path decides every Fig. 4a
            obligation, but not this divisibility goal, so the split is
            what reaches the solver."""
            calls = DEFAULT_SOLVER.stats["prove_calls"]
            hits = DEFAULT_SOLVER.qcache.hits
            fell = obs.profile_dict()["counters"].get(
                "analysis.absint.fellthrough", 0
            )
            _gemm().split("for i in _: _", 2, "io", "ii", tail="perfect")
            assert obs.profile_dict()["counters"][
                "analysis.absint.fellthrough"
            ] > fell
            return (
                DEFAULT_SOLVER.stats["prove_calls"] - calls,
                DEFAULT_SOLVER.qcache.hits - hits,
            )

        DEFAULT_SOLVER.qcache.clear()  # cold cache: hits below are this run's
        first_calls, _ = derive()
        calls, hits = derive()
        # Fig. 4a afresh (bypassing the app module's lru_cache)
        exo = gm.matmul_exo.__wrapped__()

        # (a) per-phase spans: every pipeline phase shows up in the profile
        # (the cold first derivation is the one that reaches the solver)
        prof = obs.profile_dict()
        for phase in ("typecheck", "effects", "smt", "sched"):
            assert phase in prof["phases"], f"missing phase {phase}"
        assert prof["spans"], "no spans recorded"

        # (b) the re-derivation poses the same obligations under fresh
        # names, and the canonical cache answers every one that reaches
        # the solver
        assert calls == first_calls > 0
        assert hits == calls

        # (c) the Fig. 4a journal replays to an equivalent procedure
        log = exo.schedule_log()
        assert len(log) > 10  # the Fig. 4a derivation is a long rewrite chain
        again = exo.replay_schedule()
        assert str(again) == str(exo)
