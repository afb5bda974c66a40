"""Incremental re-checking: the RecheckScope predicate, the obs counters,
and a full-check oracle over every revision of a derivation chain."""

from __future__ import annotations

import pytest

from repro import SchedulingError, obs
from repro.api import procs_from_source
from repro.core import types as T
from repro.core.checks import RecheckScope, _precedes, check_proc
from repro.core.configs import Config

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, DRAM, f32, size\n"
)

SRC = HEADER + """
@proc
def f(N: size, A: f32[N] @ DRAM, B: f32[N] @ DRAM):
    assert N % 8 == 0
    for i in seq(0, N):
        A[i] = 1.0
    for w in seq(0, N):
        B[w] += 2.0
"""


#: SRC plus a constant loop, and a constant loop that writes config
#: state read by a later call's precondition
CHAIN_SRC = HEADER + """
@proc
def g(x: f32 @ DRAM):
    assert CfgInc.a == 7
    x = 0.0

@proc
def f(N: size, A: f32[N] @ DRAM, B: f32[N] @ DRAM, D: f32[8] @ DRAM,
      x: f32 @ DRAM):
    assert N % 8 == 0
    for i in seq(0, N):
        A[i] = 1.0
    for w in seq(0, N):
        B[w] += 2.0
    for d in seq(0, 8):
        D[d] = 3.0
    for c in seq(0, 8):
        CfgInc.a = 7
        D[c] = 4.0
    g(x)
"""


def _p():
    return procs_from_source(SRC)["f"]


@pytest.fixture(autouse=True)
def _clean_obs():
    was = obs.enabled()
    obs.enable()
    obs.reset()
    yield
    obs.reset()
    if not was:
        obs.disable()


def _inc_counters():
    ctr = obs.trace.TRACER.counter_totals()
    return {
        k.rsplit(".", 1)[-1]: v
        for k, v in ctr.items()
        if k.startswith("analysis.incremental.")
    }


class TestPrecedes:
    def test_same_block_order(self):
        assert _precedes((("body", 0),), (("body", 1),))
        assert not _precedes((("body", 1),), (("body", 0),))

    def test_divergent_if_branches_do_not_precede(self):
        a = (("body", 0), ("body", 0))
        b = (("body", 0), ("orelse", 0))
        assert not _precedes(a, b)
        assert not _precedes(b, a)

    def test_ancestor_does_not_precede_descendant(self):
        assert not _precedes((("body", 0),), (("body", 0), ("body", 2)))


class TestRecheckScope:
    def test_touched_prefix_forces_recheck(self):
        p = _p()
        scope = RecheckScope(p.ir(), [(("body", 1),)], ctx_dirty=False)
        assert scope.needs((("body", 1),))
        assert scope.needs((("body", 1), ("body", 0)))
        assert not scope.needs((("body", 2),))
        assert not scope.needs((("body", 0),))

    def test_clean_context_spares_later_statements(self):
        p = _p()
        scope = RecheckScope(p.ir(), [(("body", 1),)], ctx_dirty=False)
        assert not scope.needs((("body", 3),))

    def test_dirty_context_taints_downstream(self):
        p = _p()
        scope = RecheckScope(p.ir(), [(("body", 1),)], ctx_dirty=True)
        assert scope.needs((("body", 2),))  # after the touched write
        assert not scope.needs((("body", 0),))  # before it, outside any loop

    def test_dirty_context_taints_shared_loop(self):
        """Inside a loop, config state written late in iteration k reaches
        statements early in iteration k+1 — the whole loop is tainted."""
        p = _p()
        touched = [(("body", 1), ("body", 1))]  # inside the 'for i' loop
        scope = RecheckScope(p.ir(), touched, ctx_dirty=True)
        # an *earlier* statement in the same loop still needs rechecking
        assert scope.needs((("body", 1), ("body", 0)))

    def test_needs_subtree_sees_interior_touches(self):
        p = _p()
        scope = RecheckScope(p.ir(), [(("body", 1), ("body", 0))],
                             ctx_dirty=False)
        assert scope.needs_subtree((("body", 1),))
        assert not scope.needs_subtree((("body", 2),))


class TestIncrementalPipeline:
    def test_reuse_counter_fires_on_disjoint_rewrite(self):
        p = _p()
        obs.reset()
        p.split("for i in _: _", 8, "io", "ii", tail="guard")
        c = _inc_counters()
        assert c.get("reused", 0) > 0

    def test_incremental_and_full_accept_the_same_schedules(self):
        """Oracle: every revision the scoped re-check accepted along a
        derivation chain also passes the full check.  The chain includes
        rewrites after which the simplifier deletes statements: the empty
        remainder of a ``tail="cut"`` split whose factor divides a constant
        loop, and a zero-trip loop that writes config."""
        cfg = Config("CfgInc", [("a", T.int_t)])
        p = procs_from_source(CHAIN_SRC, extra_globals={"CfgInc": cfg})["f"]
        p = p.split("for i in _: _", 8, "io", "ii", tail="guard")
        p = p.split("for w in _: _", 8, "wo", "wi", tail="perfect")
        p = p.bind_expr("two", "2.0")
        p = p.split("for d in _: _", 4, "do", "di", tail="cut")
        p = p.partition_loop("for c in _: _", 8)
        p = p.split("for c in _: _", 2, "co", "ci", tail="perfect")
        # both zero-trip loops were deleted
        assert "dit" not in str(p) and "seq(8, 8)" not in str(p)
        revisions = 0
        while p._parent is not None:
            check_proc(p.ir())
            revisions += 1
            p = p._parent
        assert revisions == 6

    def test_incremental_still_rejects_bad_rewrites(self):
        """A rewrite that creates an out-of-bounds access in the touched
        region is still rejected under incremental re-checking."""
        p = _p()
        with pytest.raises(SchedulingError):
            # splitting with tail='perfect' requires 16 | N, unprovable
            p.split("for i in _: _", 16, "io", "ii", tail="perfect")

    def test_profile_reports_incremental_table(self):
        from repro.obs.report import compile_profile, incremental_recheck

        p = _p()
        obs.reset()
        p.split("for i in _: _", 8, "io", "ii", tail="guard")
        ctr = obs.trace.TRACER.counter_totals()
        inc = incremental_recheck(ctr)
        assert inc.get("reused", 0) > 0
        assert "Incremental re-checking" in compile_profile()
