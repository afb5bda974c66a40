"""Scheduling wall-clock: full vs incremental re-checking per revision.

Derives the two flagship schedules — the Fig. 4a Gemmini matmul schedule
and the x86 SGEMM schedule — then walks each result's derivation chain
(``Procedure._parent``) and, for every derived revision, times the full
check ``check_proc(ir)`` against the scoped check ``check_proc(ir, fwd)``
that re-discharges only the obligations inside the deriving rewrite's
blast radius (``fwd`` is that rewrite's forwarder).  Every timing starts
from a cleared solver cache.

Emits ``bench.sched.*`` counters into ``BENCH_obs.json``:

* ``bench.sched.fig4a_full_us`` / ``fig4a_incr_us`` — Fig. 4a chain
* ``bench.sched.sgemm_full_us`` / ``sgemm_incr_us`` — SGEMM chain
* ``bench.sched.fig4a_speedup_x100`` / ``sgemm_speedup_x100``
* ``bench.sched.incremental_reused`` — obligation verdicts the scoped
  checks reused across both chains (must be > 0 for the mechanism to be
  live)
"""

from __future__ import annotations

import time

from repro import obs
from repro.core.checks import check_proc
from repro.reporting import table
from repro.smt.solver import DEFAULT_SOLVER


def _derive_fig4a():
    from repro.apps import gemmini_matmul as gm

    return gm.matmul_exo.__wrapped__()


def _derive_sgemm():
    from repro.apps import x86_sgemm as sg

    return sg.sgemm_exo.__wrapped__()


def _revisions(proc) -> list:
    """Every derived revision on ``proc``'s chain, root-most first."""
    out = []
    while proc._parent is not None:
        out.append(proc)
        proc = proc._parent
    return out[::-1]


def _time_check(ir, fwd=None) -> float:
    DEFAULT_SOLVER.qcache.clear()
    t0 = time.perf_counter()
    check_proc(ir, fwd)
    return (time.perf_counter() - t0) * 1e3  # ms


def _reused() -> int:
    return obs.trace.TRACER.counter_totals().get(
        "analysis.incremental.reused", 0)


def test_schedule_time():
    results = []
    reused_total = 0
    for name, build in (("fig4a", _derive_fig4a), ("sgemm", _derive_sgemm)):
        revs = _revisions(build())
        full_ms = incr_ms = 0.0
        before = _reused()
        for rev in revs:
            full_ms += _time_check(rev.ir())
            incr_ms += _time_check(rev.ir(), rev._fwd)
        reused = _reused() - before
        reused_total += reused

        speedup = full_ms / incr_ms if incr_ms > 0 else float("inf")
        results.append((name, len(revs), full_ms, incr_ms, speedup, reused))
        obs.incr(f"bench.sched.{name}_full_us", int(full_ms * 1000))
        obs.incr(f"bench.sched.{name}_incr_us", int(incr_ms * 1000))
        obs.incr(f"bench.sched.{name}_speedup_x100", int(speedup * 100))

    obs.incr("bench.sched.incremental_reused", reused_total)

    print()
    print(table(
        "Re-checking every revision: full vs incremental",
        ["schedule", "revisions", "full ms", "incremental ms", "speedup",
         "reused"],
        [(n, k, f"{f:.1f}", f"{i:.1f}", f"{s:.2f}x", r)
         for n, k, f, i, s, r in results],
    ))

    # the mechanism must actually reuse verdicts on these derivations
    assert reused_total > 0
