"""Compiler observability: tracing spans, SMT query stats, provenance.

Usage::

    from repro import obs

    obs.enable()                 # or REPRO_TRACE=1 in the environment
    obs.reset()                  # clear a previous run's data
    ... compile / schedule ...
    print(obs.compile_profile()) # per-phase time + SMT cache stats
    data = obs.profile_dict()    # same, JSON-ready

    fast.schedule_log()          # the provenance journal of a Procedure
    obs.replay(base, fast.schedule_log())   # re-derive it mechanically

The subsystem has three layers, each usable on its own:

* :mod:`repro.obs.trace` — span/counter tracer (off by default);
* :mod:`repro.obs.smtstats` — SMT query counters and the canonical-hash
  memo cache that answers repeated ``Commutes``/``Shadows`` obligations
  once (the cache is always on; only the *timing* is gated);
* :mod:`repro.obs.journal` — the per-procedure rewrite journal.
"""

from .journal import (
    FAILED_LOG,
    RewriteRecord,
    record_to_dict,
    replay,
)
from .report import compile_profile, phase_totals, profile_dict
from .smtstats import STATS, canonical_key
from .trace import TRACER, disable, enable, enabled, incr, span

__all__ = [
    "enable",
    "disable",
    "enabled",
    "span",
    "incr",
    "reset",
    "TRACER",
    "STATS",
    "canonical_key",
    "RewriteRecord",
    "FAILED_LOG",
    "record_to_dict",
    "replay",
    "compile_profile",
    "profile_dict",
    "phase_totals",
]


def reset():
    """Clear tracer spans/counters, SMT stats, and the failed-rewrite log.

    (The solver's canonical query cache is deliberately *not* cleared: it
    is a correctness-preserving memo, and keeping it warm is the point.
    Use ``DEFAULT_SOLVER.qcache.clear()`` to measure cold-cache behavior.)
    """
    from .trace import reset as _trace_reset

    _trace_reset()
    STATS.reset()
    del FAILED_LOG[:]
