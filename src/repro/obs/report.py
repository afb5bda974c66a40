"""Render a per-compile profile from the tracer + SMT stats.

Span names use dotted ``phase.detail`` form; the prefix buckets self-time
into the compile phases the paper's pipeline is made of:

* ``parse``     — front-end parsing (``@proc`` bodies -> IR)
* ``typecheck`` — the §3.1 type checker
* ``effects``   — effect extraction and safety-obligation assembly
* ``smt``       — the decision procedure itself (DNF + Omega)
* ``sched``     — the rewrite primitives (IR surgery, pattern matching)
* ``codegen``   — backend checks + C emission

Self-time (total minus enclosed spans) is what gets bucketed, so an SMT
query issued from inside a bounds check counts toward ``smt``, not
``effects`` — the phase table always sums to the instrumented wall time.

:func:`compile_profile` renders tables through :mod:`repro.reporting`;
:func:`profile_dict` returns the same data JSON-ready (this is what the
benchmark harness writes to ``BENCH_obs.json``).
"""

from __future__ import annotations

from ..reporting import table
from . import trace
from .smtstats import STATS

#: display order for the phase table
PHASES = (
    "parse", "typecheck", "effects", "analysis", "smt", "sched", "codegen",
    "other",
)

#: lint verdicts surfaced as parallelism coverage (see repro.analysis)
_LINT_VERDICTS = ("parallel", "sequential", "unknown")


def phase_of(span_name: str) -> str:
    head = span_name.split(".", 1)[0]
    return head if head in PHASES else "other"


def phase_totals() -> dict:
    """``{phase: seconds}`` of self-time, bucketed by span-name prefix."""
    out = {p: 0.0 for p in PHASES}
    for name, (_count, _total, self_s) in trace.TRACER.span_totals().items():
        out[phase_of(name)] += self_s
    return out


def profile_dict() -> dict:
    """The full profile as a JSON-serializable dict."""
    spans = {
        name: {"count": c, "total_s": round(tot, 6), "self_s": round(slf, 6)}
        for name, (c, tot, slf) in sorted(trace.TRACER.span_totals().items())
    }
    phases = {p: round(s, 6) for p, s in phase_totals().items() if s > 0.0}
    smt = STATS.snapshot()
    from ..smt.solver import DEFAULT_SOLVER

    smt["canonical_cache_entries"] = len(DEFAULT_SOLVER.qcache)
    counters = trace.TRACER.counter_totals()
    out = {
        "phases": phases,
        "spans": spans,
        "counters": counters,
        "smt": smt,
    }
    parallelism = parallelism_coverage(counters)
    if parallelism:
        out["parallelism"] = parallelism
    tune = autotune_summary(counters)
    if tune:
        out["autotune"] = tune
    return out


def parallelism_coverage(counters: dict) -> dict:
    """Lint verdict totals (``{verdict: count}``) from the
    ``analysis.lint.*`` counters, empty when lint never ran."""
    out = {}
    for v in _LINT_VERDICTS:
        n = counters.get(f"analysis.lint.{v}", 0)
        if n:
            out[v] = n
    return out


def absint_fastpath(counters: dict) -> dict:
    """Interval fast-path totals from the ``analysis.absint.*`` counters:
    ``{category: {tried, discharged, fellthrough}}`` with a ``"total"``
    entry, empty when the fast path never ran."""
    out = {}
    for key, n in counters.items():
        if not key.startswith("analysis.absint."):
            continue
        parts = key.split(".")
        if len(parts) == 3:  # analysis.absint.<event>
            cat, event = "total", parts[2]
        elif len(parts) == 4:  # analysis.absint.<category>.<event>
            cat, event = parts[2], parts[3]
        else:
            continue
        if event not in ("tried", "discharged", "fellthrough"):
            continue
        d = out.setdefault(
            cat, {"tried": 0, "discharged": 0, "fellthrough": 0}
        )
        d[event] += n
    return out


def absint_store(counters: dict) -> dict:
    """Canonical refute store traffic from the
    ``analysis.absint.store.*`` counters: ``{hit, miss}``, empty when no
    store was open (it is open only inside an autotuning search)."""
    out = {}
    for event in ("hit", "miss"):
        n = counters.get(f"analysis.absint.store.{event}", 0)
        if n:
            out[event] = n
    return out


def derivation_memo(counters: dict) -> dict:
    """Search-scoped derivation reuse from the ``sched.memo.*`` counters:
    ``{directive_hits, checked_reused}``, empty when no search reused a
    derivation (the table is open only inside an autotuning search)."""
    out = {}
    for event in ("directive_hits", "checked_reused"):
        n = counters.get(f"sched.memo.{event}", 0)
        if n:
            out[event] = n
    return out


def incremental_recheck(counters: dict) -> dict:
    """Incremental re-checking totals from the ``analysis.incremental.*``
    counters: ``{reused, rechecked}``, empty when incremental re-checking
    never ran."""
    out = {}
    for event in ("reused", "rechecked"):
        n = counters.get(f"analysis.incremental.{event}", 0)
        if n:
            out[event] = n
    return out


def autotune_summary(counters: dict) -> dict:
    """Autotuner totals from the ``autotune.*`` counters — candidates
    generated / pruned / checked / measured, cost-cache traffic, DB
    activity — empty when no search ran this session."""
    out = {}
    for key, n in counters.items():
        if key.startswith("autotune.") and n:
            out[key.split(".", 1)[1]] = n
    return out


def compile_profile() -> str:
    """A human-readable per-compile profile (phase, span, and SMT tables)."""
    prof = profile_dict()
    total = sum(prof["phases"].values()) or 1.0
    phase_rows = [
        (p, f"{s * 1e3:.1f}", f"{100.0 * s / total:.1f}%")
        for p, s in sorted(prof["phases"].items(), key=lambda kv: -kv[1])
    ]
    out = [table("Compile profile (self-time by phase)",
                 ["phase", "ms", "share"], phase_rows)]

    span_rows = [
        (name, d["count"], f"{d['total_s'] * 1e3:.1f}", f"{d['self_s'] * 1e3:.1f}")
        for name, d in sorted(
            prof["spans"].items(), key=lambda kv: -kv[1]["self_s"]
        )[:20]
    ]
    if span_rows:
        out.append(table("Top spans", ["span", "count", "total ms", "self ms"],
                         span_rows))

    smt = prof["smt"]
    smt_rows = [(k, smt[k]) for k in sorted(smt) if k != "by_category"]
    out.append(table("SMT query stats", ["stat", "value"], smt_rows))

    by_cat = smt.get("by_category")
    if by_cat:
        cat_rows = [
            (cat, d["prove_calls"], d["cache_hits"])
            for cat, d in sorted(
                by_cat.items(), key=lambda kv: -kv[1]["prove_calls"]
            )
        ]
        out.append(table("SMT queries by category",
                         ["category", "prove calls", "cache hits"], cat_rows))

    fp = absint_fastpath(prof["counters"])
    if fp:
        fp_rows = [
            (cat, d["tried"], d["discharged"], d["fellthrough"],
             f"{100.0 * d['discharged'] / (d['tried'] or 1):.0f}%")
            for cat, d in sorted(
                fp.items(), key=lambda kv: (kv[0] != "total", -kv[1]["tried"])
            )
        ]
        out.append(table("Interval fast path (absint)",
                         ["category", "tried", "discharged", "fell through",
                          "rate"], fp_rows))

    store = absint_store(prof["counters"])
    if store:
        lookups = sum(store.values())
        store_rows = [
            (ev, n, f"{100.0 * n / lookups:.0f}%")
            for ev, n in sorted(store.items())
        ]
        out.append(table("Canonical refute store (absint)",
                         ["event", "count", "share of lookups"], store_rows))

    reuse = derivation_memo(prof["counters"])
    if reuse:
        out.append(table("Search-scoped derivation reuse",
                         ["event", "count"], sorted(reuse.items())))

    inc = incremental_recheck(prof["counters"])
    if inc:
        sites = inc.get("reused", 0) + inc.get("rechecked", 0)
        inc_rows = [
            (ev, n, f"{100.0 * n / (sites or 1):.0f}%")
            for ev, n in sorted(inc.items())
        ]
        out.append(table("Incremental re-checking",
                         ["event", "count", "share of sites"], inc_rows))

    parallelism = prof.get("parallelism")
    if parallelism:
        loops = sum(parallelism.values()) or 1
        par_rows = [
            (v, n, f"{100.0 * n / loops:.0f}%")
            for v, n in sorted(parallelism.items(), key=lambda kv: -kv[1])
        ]
        out.append(table("Parallelism coverage (lint verdicts)",
                         ["verdict", "loops", "share"], par_rows))

    tune = prof.get("autotune")
    if tune:
        out.append(table("Autotuning", ["event", "count"],
                         sorted(tune.items())))

    counters = prof["counters"]
    if counters:
        out.append(table("Counters", ["counter", "value"],
                         sorted(counters.items())))
    return "\n\n".join(out)
