"""Assemble the end-to-end and per-layer metric sets.

The names and units here are the ones BENCHMARK.json declares (a
self-test keeps the two in step).  README.md says which end-to-end
metric each per-layer metric should move, and on which workload.
"""

from __future__ import annotations

from metrics import MetricSet, Tally, percentile

#: (name, unit) of every end-to-end metric, reported by every workload
END_TO_END = (
    ("setup_s", "s"),
    ("work_s", "s"),
    ("directive_p50_ms", "ms"),
    ("directive_p90_ms", "ms"),
    ("gen_c_lines", "lines"),
    ("peak_rss_mb", "MB"),
    ("success_pct", "%"),
)

#: repro.obs span whose self-time each per-layer time metric reads
_OBS_SELF_S = {
    "frontend.parse_s": "parse.function",
    "core.typecheck_s": "typecheck.proc",
    "core.checks.bounds_s": "effects.bounds_check",
    "core.checks.assert_s": "effects.assert_check",
    "effects.context_s": "effects.context",
    "effects.commutes_s": "effects.commutes",
    "effects.shadows_s": "effects.shadows",
    "analysis.absint_s": "analysis.absint",
    "smt.prove_s": "smt.prove",
}

#: (name, unit) of every per-layer metric, reported by every traced run
PER_LAYER = (
    ("frontend.parse_s", "s"),
    ("core.typecheck_s", "s"),
    ("core.checks.bounds_s", "s"),
    ("core.checks.assert_s", "s"),
    ("core.checks.incremental_reused", "count"),
    ("core.checks.incremental_rechecked", "count"),
    ("core.checks.incremental_fallback", "count"),
    ("core.checks.reuse_ratio", "ratio"),
    ("effects.context_s", "s"),
    ("effects.commutes_s", "s"),
    ("effects.shadows_s", "s"),
    ("analysis.absint.tried", "count"),
    ("analysis.absint.discharged", "count"),
    ("analysis.absint.discharge_ratio", "ratio"),
    ("analysis.absint_s", "s"),
    ("smt.prove_calls", "count"),
    ("smt.cache_hit_ratio", "ratio"),
    ("smt.prove_s", "s"),
    ("smt.timeouts", "count"),
    ("scheduling.directives", "count"),
    ("scheduling.directive_s", "s"),
    ("scheduling.self_s", "s"),
    ("scheduling.failed_directives", "count"),
    ("core.cgen.emit_s", "s"),
    ("core.cgen.c_lines", "lines"),
    ("machine.trace_s", "s"),
    ("machine.trace_events", "count"),
    ("machine.events_per_s", "1/s"),
    ("machine.sim_s", "s"),
    ("machine.sim_cycles", "cycles"),
    ("machine.util_pct", "%"),
    ("machine.cc_build_s", "s"),
    ("machine.native_run_s", "s"),
    ("machine.sgemm_gflops", "GFLOP/s"),
    ("machine.conv_gflops", "GFLOP/s"),
    ("autotune.candidates", "count"),
    ("autotune.pruned", "count"),
    ("autotune.prune_ratio", "ratio"),
    ("autotune.build_s", "s"),
    ("autotune.cost_s", "s"),
    ("autotune.cost_cache_hit_ratio", "ratio"),
    ("autotune.candidates_per_s", "1/s"),
    ("autotune.winner_cycles", "cycles"),
    ("obs.tracing_overhead_pct", "%"),
)

#: workload figures that double as per-layer results (0 on other workloads)
_FIGURE_LAYER = {
    "util_pct": "machine.util_pct",
    "sgemm_gflops": "machine.sgemm_gflops",
    "conv_gflops": "machine.conv_gflops",
    "candidates_per_s": "autotune.candidates_per_s",
    "winner_cycles": "autotune.winner_cycles",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(*, setup_s, work_s, directive_ms, gen_c_lines, peak_rss_mb,
               tally: Tally) -> MetricSet:
    p50 = percentile(directive_ms, 50)
    p90 = percentile(directive_ms, 90)
    if p50 is None or p90 is None:
        raise RuntimeError(
            f"only {len(directive_ms)} directive samples: too few for p90")
    values = {
        "setup_s": setup_s,
        "work_s": work_s,
        "directive_p50_ms": p50.value,
        "directive_p90_ms": p90.value,
        "gen_c_lines": gen_c_lines,
        "peak_rss_mb": peak_rss_mb,
        "success_pct": 100.0 * (1.0 - tally.error_rate),
    }
    out = MetricSet()
    for name, unit in END_TO_END:
        out.add(name, values[name], unit)
    return out


def per_layer(obs, probes, before, layer_counts, figures, *,
              overhead_pct) -> MetricSet:
    """Per-layer metrics of the traced pass.

    ``before`` is (directive samples, failed directives) when the traced
    pass began; ``layer_counts`` are the benchmark's own counters of that
    pass; ``figures`` the workload's named figures."""
    spans = obs.TRACER.span_totals()  # name -> (count, total_s, self_s)
    counters = obs.TRACER.counter_totals()
    bench = probes.log.totals()  # name -> [count, total_s, self_s]
    smt = obs.STATS

    def obs_self(span):
        return spans.get(span, (0, 0.0, 0.0))[2]

    def bench_total(span):
        return bench.get(span, (0, 0.0, 0.0))[1]

    def ctr(name):
        return counters.get(name, 0)

    v = {name: obs_self(span) for name, span in _OBS_SELF_S.items()}
    reused = ctr("analysis.incremental.reused")
    rechecked = ctr("analysis.incremental.rechecked")
    tried = ctr("analysis.absint.tried")
    discharged = ctr("analysis.absint.discharged")
    generated = ctr("autotune.candidates_generated")
    pruned = ctr("autotune.candidates_pruned")
    cost_hits = ctr("autotune.cost_cache_hits")
    cost_misses = ctr("autotune.cost_cache_misses")
    trace_s = bench_total("machine.trace_kernel")
    events = layer_counts.get("machine.trace_events", 0)
    v.update({
        "core.checks.incremental_reused": reused,
        "core.checks.incremental_rechecked": rechecked,
        "core.checks.incremental_fallback": ctr("analysis.incremental.fallback"),
        "core.checks.reuse_ratio": _ratio(reused, reused + rechecked),
        "analysis.absint.tried": tried,
        "analysis.absint.discharged": discharged,
        "analysis.absint.discharge_ratio": _ratio(discharged, tried),
        "smt.prove_calls": smt.prove_calls,
        "smt.cache_hit_ratio": _ratio(smt.cache_hits, smt.prove_calls),
        "smt.timeouts": smt.timeouts,
        "scheduling.directives": len(probes.directive_ms) - before[0],
        "scheduling.directive_s": bench_total("scheduling.directive"),
        "scheduling.self_s": obs.phase_totals()["sched"],
        "scheduling.failed_directives": probes.failed_directives - before[1],
        "core.cgen.emit_s": bench_total("core.cgen.c_code"),
        "core.cgen.c_lines": layer_counts.get("core.cgen.c_lines", 0),
        "machine.trace_s": trace_s,
        "machine.trace_events": events,
        "machine.events_per_s": _ratio(events, trace_s),
        "machine.sim_s": bench_total("machine.gemmini_sim.run"),
        "machine.sim_cycles": layer_counts.get("machine.sim_cycles", 0),
        "machine.cc_build_s": layer_counts.get("machine.cc_build_s", 0),
        "machine.native_run_s": layer_counts.get("machine.native_run_s", 0),
        "autotune.candidates": generated,
        "autotune.pruned": pruned,
        "autotune.prune_ratio": _ratio(pruned, generated),
        "autotune.build_s": bench_total("autotune.build_candidate"),
        "autotune.cost_s": bench_total("autotune.cost_of"),
        "autotune.cost_cache_hit_ratio":
            _ratio(cost_hits, cost_hits + cost_misses),
        "obs.tracing_overhead_pct": overhead_pct,
    })
    for name in _FIGURE_LAYER.values():
        v[name] = 0.0
    for name, value, _unit in figures:
        if name in _FIGURE_LAYER:
            v[_FIGURE_LAYER[name]] = value
    out = MetricSet()
    for name, unit in PER_LAYER:
        out.add(name, v[name], unit)
    return out
