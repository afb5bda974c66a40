#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

Runs one workload (compile, tune, simulate, native) in this process, on
one thread, against the ``src/repro`` tree of the checkout it is run
from.  It sets the workload up several times on a freshly imported
``repro`` (``setup_s`` is the median), makes the seeded inputs, runs timed
passes for about ``--seconds``, checks every output, and prints a
human-readable summary followed, as its last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it runs one untraced and one traced
pass and reports the per-layer metrics instead.  See README.md.
"""

from __future__ import annotations

import os

# one thread: numpy's BLAS must not start a thread pool of its own
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from statistics import median  # noqa: E402

from layers import end_to_end, per_layer  # noqa: E402
from metrics import Tally, min_samples  # noqa: E402
from probes import Probes, SpanLog  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".bench_build", "perfbench")

#: most set-up repetitions run to collect directive samples for a p90
MAX_SETUP_REPS = 8


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def fresh_import(probes):
    """Import ``repro`` from scratch and wrap its layer entry points."""
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]
    probes.install(
        importlib.import_module("repro.api"),
        importlib.import_module("repro.autotune.space"),
        importlib.import_module("repro.autotune.search"),
    )


def source_digest() -> str:
    """Hash of the program and benchmark sources: determinism records are
    only compared between runs of identical code."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src", "repro"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for fn in sorted(filenames):
                if fn.endswith(".py"):
                    path = os.path.join(dirpath, fn)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def check_determinism(tally, workload: str, seed: int, passes, extra: dict):
    """Every pass of this run, and every earlier run of the same code with
    the same seed, must produce the same determinism record."""
    records = [json.loads(json.dumps(rec, sort_keys=True)) for rec in passes]
    tally.check(
        "determinism across passes",
        lambda: (all(r == records[0] for r in records),
                 f"pass records differ: {records}"),
    )
    record = dict(records[0], **json.loads(json.dumps(extra)))
    path = os.path.join(
        STATE, "determinism",
        f"{workload}-seed{seed}-{source_digest()[:16]}.json",
    )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    earlier = {}
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        diff = sorted(k for k in record.keys() & earlier.keys()
                      if record[k] != earlier[k])
        tally.check(
            "determinism across same-seed runs",
            lambda: (not diff, f"changed since an earlier run: {diff}"),
        )
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(dict(earlier, **record), f, sort_keys=True)
    os.replace(tmp, path)


def set_up(wl, ctx, need: int) -> list:
    """Set the workload up ``wl.setup_reps`` times (more, up to
    MAX_SETUP_REPS, when its set-up directives alone must supply ``need``
    samples); returns the scaled CPU seconds of each repetition."""
    probes, clock = ctx.probes, ctx.clock
    setup_s = []
    reps = wl.setup_reps
    while len(setup_s) < reps:
        clock.reset()
        with ctx.unit():
            fresh_import(probes)
            wl.setup()
        setup_s.append(clock.scaled_s)
        if len(setup_s) == 1 and probes.directive_ms:
            per_rep = len(probes.directive_ms)
            reps = max(reps, min(MAX_SETUP_REPS, math.ceil(need / per_rep)))
    return setup_s


def one_pass(wl, ctx, budget_s: float):
    """One pass: (raw CPU s, scaled CPU s, determinism record)."""
    ctx.layer = {}
    ctx.clock.reset()
    with ctx.probes.span(f"pass.{wl.name}"):
        record = wl.run_pass(budget_s)
    return ctx.clock.raw_s, ctx.clock.scaled_s, record


def timed_passes(wl, ctx, seconds: float, need: int):
    """Untraced passes for about ``seconds``: stop once the next pass
    would overrun by more than half a pass, but not before ``need``
    directive samples exist (when the passes issue directives at all)."""
    probes = ctx.probes
    raw, scaled, records = [], [], []
    start = time.perf_counter()
    while True:
        issued = len(probes.directive_ms)
        r, s, rec = one_pass(wl, ctx, seconds)
        raw.append(r)
        scaled.append(s)
        records.append(rec)
        if wl.budgeted:
            return raw, scaled, records
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(raw)
        sampled = (len(probes.directive_ms) >= need
                   or len(probes.directive_ms) == issued)
        if sampled and elapsed + per_pass / 2 >= seconds:
            return raw, scaled, records


def traced_passes(wl, ctx, obs, seconds: float, trace_id: str):
    """One untraced pass (the workload's figures), then one traced pass;
    returns what :func:`layers.per_layer` and the determinism record
    need from them."""
    probes = ctx.probes
    raw, scaled, rec = one_pass(wl, ctx, seconds / 2)
    # no reference runs between directives: they would land inside the
    # enclosing spans and inflate those layers' self-times
    probes.after_directive = None
    obs.enable()
    obs.reset()
    probes.log = SpanLog(trace_id)
    before = (len(probes.directive_ms), probes.failed_directives)
    _, traced_scaled, traced_rec = one_pass(wl, ctx, seconds / 2)
    obs.disable()
    extra = {
        "smt.prove_calls": obs.STATS.prove_calls,
        "core.checks.incremental_reused":
            obs.TRACER.counter_totals().get("analysis.incremental.reused", 0),
    }
    layer = {
        "before": before,
        "counts": dict(ctx.layer),
        # native passes time no Python units
        "overhead_pct": (100.0 * (traced_scaled - scaled) / scaled
                         if scaled else 0.0),
    }
    return [raw], [scaled], [rec, traced_rec], extra, layer


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src", "repro")
    if not os.path.isdir(src):
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    workdir = os.path.join(STATE, "tmp")
    os.makedirs(workdir, exist_ok=True)
    tempfile.tempdir = workdir  # compile_and_run builds in here

    probes = Probes()
    tally = Tally()
    ctx = Context(args.seed, probes, tally, workdir)
    wl = WORKLOADS[args.workload](ctx)
    need = min_samples(90)  # directive samples for a reportable p90

    setup_s = set_up(wl, ctx, need)
    wl.prepare()
    obs = importlib.import_module("repro.obs")
    if args.trace:
        raw_s, scaled_s, records, extra, layer = traced_passes(
            wl, ctx, obs, args.seconds,
            f"{args.workload}-seed{args.seed}-{os.getpid()}")
    else:
        raw_s, scaled_s, records = timed_passes(wl, ctx, args.seconds, need)
        extra = {}

    probes.recording = False
    wl.check()
    check_determinism(tally, args.workload, args.seed, records, extra)

    work_s = wl.work_s(scaled_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    figures = wl.figures(median(raw_s))
    if args.trace:
        metrics = per_layer(obs, probes, layer["before"], layer["counts"],
                            figures, overhead_pct=layer["overhead_pct"])
        probes.log.write(os.path.join(
            STATE, f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = end_to_end(
            setup_s=median(setup_s),
            work_s=work_s,
            directive_ms=probes.directive_ms,
            gen_c_lines=wl.gen_c_lines,
            peak_rss_mb=peak_rss_mb,
            tally=tally,
        )

    print(f"perfbench {args.workload}: seed {args.seed}, "
          f"{len(setup_s)} set-ups, {len(raw_s)} timed pass(es), "
          f"trace {args.trace}")
    rows = [*figures,
            ("error_rate", tally.error_rate,
             f"({tally.failed} of {tally.attempted} operations failed)")]
    rows += [(name, d["value"], d["unit"])
             for name, d in metrics.as_dict().items()]
    for name, value, unit in rows:
        print(f"  {name:<36} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"  (directive percentiles over {len(probes.directive_ms)} "
              f"samples; metrics in CPU seconds scaled to the reference "
              f"speed, figures in raw CPU seconds, kernels in wall time)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics.as_dict(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
