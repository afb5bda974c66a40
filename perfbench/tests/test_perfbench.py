"""Self-tests of the benchmark's own helpers (no kernel is derived here).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
from metrics import (  # noqa: E402
    MIN_TAIL,
    MetricSet,
    Tally,
    check_name,
    min_samples,
    percentile,
)
from probes import Probes, SpanLog  # noqa: E402
from workloads import WORKLOADS, Context, Simulate  # noqa: E402


# -- percentile helper ---------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(19)), 50) is None
    p = percentile(list(range(20)), 50)
    assert p.samples == 20 and p.value == pytest.approx(9.5, abs=1e-6)
    assert percentile(list(range(99)), 90) is None
    p90 = percentile(list(range(100)), 90)
    assert p90.samples == 100 and 88.5 < p90.value < 90.5
    assert 100 - math.ceil(0.9 * 100) == MIN_TAIL


def test_percentile_estimate_is_smooth_across_a_gap():
    # 109 latencies with a gap at the median: the nearest-rank median
    # jumps from 20 to 28 when one sample crosses the gap; the estimate
    # moves by far less
    low, high = [20.0] * 54, [28.0] * 54
    below = percentile(low + [19.0] + high, 50).value
    above = percentile(low + [29.0] + high, 50).value
    assert 20.0 < below < above < 28.0
    assert above - below < 2.0
    assert percentile([7.0] * 50, 50).value == pytest.approx(7.0)


def test_min_samples_matches_percentile():
    for q in (50, 90, 99):
        n = min_samples(q)
        assert percentile([1.0] * n, q) is not None
        assert percentile([1.0] * (n - 1), q) is None
    assert (min_samples(50), min_samples(90), min_samples(99)) == (20, 100, 1000)


def test_percentile_ignores_order_and_rejects_bad_q():
    data = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
    assert percentile(data, 50).value == percentile(sorted(data), 50).value
    assert percentile(data, 50).value == pytest.approx(3.0)
    with pytest.raises(ValueError):
        percentile(data, 100)


def test_end_to_end_refuses_too_few_directive_samples():
    with pytest.raises(RuntimeError, match="too few"):
        layers.end_to_end(setup_s=1.0, work_s=1.0, directive_ms=[1.0] * 99,
                          gen_c_lines=10, peak_rss_mb=1.0, tally=Tally())


# -- metric names ----------------------------------------------------------------


@pytest.mark.parametrize("name", ["setup_s", "core.checks.bounds_s", "p-9", "9x"])
def test_valid_names(name):
    assert check_name(name) == name


@pytest.mark.parametrize("name", ["", "a b", "a/b", "_x", ".x", "é", "x" * 65])
def test_invalid_names(name):
    with pytest.raises(ValueError):
        check_name(name)


def test_metric_set_rejects_duplicates_and_non_numbers():
    m = MetricSet()
    m.add("a", 1.5, "s")
    with pytest.raises(ValueError):
        m.add("a", 2.0, "s")
    with pytest.raises(ValueError):
        m.add("b", float("nan"), "s")
    with pytest.raises(TypeError):
        m.add("c", True, "count")
    with pytest.raises(ValueError):
        m.add("d", 1.0, "bad unit")
    assert m.as_dict() == {"a": {"value": 1.5, "unit": "s"}}


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        layers.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for name, unit in layers.END_TO_END + layers.PER_LAYER:
        check_name(name)


# -- seed plumbing ---------------------------------------------------------------


def _ctx(seed):
    return Context(seed, Probes(), Tally(), workdir=".")


def test_same_seed_same_inputs():
    a, b = Simulate(_ctx(7)), Simulate(_ctx(7))
    a.prepare()
    b.prepare()
    for (x1, y1), (x2, y2) in zip(a.inputs, b.inputs):
        assert (x1 == x2).all() and (y1 == y2).all()


def test_seed_changes_inputs_and_streams_are_independent():
    a, b = Simulate(_ctx(7)), Simulate(_ctx(8))
    a.prepare()
    b.prepare()
    assert any((x1 != x2).any() for (x1, _), (x2, _) in zip(a.inputs, b.inputs))
    ctx = _ctx(7)
    assert (ctx.rng(1).integers(0, 1 << 30, 8)
            != ctx.rng(2).integers(0, 1 << 30, 8)).any()


def test_command_line_seed_reaches_the_workload(monkeypatch):
    import run

    args = run.parse_args(["--workload", "tune", "--seed", "42",
                           "--seconds", "3", "--trace", "1"])
    assert (args.workload, args.seed, args.seconds, args.trace) == (
        "tune", 42, 3.0, 1)
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "nope", "--seed", "1", "--seconds", "1"])


# -- error_rate accounting -------------------------------------------------------


def test_tally_counts_every_failure(capsys):
    t = Tally()
    assert t.run("ok", lambda: 3) == 3
    assert t.run("raises", lambda: 1 / 0) is None
    t.check("passes", lambda: True)
    t.check("fails", lambda: (False, "wrong answer"))
    t.check("check raises", lambda: [][0])
    assert (t.attempted, t.failed) == (5, 3)
    assert t.error_rate == pytest.approx(3 / 5)
    assert t.failures == ["raises", "fails", "check raises"]
    err = capsys.readouterr().err
    assert "ZeroDivisionError" in err and "wrong answer" in err


def test_success_pct_reflects_error_rate():
    t = Tally()
    for i in range(4):
        t.check(f"gate {i}", lambda i=i: i != 0)
    m = layers.end_to_end(setup_s=1.0, work_s=2.0, directive_ms=[1.0] * 100,
                          gen_c_lines=10, peak_rss_mb=5.0, tally=t)
    assert m.value("success_pct") == pytest.approx(75.0)
    assert Tally().error_rate == 0.0


# -- spans -----------------------------------------------------------------------


def test_span_self_time_excludes_children():
    log = SpanLog("t")
    with log.span("outer"):
        with log.span("inner"):
            sum(range(10000))
    totals = log.totals()
    outer, inner = totals["outer"], totals["inner"]
    assert outer[0] == inner[0] == 1
    assert outer[2] == pytest.approx(outer[1] - inner[1], abs=1e-9)
    assert log.spans[1]["parent"] == 0


# -- the scaled clock ------------------------------------------------------------


def test_clock_scales_time_and_samples_per_segment(monkeypatch):
    import clock

    # a machine running at half the reference speed
    monkeypatch.setattr(clock, "reference_s", lambda: 2 * clock.REFERENCE_S)
    monkeypatch.setattr(clock, "SEGMENT_S", 0.0)
    samples = [1.0]  # recorded before the unit: left alone
    c = clock.Clock(samples)
    with c.unit():
        samples.append(8.0)
        c.tick()  # closes the segment holding 8.0
        samples.append(6.0)
    assert samples == [1.0, 4.0, 3.0]
    assert c.scaled_s == pytest.approx(c.raw_s / 2)
    c.tick()  # outside a unit: nothing to close
    assert samples == [1.0, 4.0, 3.0]


# -- the benchmark without the program -------------------------------------------


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
