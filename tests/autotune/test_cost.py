"""Unit tests for the analytical cost model (autotune/cost.py)."""

from __future__ import annotations

import pytest

from repro import DRAM, f32, obs, size
from repro.api import procs_from_source
from repro.autotune import (
    GEMMINI_MODEL,
    X86_MODEL,
    cost_of,
    model_by_name,
)
from repro.autotune.cost import clear_cost_cache

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, DRAM, f32, i8, i32, size\n"
)


def _p(body):
    return list(procs_from_source(HEADER + body).values())[-1]


@pytest.fixture(autouse=True)
def _clean_obs():
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    clear_cost_cache()
    yield
    obs.reset()
    clear_cost_cache()
    if not was_enabled:
        obs.disable()


@pytest.fixture
def axpy():
    return _p(
        """
@proc
def axpy(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] += 2.0 * x[i]
"""
    )


class TestCounts:
    def test_flops_and_trips(self, axpy):
        c = cost_of(axpy, {"n": 100})
        # y[i] += 2.0 * x[i]  ->  one mul + one add per iteration
        assert c.flops == 200
        assert c.loop_iters == 100
        assert c.exact

    def test_traffic_by_memory_class(self, axpy):
        c = cost_of(axpy, {"n": 100})
        # per iter: read x (4B), read-modify-write y (4B + 4B)
        assert c.traffic == {"DRAM": 100 * 12.0}

    def test_unknown_trip_count_is_inexact(self, axpy):
        c = cost_of(axpy)  # n unbound: trip count falls back to 1
        assert not c.exact
        assert c.flops == 2

    def test_split_preserves_flops(self, axpy):
        tiled = axpy.split("for i in _: _", 4, "io", "ii", tail="cut")
        a = cost_of(axpy, {"n": 128})
        b = cost_of(tiled, {"n": 128})
        assert a.flops == b.flops == 2 * 128
        assert a.traffic == b.traffic

    def test_cycles_monotone_in_size(self, axpy):
        assert (
            cost_of(axpy, {"n": 1000}).cycles
            > cost_of(axpy, {"n": 10}).cycles
            > 0
        )


class TestPreconditions:
    @pytest.fixture
    def scale4(self):
        return _p(
            """
@proc
def scale4(n: size, x: f32[n] @ DRAM):
    assert n >= 4 and n % 4 == 0
    for i in seq(0, n):
        x[i] = 2.0 * x[i]
"""
        )

    def test_false_precondition_raises(self, scale4):
        assert cost_of(scale4, {"n": 8}).flops == 8
        for n in (6, 0):
            with pytest.raises(ValueError, match="n >= 4 and n % 4 == 0"):
                cost_of(scale4, {"n": n})

    def test_unevaluable_precondition_is_not_checked(self, scale4):
        assert not cost_of(scale4).exact  # n unbound

    def test_sgemm_off_its_divisible_sizes_raises(self):
        from repro.apps.x86_sgemm import sgemm_exo

        with pytest.raises(ValueError, match="N % 64 == 0"):
            cost_of(sgemm_exo(), {"M": 96, "N": 96, "K": 96})


class TestCache:
    def test_memoized_with_counters(self, axpy):
        cost_of(axpy, {"n": 64})
        c2 = cost_of(axpy, {"n": 64})
        totals = obs.trace.TRACER.counter_totals()
        assert totals["autotune.cost_cache_misses"] == 1
        assert totals["autotune.cost_cache_hits"] == 1
        assert c2.flops == 128

    def test_distinct_sizes_not_conflated(self, axpy):
        assert cost_of(axpy, {"n": 8}).flops != cost_of(axpy, {"n": 16}).flops

    def test_callee_bodies_not_conflated(self):
        ps = procs_from_source(HEADER + """
@proc
def f(x: f32[16] @ DRAM):
    for i in seq(0, 16):
        x[i] = 0.0

@proc
def g(x: f32[16] @ DRAM):
    f(x)
""")
        f, g = ps["f"], ps["g"]
        g2 = g.call_eqv(
            f.split("for i in _: _", 4, "io", "ii", tail="perfect"), "f(_)")
        assert str(g) == str(g2)  # the text omits the callee's body
        fresh = cost_of(g2).cycles
        clear_cost_cache()
        assert cost_of(g).cycles != fresh
        assert cost_of(g2).cycles == fresh


class TestModels:
    def test_model_registry(self):
        assert model_by_name("x86") is X86_MODEL
        assert model_by_name("gemmini") is GEMMINI_MODEL
        with pytest.raises(ValueError):
            model_by_name("tpu")

    def test_vectorized_sgemm_models_faster(self):
        """Within the SGEMM space, the vectorized candidate must model
        faster than the identically-tiled scalar one (same flops, but the
        micro-kernel earns the AVX-512 throughput credit)."""
        from repro.apps.x86_sgemm import build_sgemm_candidate, sgemm_tune_base

        base = sgemm_tune_base(192, 192, 64)
        scalar = cost_of(build_sgemm_candidate(base, 6, 4, False))
        vec = cost_of(build_sgemm_candidate(base, 6, 4, True))
        assert vec.cycles < scalar.cycles
        assert vec.instr_flops > 0 and scalar.instr_flops == 0

    def test_gemmini_config_writes_dominate_oldlib(self):
        """The Fig-4a effect: fused config+mvin re-writes config state on
        every DMA transfer; the hoisted schedule writes it O(1) times.
        The model must charge the pipeline flushes accordingly."""
        from repro.apps.gemmini_matmul import matmul_exo, matmul_oldlib

        sizes = {"N": 128, "M": 128, "K": 128}
        exo = cost_of(matmul_exo(), sizes, GEMMINI_MODEL)
        old = cost_of(matmul_oldlib(), sizes, GEMMINI_MODEL)
        assert exo.config_writes < old.config_writes
        assert exo.cycles < old.cycles
        assert exo.flops == old.flops
