"""Trace extraction: events, memory regions, and count validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine.trace import Region, Tracer, count_by_name, trace_kernel


class TestRegions:
    def test_region_of_contiguous(self):
        from repro.machine.trace import _region_of

        a = np.zeros((8, 8), dtype=np.float32)
        r = _region_of(a[2:4, :], "dram")
        assert r.lo == 2 * 8 * 4
        assert r.hi == 4 * 8 * 4
        assert r.bytes == 2 * 8 * 4

    def test_region_of_strided_tile(self):
        from repro.machine.trace import _region_of

        a = np.zeros((8, 8), dtype=np.float32)
        r = _region_of(a[0:4, 0:4], "dram")
        assert r.pitch == 8 * 4
        assert r.col_lo == 0 and r.col_hi == 16

    def test_column_tiles_disjoint(self):
        from repro.machine.trace import _region_of

        a = np.zeros((8, 8), dtype=np.float32)
        left = _region_of(a[0:8, 0:4], "dram")
        right = _region_of(a[0:8, 4:8], "dram")
        assert not left.overlaps(right)
        assert left.overlaps(_region_of(a[0:8, 3:5], "dram"))

    def test_row_tiles_disjoint(self):
        from repro.machine.trace import _region_of

        a = np.zeros((8, 8), dtype=np.float32)
        top = _region_of(a[0:4, :], "dram")
        bot = _region_of(a[4:8, :], "dram")
        assert not top.overlaps(bot)

    def test_different_arrays_disjoint(self):
        from repro.machine.trace import _region_of

        a = np.zeros(16, dtype=np.float32)
        b = np.zeros(16, dtype=np.float32)
        assert not _region_of(a, "dram").overlaps(_region_of(b, "dram"))


class TestTracing:
    def test_gemmini_event_counts(self):
        from repro.apps.gemmini_matmul import matmul_oldlib

        p = matmul_oldlib()
        N = M = K = 32
        ev = trace_kernel(
            p, N, M, K,
            np.zeros((N, K), np.int8), np.zeros((K, M), np.int8),
            np.zeros((N, M), np.int8),
        )
        counts = count_by_name(ev)
        tiles = (N // 16) * (M // 16)
        assert counts["zero_acc_i32"] == tiles
        assert counts["ld_i8"] == tiles * (K // 16)
        assert counts["matmul_acc_i8"] == tiles * (K // 16)
        assert counts["st_acc_i8_noact"] == tiles

    def test_functional_mode_computes(self):
        from repro.apps.gemmini_matmul import matmul_exo

        p = matmul_exo()
        N = M = K = 16
        rng = np.random.default_rng(0)
        A = rng.integers(0, 3, (N, K)).astype(np.int8)
        B = rng.integers(0, 3, (K, M)).astype(np.int8)
        C = np.zeros((N, M), np.int8)
        tracer = Tracer(functional=True)
        tracer.run(p, N, M, K, A, B, C)
        ref = (A.astype(np.int32) @ B.astype(np.int32)).astype(np.int8)
        np.testing.assert_array_equal(C, ref)
        assert tracer.events

    def test_timing_mode_skips_bodies(self):
        from repro.apps.gemmini_matmul import matmul_exo

        p = matmul_exo()
        N = M = K = 16
        A = np.ones((N, K), np.int8)
        B = np.ones((K, M), np.int8)
        C = np.zeros((N, M), np.int8)
        trace_kernel(p, N, M, K, A, B, C)
        assert C.sum() == 0  # bodies skipped: no data movement


class TestCountValidation:
    def test_sgemm_counts_match_model(self):
        """The instruction counts ``sgemm_cost`` prices (the model behind
        every Fig. 5a/5b point) must agree exactly with a real trace of
        the scheduled kernel."""
        from repro.apps.x86_sgemm import sgemm_exo
        from repro.machine.x86_sim import DEFAULT, sgemm_cost

        M, N, K = 12, 128, 8
        mr, nv = 6, 4
        p = sgemm_exo(mr, nv)
        ev = trace_kernel(
            p, M, N, K,
            np.zeros((M, K), np.float32), np.zeros((K, N), np.float32),
            np.zeros((M, N), np.float32),
        )
        got = count_by_name(ev)
        cost = sgemm_cost(M, N, K, mr, nv)
        assert cost.fma_cycles * DEFAULT.fma_ports \
            == got["mm512_fmadd_bcast_ps"] == 768
        assert cost.store_cycles * DEFAULT.store_ports \
            == got["mm512_storeu_ps"] == 96
        # the model's loads are the C tile's plus, per micro-kernel call
        # and k step, one A broadcast per row and one B vector per lane
        # group, which the trace folds into mm512_fmadd_bcast_ps
        calls = (M // mr) * (N // (16 * nv))
        ctile_loads = (cost.load_cycles * DEFAULT.load_ports
                       - calls * K * (mr + nv))
        assert ctile_loads == got["mm512_loadu_ps"] == 96
