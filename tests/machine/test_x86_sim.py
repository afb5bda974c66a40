"""x86 cost model sanity (monotonicity, regimes, baseline relationships)
and native runs of generated C."""

from __future__ import annotations

import subprocess

import numpy as np
import pytest

from repro import DRAM, f32, proc, size
from repro.core.interp import InterpError
from repro.machine.baselines import (
    halide_conv_pct_peak,
    mkl_sgemm_gflops,
    onednn_conv_pct_peak,
    openblas_sgemm_gflops,
)
from repro.machine.x86_sim import (DEFAULT, X86Params, compile_and_run,
                                   conv_cost, find_cc, host_avx512,
                                   openmp_available, run_c, sgemm_cost)


class TestSgemmModel:
    def test_peak(self):
        assert DEFAULT.peak_gflops == pytest.approx(137.6)

    def test_never_exceeds_peak(self):
        for n in (64, 256, 1024, 2048):
            assert sgemm_cost(n, n, n).gflops() <= DEFAULT.peak_gflops

    def test_large_square_near_peak(self):
        g = sgemm_cost(1024, 1024, 1024).gflops()
        assert g > 0.75 * DEFAULT.peak_gflops

    def test_flops_exact(self):
        c = sgemm_cost(128, 128, 128)
        assert c.flops == 2 * 128**3

    def test_small_sizes_slower(self):
        assert sgemm_cost(48, 48, 48).gflops() < sgemm_cost(768, 768, 768).gflops()

    def test_l3_spill_traffic_grows(self):
        # at 2560^3, B no longer fits in L3 and is re-streamed from DRAM:
        # memory cycles grow super-linearly even though the kernel stays
        # compute-bound (performance plateaus rather than improving)
        c_mid = sgemm_cost(1024, 1024, 1024)
        c_big = sgemm_cost(2560, 2560, 2560)
        assert c_big.mem_cycles / c_mid.mem_cycles > (2560 / 1024) ** 3 * 0.8
        assert c_big.gflops() <= c_mid.gflops() * 1.02

    def test_edge_tiles_cost(self):
        # 65 columns needs a masked tail pass over a second column block
        g_full = sgemm_cost(768, 768, 512).gflops()
        g_edge = sgemm_cost(768, 769, 512).gflops()
        assert g_edge < g_full

    def test_cycles_positive_tiny(self):
        c = sgemm_cost(1, 1, 1)
        assert c.cycles > 0 and c.gflops() > 0


class TestBaselines:
    def test_mkl_at_least_exo_everywhere(self):
        # MKL picks the best tile under the same model, so it can never be
        # slower than the fixed-tile model minus its overhead advantage
        for m, n in ((512, 512), (16, 16384), (16384, 16)):
            assert mkl_sgemm_gflops(m, n, 512) >= 0.95 * sgemm_cost(m, n, 512).gflops()

    def test_openblas_close_to_exo_on_square(self):
        ge = sgemm_cost(1024, 1024, 1024).gflops()
        go = openblas_sgemm_gflops(1024, 1024, 1024)
        assert abs(ge - go) / ge < 0.1

    def test_conv_baselines_cluster(self):
        exo = conv_cost(5, 102, 82, 128, 128).pct_peak()
        hal = halide_conv_pct_peak(5, 102, 82, 128, 128)
        dnn = onednn_conv_pct_peak(5, 102, 82, 128, 128)
        assert abs(hal - exo) < 0.5
        assert abs(dnn - exo) < 0.5


class TestConvModel:
    def test_forty_percent_regime(self):
        pct = conv_cost(5, 102, 82, 128, 128).pct_peak()
        assert 35.0 < pct < 50.0

    def test_thread_scaling(self):
        c1 = conv_cost(5, 102, 82, 128, 128, threads=1)
        c8 = conv_cost(5, 102, 82, 128, 128, threads=8)
        speedup = c1.cycles / c8.cycles
        assert 6.0 < speedup <= 8.0

    def test_flop_count(self):
        c = conv_cost(1, 10, 10, 16, 32)  # OC = one full register tile
        # 8x8 outputs, 3*3*16 reduction, 32 channels
        assert c.flops == 2 * (8 * 8) * (3 * 3 * 16) * 32

    def test_more_channels_more_cycles(self):
        a = conv_cost(1, 34, 34, 64, 64)
        b = conv_cost(1, 34, 34, 128, 128)
        assert b.cycles > a.cycles


class TestParams:
    def test_custom_params(self):
        slow = X86Params(fma_ports=0.5)
        assert sgemm_cost(512, 512, 512, params=slow).gflops(slow) < \
            sgemm_cost(512, 512, 512).gflops()


@proc
def saxpy(n: size, a: f32[n] @ DRAM, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    assert n >= 4
    for i in seq(0, n):
        y[i] += a[i] * x[i]


def _saxpy_inputs(n, seed):
    rng = np.random.default_rng(seed)
    return [(rng.random(n) - 0.5).astype(np.float32) for _ in range(3)]


class TestCompileAndRun:
    """The host C toolchain harness behind the OpenMP benchmarks."""

    def test_find_cc_cached(self):
        assert find_cc() == find_cc()  # cached, possibly None

    @pytest.mark.skipif(find_cc() is None, reason="no C compiler on this host")
    def test_compile_and_run_hello(self):
        src = '#include <stdio.h>\nint main(void){printf("%d\\n", 6*7);return 0;}\n'
        assert compile_and_run(src).strip() == "42"

    @pytest.mark.skipif(find_cc() is None, reason="no C compiler on this host")
    def test_compile_error_raises(self):
        with pytest.raises(RuntimeError):
            compile_and_run("int main(void){ return syntax error }")

    @pytest.mark.skipif(not openmp_available(),
                        reason="no OpenMP-capable compiler on this host")
    def test_openmp_thread_count_respected(self):
        src = (
            "#include <stdio.h>\n"
            "#include <omp.h>\n"
            "int main(void){\n"
            "  int n = 0;\n"
            "  #pragma omp parallel\n"
            "  {\n"
            "  #pragma omp single\n"
            "    n = omp_get_num_threads();\n"
            "  }\n"
            "  printf(\"%d\\n\", n); return 0; }\n"
        )
        out = compile_and_run(src, openmp=True, threads=2)
        assert out.strip() == "2"

    @pytest.mark.skipif(not openmp_available(),
                        reason="no OpenMP-capable compiler on this host")
    def test_par_kernel_matches_interpreter_bitwise(self):
        p = saxpy.parallelize("for i in _: _")
        n = 64
        a, x, y = _saxpy_inputs(n, 11)
        y0 = y.copy()
        p.interpret(n, a, x, y0)
        run_c(p, n, a, x, y, openmp=True, threads=4)
        np.testing.assert_array_equal(y, y0)


class TestRunC:
    """``run_c`` runs a proc's C on the arguments ``interpret()`` takes."""

    def test_violated_assert_raises_before_any_compiler_starts(
            self, monkeypatch):
        started = []
        monkeypatch.setattr(subprocess, "run",
                            lambda *a, **k: started.append(a))
        a, x, y = _saxpy_inputs(2, 0)
        with pytest.raises(InterpError, match="precondition failed"):
            run_c(saxpy, 2, a, x, y)
        assert started == []

    def test_window_formal_is_refused_by_name(self):
        from repro.apps.x86_sgemm import make_microkernel

        _, ukernel = make_microkernel(6, 4)
        with pytest.raises(ValueError, match="window formal A"):
            run_c(ukernel, 1, None, None, None)

    @pytest.mark.skipif(find_cc() is None, reason="no C compiler on this host")
    def test_accumulating_kernel_reps_equal_one_interpreted_run(self):
        a, x, y = _saxpy_inputs(64, 3)
        want = y.copy()
        saxpy.interpret(64, a, x, want)
        secs = run_c(saxpy, 64, a, x, y, reps=3)
        np.testing.assert_array_equal(y, want)
        assert secs >= 0.0

    @pytest.mark.skipif(
        not (host_avx512() and openmp_available()),
        reason="needs an AVX-512 host and an OpenMP-capable C compiler",
    )
    def test_sgemm_and_its_openmp_twin_agree(self):
        from repro.apps.x86_sgemm import sgemm_exo

        seq = sgemm_exo(6, 4)
        par = seq.parallelize("for io in _: _")
        M, N, K = 12, 128, 16
        rng = np.random.default_rng(5)
        A = rng.random((M, K)).astype(np.float32)
        B = rng.random((K, N)).astype(np.float32)
        C0 = rng.random((M, N)).astype(np.float32)
        want = C0.copy()
        seq.interpret(M, N, K, A, B, want)
        got_seq, got_par = C0.copy(), C0.copy()
        run_c(seq, M, N, K, A, B, got_seq)
        run_c(par, M, N, K, A, B, got_par, openmp=True, threads=2)
        np.testing.assert_array_equal(got_seq, got_par)
        np.testing.assert_allclose(got_seq, want, rtol=1e-5, atol=1e-5)
