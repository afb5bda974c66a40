"""§9 multicore, done honestly: sequential vs OpenMP SGEMM on real hardware.

Where ``bench_sec9_multicore.py`` reproduces the paper's *modeled* scaling
story via the unchecked ``omp_parallel_for_marker`` escape hatch, this
benchmark exercises the checked path end-to-end: the race detector proves
the i-loop of a scalar SGEMM parallel, ``parallelize`` marks it ``par``,
codegen emits ``#pragma omp parallel for``, and the host C toolchain builds
and times both the sequential and the OpenMP binary.

Correctness is bit-for-bit: parallelizing the i-loop keeps each (i, j)
k-reduction inside one thread, so the OpenMP binary must agree with the
sequential binary AND the Python interpreter down to the last ulp.

Skipped (cleanly) when the host has no C compiler / no OpenMP support.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import obs
from repro.api import procs_from_source
from repro.machine.x86_sim import compile_and_run, find_cc, openmp_available
from repro.reporting import table

_SRC = """
from __future__ import annotations
from repro import proc, DRAM, f32, size

@proc
def sgemm_scalar(M: size, N: size, K: size,
                 A: f32[M, K] @ DRAM,
                 B: f32[K, N] @ DRAM,
                 C: f32[M, N] @ DRAM):
    for i in seq(0, M):
        for j in seq(0, N):
            for k in seq(0, K):
                C[i, j] += A[i, k] * B[k, j]
"""

#: timing shape (LCG-generated data inside the C program): about 6 ms
#: sequential, so the parallel loop dominates the thread start-up
_TIME_N = 192
#: each binary reports the best of this many timed kernel runs
_TIME_REPS = 7
#: verification shape (literal data, checked against the interpreter)
_VERIFY_N = 16
_CORES = os.cpu_count() or 1
_THREADS = max(1, min(4, _CORES))


def _procs():
    p = list(procs_from_source(_SRC).values())[-1]
    return p, p.parallelize("for i in _: _")


def _main_timed(kernel_name: str, n: int, reps: int) -> str:
    """A C main that LCG-fills A/B, runs the kernel ``reps`` times on a
    zeroed C, and prints the best wall time plus every output element of
    the last run as exact hex floats.

    The kernel is called through a volatile function pointer. Called
    directly, gcc inlines the sequential kernel into ``main``, where the
    sizes are constants and A/B/C distinct arrays, and vectorizes it
    across ``j``; the OpenMP kernel is outlined and cannot be. The two
    binaries would then time different code."""
    return f"""
#include <stdio.h>
#include <stdlib.h>
#include <time.h>

static float A[{n} * {n}], B[{n} * {n}], C[{n} * {n}];

int main(void) {{
    unsigned s = 1u;
    for (int i = 0; i < {n} * {n}; i++) {{
        s = s * 1664525u + 1013904223u;
        A[i] = (float)(s >> 16) / 65536.0f - 0.5f;
        s = s * 1664525u + 1013904223u;
        B[i] = (float)(s >> 16) / 65536.0f - 0.5f;
    }}
    void (*volatile kernel)(int_fast32_t, int_fast32_t, int_fast32_t,
                            float *, float *, float *) = {kernel_name};
    double best = 1e30;
    for (int r = 0; r < {reps}; r++) {{
        for (int i = 0; i < {n} * {n}; i++) C[i] = 0.0f;
        struct timespec t0, t1;
        clock_gettime(CLOCK_MONOTONIC, &t0);
        kernel({n}, {n}, {n}, A, B, C);
        clock_gettime(CLOCK_MONOTONIC, &t1);
        double ms = (t1.tv_sec - t0.tv_sec) * 1e3
                    + (t1.tv_nsec - t0.tv_nsec) / 1e6;
        if (ms < best) best = ms;
    }}
    printf("%.3f\\n", best);
    for (int i = 0; i < {n} * {n}; i++) printf("%a\\n", (double)C[i]);
    return 0;
}}
"""


def _run_timed(proc_obj, openmp: bool):
    src = proc_obj.c_code() + _main_timed(proc_obj.name(), _TIME_N,
                                          _TIME_REPS)
    out = compile_and_run(
        src, openmp=openmp, threads=_THREADS if openmp else None,
        extra_flags=("-D_POSIX_C_SOURCE=199309L",),
    ).split()
    ms = float(out[0])
    vals = np.array([float.fromhex(t) for t in out[1:]], np.float64)
    return ms, vals.astype(np.float32)


@pytest.mark.skipif(find_cc() is None, reason="no C compiler on this host")
def test_omp_sgemm_matches_interpreter_bitwise():
    seq, par = _procs()
    n = _VERIFY_N
    rng = np.random.default_rng(9)
    A = (rng.random((n, n)) - 0.5).astype(np.float32)
    B = (rng.random((n, n)) - 0.5).astype(np.float32)
    C_ref = np.zeros((n, n), np.float32)
    seq.interpret(n, n, n, A, B, C_ref)

    def lit(arr):
        return ",".join(f"{v:.9g}f" for v in arr.ravel())

    for p, openmp in [(seq, False)] + (
        [(par, True)] if openmp_available() else []
    ):
        src = (
            "#include <stdio.h>\n"
            + p.c_code()
            + f"static float A[]={{{lit(A)}}};\n"
            + f"static float B[]={{{lit(B)}}};\n"
            + f"static float C[{n * n}];\n"
            + "int main(void){\n"
            + f"  {p.name()}({n}, {n}, {n}, A, B, C);\n"
            + f"  for (int i = 0; i < {n * n}; i++) "
            + 'printf("%a\\n", (double)C[i]);\n'
            + "  return 0; }\n"
        )
        out = compile_and_run(src, openmp=openmp,
                              threads=_THREADS if openmp else None)
        got = np.array([float.fromhex(t) for t in out.split()], np.float64)
        np.testing.assert_array_equal(
            got.astype(np.float32).reshape(n, n), C_ref,
            err_msg=f"{p.name()} (openmp={openmp}) diverged from interpreter",
        )


@pytest.mark.skipif(not openmp_available(),
                    reason="no OpenMP-capable compiler on this host")
def test_omp_sgemm_speedup_report(capsys):
    seq, par = _procs()
    assert "#pragma omp parallel for" in par.c_code()

    # record parallelism coverage in BENCH_obs.json: i and j are provably
    # parallel, the k-reduction is sequential
    report = seq.lint()
    assert report.counts() == {"parallel": 2, "sequential": 1, "unknown": 0}

    seq_ms, seq_out = _run_timed(seq, openmp=False)
    omp_ms, omp_out = _run_timed(par, openmp=True)
    # i-loop parallelism keeps every k-reduction in one thread: bit-for-bit
    np.testing.assert_array_equal(seq_out, omp_out)

    speedup = seq_ms / omp_ms if omp_ms > 0 else float("inf")
    with capsys.disabled():
        print()
        print(table(
            f"Sec 9: scalar SGEMM {_TIME_N}^3, checked parallelize + OpenMP "
            f"({_THREADS} threads)",
            ["variant", "ms", "speedup"],
            [("sequential", f"{seq_ms:.1f}", "1.00x"),
             ("omp parallel for", f"{omp_ms:.1f}", f"{speedup:.2f}x")],
        ))

    obs.incr("bench.omp.sgemm.seq_us", int(seq_ms * 1000))
    obs.incr("bench.omp.sgemm.omp_us", int(omp_ms * 1000))
    obs.incr("bench.omp.sgemm.threads", _THREADS)
    obs.incr("bench.omp.sgemm.speedup_x100", int(speedup * 100))

    # on a multi-core host the parallel binary should at least break even;
    # on a single-core host only require the OpenMP runtime overhead to
    # stay bounded
    assert speedup > (0.9 if _CORES >= 2 else 0.5)
