"""§9 multicore, done honestly: sequential vs OpenMP SGEMM on real hardware.

Where ``bench_sec9_multicore.py`` reproduces the paper's *modeled* scaling
story via the unchecked ``omp_parallel_for_marker`` escape hatch, this
benchmark exercises the checked path end-to-end: the race detector proves
the i-loop of a scalar SGEMM parallel, ``parallelize`` marks it ``par``,
codegen emits ``#pragma omp parallel for``, and the host C toolchain builds
and times both the sequential and the OpenMP binary through
``x86_sim.run_c``, which calls each kernel through a function pointer so
that gcc cannot inline the sequential one into the timing loop.

Correctness is bit-for-bit: parallelizing the i-loop keeps each (i, j)
k-reduction inside one thread, so the OpenMP binary must agree with the
sequential binary AND the Python interpreter down to the last ulp.

Skipped (cleanly) when the host has no C compiler / no OpenMP support.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import DRAM, f32, obs, proc, size
from repro.machine.x86_sim import find_cc, openmp_available, run_c
from repro.reporting import table


@proc
def sgemm_scalar(M: size, N: size, K: size,
                 A: f32[M, K] @ DRAM,
                 B: f32[K, N] @ DRAM,
                 C: f32[M, N] @ DRAM):
    for i in seq(0, M):
        for j in seq(0, N):
            for k in seq(0, K):
                C[i, j] += A[i, k] * B[k, j]


#: timing shape: about 6 ms sequential, so the parallel loop dominates the
#: thread start-up
_TIME_N = 192
#: each binary reports the best of this many timed kernel runs
_TIME_REPS = 7
#: verification shape (checked against the interpreter)
_VERIFY_N = 16
_CORES = os.cpu_count() or 1
_THREADS = max(1, min(4, _CORES))


def _procs():
    return sgemm_scalar, sgemm_scalar.parallelize("for i in _: _")


def _inputs(n, seed):
    rng = np.random.default_rng(seed)
    A = (rng.random((n, n)) - 0.5).astype(np.float32)
    B = (rng.random((n, n)) - 0.5).astype(np.float32)
    return A, B, np.zeros((n, n), np.float32)


def _run(proc_obj, openmp: bool, n: int, seed: int, reps: int = 1):
    """Run ``proc_obj``'s C on seeded n x n inputs with ``run_c``: (best
    milliseconds over ``reps`` runs, C)."""
    A, B, C = _inputs(n, seed)
    s = run_c(proc_obj, n, n, n, A, B, C, reps=reps, openmp=openmp,
              threads=_THREADS if openmp else None)
    return s * 1e3, C


@pytest.mark.skipif(find_cc() is None, reason="no C compiler on this host")
def test_omp_sgemm_matches_interpreter_bitwise():
    seq, par = _procs()
    n = _VERIFY_N
    A, B, C_ref = _inputs(n, 9)
    seq.interpret(n, n, n, A, B, C_ref)
    for p, openmp in [(seq, False)] + (
        [(par, True)] if openmp_available() else []
    ):
        _, got = _run(p, openmp, n, 9)
        np.testing.assert_array_equal(
            got, C_ref,
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

    seq_ms, seq_out = _run(seq, False, _TIME_N, 1, _TIME_REPS)
    omp_ms, omp_out = _run(par, True, _TIME_N, 1, _TIME_REPS)
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
