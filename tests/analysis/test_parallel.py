"""The loop-parallelism race detector, ``parallelize``, and the lint.

Covers: acceptance of independent loops, rejection of loop-carried
dependences with a *named* conflicting pair of accesses (plus a concrete
counterexample), config-write sequentialization, the ``parallelize``
directive end-to-end (IR marking, ``par`` surface syntax, OpenMP pragma
emission, journaling), the whole-procedure lint with obs counters, and
interpreter cross-validation on the scheduled paper kernels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.analysis import (
    LintReport,
    check_parallel_loop,
    lint,
)
from repro.analysis import parallel as par_mod
from repro.api import procs_from_source
from repro.core.configs import Config
from repro.core.prelude import SchedulingError
from repro.core import types as T

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, DRAM, f32, i8, size, stride\n"
)


def _proc(body, extra=None):
    return list(procs_from_source(HEADER + body, extra_globals=extra).values())[-1]


class TestCheckParallelLoop:
    def test_independent_loop_accepted(self):
        p = _proc(
            """
@proc
def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] = x[i] + 1.0
"""
        )
        p.parallelize("for i in _: _")  # must not raise

    def test_disjoint_strided_writes_accepted(self):
        p = _proc(
            """
@proc
def f(n: size, x: f32[2 * n] @ DRAM):
    for i in seq(0, n):
        x[2 * i] = 0.0
        x[2 * i + 1] = 1.0
"""
        )
        p.parallelize("for i in _: _")

    def test_racy_accumulator_rejected_with_pair(self):
        p = _proc(
            """
@proc
def f(n: size, x: f32[1] @ DRAM, a: f32[n] @ DRAM):
    for i in seq(0, n):
        x[0] += a[i]
"""
        )
        with pytest.raises(SchedulingError) as exc:
            p.parallelize("for i in _: _")
        msg = str(exc.value)
        assert "not parallelizable" in msg
        assert "conflicting pair on x" in msg
        assert "reduce x[0]" in msg

    def test_counterexample_names_two_iterations(self):
        p = _proc(
            """
@proc
def f(n: size, x: f32[1] @ DRAM, a: f32[n] @ DRAM):
    for i in seq(0, n):
        x[0] += a[i]
"""
        )
        with pytest.raises(SchedulingError) as exc:
            p.parallelize("for i in _: _")
        assert "counterexample: iterations" in str(exc.value)

    def test_write_write_race_rejected(self):
        p = _proc(
            """
@proc
def f(n: size, x: f32[n + 1] @ DRAM):
    for i in seq(0, n):
        x[i] = 0.0
        x[i + 1] = 1.0
"""
        )
        with pytest.raises(SchedulingError) as exc:
            p.parallelize("for i in _: _")
        assert "conflicting pair on x" in str(exc.value)

    def test_read_write_race_rejected(self):
        p = _proc(
            """
@proc
def f(n: size, x: f32[n + 1] @ DRAM):
    for i in seq(0, n):
        x[i] = x[i + 1]
"""
        )
        with pytest.raises(SchedulingError) as exc:
            p.parallelize("for i in _: _")
        msg = str(exc.value)
        assert "write x[i]" in msg or "read x[i + 1]" in msg

    def test_shared_reads_are_fine(self):
        p = _proc(
            """
@proc
def f(n: size, x: f32[n] @ DRAM, c: f32[1] @ DRAM):
    for i in seq(0, n):
        x[i] = c[0]
"""
        )
        p.parallelize("for i in _: _")

    def test_loop_local_alloc_is_private(self):
        p = _proc(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        t: f32 @ DRAM
        t = x[i]
        x[i] = t + t
"""
        )
        p.parallelize("for i in _: _")

    def test_config_write_rejected(self):
        cfg = Config("CfgPar", [("v", T.int_t)])
        p = _proc(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        CfgPar.v = 3
        x[i] = 0.0
""",
            extra={"CfgPar": cfg},
        )
        with pytest.raises(SchedulingError) as exc:
            p.parallelize("for i in _: _")
        msg = str(exc.value)
        assert "config field CfgPar_v" in msg
        assert "sequential" in msg

    def test_config_read_accepted(self):
        cfg = Config("CfgParR", [("v", T.int_t)])
        p = _proc(
            """
@proc
def g(n: size, x: f32[n] @ DRAM):
    assert CfgParR.v == 1
    for i in seq(0, n):
        if CfgParR.v == 1:
            x[i] = 0.0
""",
            extra={"CfgParR": cfg},
        )
        p.parallelize("for i in _: _")

    def test_inner_loop_reduction_rejected_outer_ok(self):
        p = _proc(
            """
@proc
def mm(n: size, a: f32[n, n] @ DRAM, b: f32[n, n] @ DRAM,
       c: f32[n, n] @ DRAM):
    for i in seq(0, n):
        for j in seq(0, n):
            for k in seq(0, n):
                c[i, j] += a[i, k] * b[k, j]
"""
        )
        p.parallelize("for i in _: _")
        p.parallelize("for j in _: _")
        with pytest.raises(SchedulingError) as exc:
            p.parallelize("for k in _: _")
        assert "conflicting pair on c" in str(exc.value)

    def test_race_through_inner_loop_rejected(self):
        # (i, j, 2) and (i + 1, j - 1, 0) write the same cell: the race
        # needs the two iterations' inner k to differ
        p = _proc(
            """
@proc
def f(x: f32[4, 4] @ DRAM, w: f32[16] @ DRAM):
    for i in seq(0, 4):
        for j in seq(0, 4):
            for k in seq(0, 3):
                w[i - j + k + 4] = x[i, j]
"""
        )
        for loop in ("for i in _: _", "for j in _: _"):
            with pytest.raises(SchedulingError) as exc:
                p.parallelize(loop)
            assert "conflicting pair on w" in str(exc.value)
        p.parallelize("for k in _: _")

    def test_direct_call_requires_for_loop(self):
        p = _proc(
            """
@proc
def f(x: f32[1] @ DRAM):
    x[0] = 0.0
"""
        )
        with pytest.raises(SchedulingError):
            check_parallel_loop(p._loopir_proc, (("body", 0),))


class TestParallelizeDirective:
    def _simple(self):
        return _proc(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = x[i] * 2.0
"""
        )

    def test_marks_loop_par(self):
        p = self._simple().parallelize("for i in _: _")
        loop = p._loopir_proc.body[0]
        assert loop.kind == "par"
        assert "for i in par(0, n):" in str(p)

    def test_emits_guarded_omp_pragma(self):
        c = self._simple().parallelize("for i in _: _").c_code()
        assert "#ifdef _OPENMP" in c
        assert "#pragma omp parallel for" in c
        assert c.index("#pragma omp parallel for") < c.index("for (int_fast32_t i")

    def test_seq_loop_has_no_pragma(self):
        assert "#pragma omp" not in self._simple().c_code()

    def test_already_par_rejected(self):
        p = self._simple().parallelize("for i in _: _")
        with pytest.raises(SchedulingError):
            p.parallelize("for i in _: _")

    def test_par_survives_later_rewrites(self):
        p = (
            self._simple()
            .parallelize("for i in _: _")
            .rename("f_par")
        )
        assert p._loopir_proc.body[0].kind == "par"

    def test_par_kind_survives_split_of_inner(self):
        p = _proc(
            """
@proc
def f(n: size, x: f32[n, 8] @ DRAM):
    for i in seq(0, n):
        for j in seq(0, 8):
            x[i, j] = 0.0
"""
        )
        p2 = (
            p.parallelize("for i in _: _")
            .split("for j in _: _", 4, "jo", "ji", tail="perfect")
        )
        assert p2._loopir_proc.body[0].kind == "par"

    def test_interpreter_ignores_par_kind(self):
        p = self._simple()
        q = p.parallelize("for i in _: _")
        x0 = np.arange(8, dtype=np.float32)
        x1 = x0.copy()
        p.interpret(8, x0)
        q.interpret(8, x1)
        np.testing.assert_array_equal(x0, x1)

    def test_journaled_and_replayable(self):
        p = self._simple()
        q = p.parallelize("for i in _: _")
        names = [r.op for r in q.schedule_log()]
        assert names[-1] == "parallelize"
        r = q.replay_schedule(p)
        assert str(r) == str(q)

    def test_user_written_par_round_trips(self):
        p = _proc(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    for i in par(0, n):
        x[i] = 0.0
"""
        )
        assert p._loopir_proc.body[0].kind == "par"
        assert "in par(0, n):" in str(p)
        assert "#pragma omp parallel for" in p.c_code()


class TestLint:
    def _gemm(self):
        return _proc(
            """
@proc
def gemm(n: size, a: f32[n, n] @ DRAM, b: f32[n, n] @ DRAM,
         c: f32[n, n] @ DRAM):
    for i in seq(0, n):
        for j in seq(0, n):
            for k in seq(0, n):
                c[i, j] += a[i, k] * b[k, j]
"""
        )

    def test_gemm_counts(self):
        report = self._gemm().lint()
        assert isinstance(report, LintReport)
        assert report.counts() == {"parallel": 2, "sequential": 1, "unknown": 0}

    def test_report_text(self):
        text = str(self._gemm().lint())
        assert "parallelism lint: gemm" in text
        assert "[  parallel] for i in seq(0, n)" in text
        assert "[sequential]" in text
        assert "conflicting pair on c" in text
        assert "2 parallel, 1 sequential, 0 unknown" in text

    def test_loops_inside_if_branches_are_linted(self):
        p = _proc(
            """
@proc
def f(n: size, x: f32[n] @ DRAM, y: f32[1] @ DRAM):
    if n > 4:
        for i in seq(0, n):
            x[i] = 0.0
    else:
        for j in seq(0, n):
            y[0] += x[j]
"""
        )
        report = p.lint()
        assert report.counts() == {"parallel": 1, "sequential": 1, "unknown": 0}

    def test_counters_recorded(self):
        obs.enable()
        obs.reset()
        try:
            self._gemm().lint()
            counters = obs.TRACER.counter_totals()
            assert counters.get("analysis.lint.parallel") == 2
            assert counters.get("analysis.lint.sequential") == 1
            from repro.obs.report import parallelism_coverage, profile_dict

            assert parallelism_coverage(counters) == {
                "parallel": 2, "sequential": 1,
            }
            assert profile_dict()["parallelism"] == {
                "parallel": 2, "sequential": 1,
            }
        finally:
            obs.disable()
            obs.reset()

    def test_crash_is_reported_as_unknown(self, monkeypatch):
        def boom(*a, **kw):
            raise RuntimeError("detector exploded")

        monkeypatch.setattr(par_mod, "_check_parallel_loop", boom)
        report = self._gemm().lint()
        assert report.counts()["unknown"] == 3
        assert "RuntimeError: detector exploded" in str(report)

    def test_lint_accepts_raw_ir(self):
        p = self._gemm()
        assert lint(p._loopir_proc).counts() == p.lint().counts()


class TestScheduledAppsCrossValidation:
    def test_sgemm_exo_io_loop_parallelizes_and_matches(self):
        from repro.apps.x86_sgemm import sgemm_exo

        p = sgemm_exo(6, 4)
        q = p.parallelize("for io in _: _")
        assert "for io in par(" in str(q)
        assert "#pragma omp parallel for" in q.c_code()

        M, N, K = 12, 128, 17
        rng = np.random.default_rng(3)
        A = (rng.random((M, K)) - 0.5).astype(np.float32)
        B = (rng.random((K, N)) - 0.5).astype(np.float32)
        C0 = np.zeros((M, N), np.float32)
        C1 = np.zeros((M, N), np.float32)
        p.interpret(M, N, K, A, B, C0)
        q.interpret(M, N, K, A, B, C1)
        np.testing.assert_array_equal(C0, C1)

    def test_gemmini_matmul_io_loop_parallelizes_and_matches(self):
        from repro.apps.gemmini_matmul import matmul_exo

        p = matmul_exo()
        q = p.parallelize("for io in _: _")
        assert "for io in par(" in str(q)

        N = M = K = 32
        rng = np.random.default_rng(4)
        A = rng.integers(0, 3, (N, K)).astype(np.int8)
        B = rng.integers(0, 3, (K, M)).astype(np.int8)
        C0 = np.zeros((N, M), np.int8)
        C1 = np.zeros((N, M), np.int8)
        p.interpret(N, M, K, A, B, C0)
        q.interpret(N, M, K, A, B, C1)
        np.testing.assert_array_equal(C0, C1)

    def test_gemmini_ko_loop_rejected(self):
        from repro.apps.gemmini_matmul import matmul_exo

        with pytest.raises(SchedulingError) as exc:
            matmul_exo().parallelize("for ko in _: _")
        assert "conflicting pair on res" in str(exc.value)
