"""Scheduling primitives (Fig. 2): rewrite correctness + safety rejection.

Every accepted rewrite is differentially tested against the original on
random inputs; every unsafe rewrite must be rejected by the effect analysis.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SchedulingError
from repro.api import procs_from_source
from repro.core import ast as IR
from repro.core.configs import Config
from repro.core import types as T

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import assert_equiv, rand_f32  # noqa: E402

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, DRAM, f32, i8, i32, size, relu\n"
)


def _p(body, extra=None):
    return list(procs_from_source(HEADER + body, extra_globals=extra).values())[-1]


@pytest.fixture
def gemm():
    return _p(
        """
@proc
def gemm(M: size, N: size, K: size,
         A: f32[M, K] @ DRAM, B: f32[K, N] @ DRAM, C: f32[M, N] @ DRAM):
    assert M % 8 == 0
    assert N % 8 == 0
    for i in seq(0, M):
        for j in seq(0, N):
            for k in seq(0, K):
                C[i, j] += A[i, k] * B[k, j]
"""
    )


def _gemm_args(rng):
    M, N, K = 16, 16, 8
    return [M, N, K, rand_f32(rng, M, K), rand_f32(rng, K, N),
            rand_f32(rng, M, N)]


class TestSplit:
    def test_split_perfect(self, gemm):
        p = gemm.split("for i in _: _", 8, "io", "ii", tail="perfect")
        loops = [s for s in IR.walk_stmts(p.ir().body) if isinstance(s, IR.For)]
        assert str(loops[0].iter) == "io" and str(loops[1].iter) == "ii"
        assert_equiv(gemm, p, _gemm_args)

    def test_split_perfect_requires_divisibility(self, gemm):
        with pytest.raises(SchedulingError):
            gemm.split("for i in _: _", 3, "io", "ii", tail="perfect")

    def test_split_guard(self, gemm):
        p = gemm.split("for k in _: _", 3, "ko", "ki", tail="guard")
        assert_equiv(gemm, p, _gemm_args)
        ifs = [s for s in IR.walk_stmts(p.ir().body) if isinstance(s, IR.If)]
        assert ifs, "guarded split must introduce a guard"

    def test_split_cut(self, gemm):
        p = gemm.split("for k in _: _", 3, "ko", "ki", tail="cut")
        assert_equiv(gemm, p, _gemm_args)

    def test_split_factor_one_rejected(self, gemm):
        with pytest.raises(SchedulingError):
            gemm.split("for i in _: _", 1, "io", "ii")

    def test_split_nonzero_base_rejected(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n + 4] @ DRAM):
    for i in seq(2, n):
        x[i] = 0.0
"""
        )
        with pytest.raises(SchedulingError):
            p.split("for i in _: _", 2, "io", "ii")


class TestReorder:
    def test_reorder_loops(self, gemm):
        p = gemm.reorder("for j in _: _")  # j <-> k
        loops = [s for s in IR.walk_stmts(p.ir().body) if isinstance(s, IR.For)]
        assert [str(l.iter) for l in loops] == ["i", "k", "j"]
        assert_equiv(gemm, p, _gemm_args)

    def test_reorder_requires_perfect_nest(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n, n] @ DRAM):
    for i in seq(0, n):
        x[i, 0] = 1.0
        for j in seq(0, n):
            x[i, j] = 0.0
"""
        )
        with pytest.raises(SchedulingError):
            p.reorder("for i in _: _")

    def test_reorder_rejects_non_rectangular(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n, n] @ DRAM):
    for i in seq(0, n):
        for j in seq(0, i + 1):
            x[i, j] = 0.0
"""
        )
        with pytest.raises(SchedulingError):
            p.reorder("for i in _: _")

    def test_reorder_rejects_dependence(self):
        # x[i] depends on x[i-1] computed with j... construct a loop-carried
        # cross-(i,j) dependence: x[j, i] read, x[i, j] written
        p = _p(
            """
@proc
def f(n: size, x: f32[n, n] @ DRAM):
    for i in seq(0, n):
        for j in seq(0, n):
            x[i, j] = x[j, i] + 1.0
"""
        )
        with pytest.raises(SchedulingError):
            p.reorder("for i in _: _")

    def test_reorder_rejects_dependence_through_inner_loop(self):
        # (i, j, 2) and (i + 1, j - 1, 0) write the same cell of w, in an
        # order the interchange reverses.  Both copies of the effect
        # quantify over the same inner binder k; conflating the two
        # existentials would make the overlap look infeasible.
        p = _p(
            """
@proc
def f(x: f32[4, 4] @ DRAM, w: f32[16] @ DRAM):
    for i in seq(0, 4):
        for j in seq(0, 4):
            for k in seq(0, 3):
                w[i - j + k + 4] = x[i, j]
"""
        )
        with pytest.raises(SchedulingError):
            p.reorder("for i in _: _")


class TestUnroll:
    def test_unroll(self):
        p = _p(
            """
@proc
def f(x: f32[4] @ DRAM):
    for i in seq(0, 4):
        x[i] = 1.0
"""
        )
        q = p.unroll("for i in _: _")
        assigns = [s for s in IR.walk_stmts(q.ir().body) if isinstance(s, IR.Assign)]
        assert len(assigns) == 4
        assert_equiv(p, q, lambda rng: [rand_f32(rng, 4)])

    def test_unroll_symbolic_rejected(self, gemm):
        with pytest.raises(SchedulingError):
            gemm.unroll("for i in _: _")


class TestFission:
    def test_fission_after(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = 1.0
        y[i] = 2.0
"""
        )
        q = p.fission_after("x[_] = 1.0")
        loops = [s for s in q.ir().body if isinstance(s, IR.For)]
        assert len(loops) == 2
        assert_equiv(p, q, lambda rng: [8, rand_f32(rng, 8), rand_f32(rng, 8)])

    def test_fission_forward_read_ok(self):
        # s2@i reads x[i], written by s1@(i-1); fission keeps every such
        # write before the read, so this is (correctly) accepted
        p = _p(
            """
@proc
def f(n: size, x: f32[n + 1] @ DRAM):
    for i in seq(0, n):
        x[i + 1] = 1.0
        x[i] = x[i] + 2.0
"""
        )
        q = p.fission_after("x[_] = 1.0")
        assert_equiv(p, q, lambda rng: [8, rand_f32(rng, 9)])

    def test_fission_rejects_dependence(self):
        # s2@i reads x[i+1], which s1@(i+1) writes *after* s2@i in the
        # original order but *before* it after fission: unsafe
        p = _p(
            """
@proc
def f(n: size, x: f32[n + 1] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = 1.0
        y[i] = x[i + 1]
"""
        )
        with pytest.raises(SchedulingError):
            p.fission_after("x[_] = 1.0")

    def test_fission_two_levels(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n, n] @ DRAM, y: f32[n, n] @ DRAM):
    for i in seq(0, n):
        for j in seq(0, n):
            x[i, j] = 1.0
            y[i, j] = 2.0
"""
        )
        q = p.fission_after("x[_] = 1.0", n_lifts=2)
        assert len([s for s in q.ir().body if isinstance(s, IR.For)]) == 2
        assert_equiv(
            p, q, lambda rng: [4, rand_f32(rng, 4, 4), rand_f32(rng, 4, 4)]
        )

    def test_fuse_loops(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = 1.0
    for j in seq(0, n):
        y[j] = x[j]
"""
        )
        # fusing is unsafe here? y[j] = x[j] reads x[j] written by iteration
        # j of the first loop; after fusion it reads it in the same
        # iteration: still fine (x[j] written before y[j] in iteration j)
        q = p.fuse_loop("for i in _: _")
        loops = [s for s in q.ir().body if isinstance(s, IR.For)]
        assert len(loops) == 1
        assert_equiv(p, q, lambda rng: [8, rand_f32(rng, 8), rand_f32(rng, 8)])

    def test_fuse_rejects_backward_dependence(self):
        # after fusion, s2@j reads x[2j] before s1@2j has written it
        p = _p(
            """
@proc
def f(n: size, x: f32[2 * n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = 1.0
    for j in seq(0, n):
        y[j] = x[2 * j]
"""
        )
        with pytest.raises(SchedulingError):
            p.fuse_loop("for i in _: _")


class TestReorderStmts:
    def test_reorder_independent(self):
        p = _p(
            """
@proc
def f(x: f32 @ DRAM, y: f32 @ DRAM):
    x = 1.0
    y = 2.0
"""
        )
        q = p.reorder_stmts("x = 1.0")
        assert isinstance(q.ir().body[0], IR.Assign)
        assert str(q.ir().body[0].name) == "y"

    def test_reorder_conflicting_rejected(self):
        p = _p(
            """
@proc
def f(x: f32 @ DRAM, y: f32 @ DRAM):
    x = 1.0
    y = x
"""
        )
        with pytest.raises(SchedulingError):
            p.reorder_stmts("x = 1.0")

    def test_reduce_reduce_commute(self):
        p = _p(
            """
@proc
def f(x: f32 @ DRAM, a: f32 @ DRAM, b: f32 @ DRAM):
    x += a
    x += b
"""
        )
        q = p.reorder_stmts("x += a")
        assert_equiv(
            p, q,
            lambda rng: [np.asarray(1.0, np.float32),
                         np.asarray(2.0, np.float32),
                         np.asarray(3.0, np.float32)],
        )

    def test_reduce_write_conflict_rejected(self):
        p = _p(
            """
@proc
def f(x: f32 @ DRAM, a: f32 @ DRAM):
    x += a
    x = 0.0
"""
        )
        with pytest.raises(SchedulingError):
            p.reorder_stmts("x += a")

    def test_reorder_before_moves_up_and_replays(self):
        p = _p(
            """
@proc
def f(x: f32 @ DRAM, y: f32 @ DRAM, z: f32 @ DRAM):
    x = 1.0
    y = 2.0
    z = y
"""
        )
        q = p.reorder_before("y = 2.0")
        assert [str(s.name) for s in q.ir().body] == ["y", "x", "z"]
        (rec,) = q.schedule_log()
        assert rec.op == "reorder_before"
        again = q.replay_schedule()
        assert str(again) == str(q)
        assert again.c_code() == q.c_code()

    def test_reorder_before_rejects_first_and_conflicting(self):
        p = _p(
            """
@proc
def f(x: f32 @ DRAM, y: f32 @ DRAM):
    y = 2.0
    x = y
"""
        )
        with pytest.raises(SchedulingError, match="nothing precedes"):
            p.reorder_before("y = 2.0")
        with pytest.raises(SchedulingError):
            p.reorder_before("x = y")


class TestAllocOps:
    def test_lift_alloc(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        t: f32
        t = x[i]
        x[i] = t + 1.0
"""
        )
        q = p.lift_alloc("t : _")
        assert isinstance(q.ir().body[0], IR.Alloc)
        assert_equiv(p, q, lambda rng: [8, rand_f32(rng, 8)])

    def test_lift_alloc_size_dependence_rejected(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        t: f32[i + 1]
        t[i] = x[i]
        x[i] = t[i]
"""
        )
        with pytest.raises(SchedulingError):
            p.lift_alloc("t : _")

    def test_expand_dim(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        t: f32
        t = x[i]
        x[i] = t + 1.0
"""
        )
        q = p.expand_dim("t : _", "n", "i").lift_alloc("t : _")
        alloc = q.ir().body[0]
        assert isinstance(alloc, IR.Alloc)
        assert len(alloc.type.shape()) == 1
        assert_equiv(p, q, lambda rng: [8, rand_f32(rng, 8)])

    def test_expand_dim_shifts_stride_dims(self):
        # the new dimension is prepended, so stride(t, 0) must become
        # stride(t, 1): the innermost stride is still 1 and the guard holds
        p = _p(
            """
@proc
def f(n: size, x: f32[n, 8] @ DRAM):
    for i in seq(0, n):
        t: f32[8]
        for j in seq(0, 8):
            t[j] = x[i, j]
        if stride(t, 0) == 1:
            for j in seq(0, 8):
                x[i, j] = t[j] + 1.0
"""
        )
        q = p.expand_dim("t : _", "n", "i")
        assert_equiv(p, q, lambda rng: [4, rand_f32(rng, 4, 8)])
        strides = [e for s in IR.walk_stmts(q.ir().body)
                   for e in IR.stmt_exprs(s) for e in IR.walk_exprs(e)
                   if isinstance(e, IR.StrideExpr)]
        assert [e.dim for e in strides] == [1]

    @pytest.mark.parametrize("use", ["w = t[0:4]", "g(t[0:4])"],
                             ids=["window_stmt", "window_arg"])
    def test_expand_dim_of_windowed_buffer_rejected(self, use):
        p = _p(
            f"""
@proc
def g(y: [f32][4] @ DRAM):
    for j in seq(0, 4):
        y[j] = 0.0

@proc
def f(n: size, x: f32[n, 4] @ DRAM):
    for i in seq(0, n):
        t: f32[4]
        for j in seq(0, 4):
            t[j] = x[i, j]
        {use}
"""
        )
        with pytest.raises(SchedulingError, match="windows of the expanded "
                                                  "buffer are not supported"):
            p.expand_dim("t : _", "n", "i")

    def test_expand_dim_of_buffer_passed_whole_rejected(self):
        # g(t) must not become the element argument g(t[i])
        p = _p(
            """
@proc
def g(y: f32[4] @ DRAM):
    for j in seq(0, 4):
        y[j] = 0.0

@proc
def f(n: size, x: f32[n, 4] @ DRAM):
    for i in seq(0, n):
        t: f32[4]
        g(t)
        for j in seq(0, 4):
            x[i, j] = t[j]
"""
        )
        with pytest.raises(SchedulingError,
                           match="expand_dim: cannot expand t, which is "
                                 "passed whole to a call"):
            p.expand_dim("t : _", "n", "i")

    def test_set_memory(self, gemm):
        from repro import StaticMemory

        p = _p(
            """
@proc
def f(x: f32[4] @ DRAM):
    t: f32[4]
    for i in seq(0, 4):
        t[i] = x[i]
    for i in seq(0, 4):
        x[i] = t[i]
"""
        )
        q = p.set_memory("t", StaticMemory)
        alloc = [s for s in IR.walk_stmts(q.ir().body) if isinstance(s, IR.Alloc)][0]
        assert alloc.mem is StaticMemory

    def test_set_precision(self):
        p = _p(
            """
@proc
def f(x: f32[4] @ DRAM):
    t: f32[4]
    for i in seq(0, 4):
        t[i] = x[i]
    for i in seq(0, 4):
        x[i] = t[i]
"""
        )
        q = p.set_precision("t", T.f64)
        alloc = [s for s in IR.walk_stmts(q.ir().body) if isinstance(s, IR.Alloc)][0]
        assert str(alloc.type.basetype()) == "f64"


class TestGuardsAndPartition:
    def test_add_guard(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    assert n >= 4
    for i in seq(0, n):
        x[i] = 0.0
"""
        )
        q = p.add_guard("x[_] = 0.0", "i < n")
        ifs = [s for s in IR.walk_stmts(q.ir().body) if isinstance(s, IR.If)]
        assert len(ifs) == 1
        assert_equiv(p, q, lambda rng: [8, rand_f32(rng, 8)])

    def test_add_guard_unprovable_rejected(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = 0.0
"""
        )
        with pytest.raises(SchedulingError):
            p.add_guard("x[_] = 0.0", "i < 4")

    def test_partition_loop(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    assert n >= 6
    for i in seq(0, n):
        x[i] = 1.0
"""
        )
        q = p.partition_loop("for i in _: _", 4)
        loops = [s for s in q.ir().body if isinstance(s, IR.For)]
        assert len(loops) == 2
        assert_equiv(p, q, lambda rng: [8, rand_f32(rng, 8)])

    def test_partition_beyond_bound_rejected(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = 1.0
"""
        )
        with pytest.raises(SchedulingError):
            p.partition_loop("for i in _: _", 4)

    def test_lift_if(self):
        p = _p(
            """
@proc
def f(n: size, b: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        if b == 1:
            x[i] = 0.0
"""
        )
        q = p.lift_if("for i in _: _")
        assert isinstance(q.ir().body[0], IR.If)
        assert_equiv(p, q, lambda rng: [6, 1, rand_f32(rng, 6)])

    def test_lift_if_iter_dependent_rejected(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        if i < 4:
            x[i] = 0.0
"""
        )
        with pytest.raises(SchedulingError):
            p.lift_if("for i in _: _")


class TestRemoveLoop:
    def test_remove_idempotent_loop(self):
        p = _p(
            """
@proc
def f(n: size, x: f32 @ DRAM):
    assert n >= 1
    for i in seq(0, n):
        x = 3.0
"""
        )
        q = p.remove_loop("for i in _: _")
        assert isinstance(q.ir().body[0], IR.Assign)
        assert_equiv(p, q, lambda rng: [5, np.zeros((), np.float32)])

    def test_remove_reduce_loop_rejected(self):
        p = _p(
            """
@proc
def f(n: size, x: f32 @ DRAM):
    assert n >= 1
    for i in seq(0, n):
        x += 3.0
"""
        )
        with pytest.raises(SchedulingError):
            p.remove_loop("for i in _: _")

    def test_remove_zero_trip_rejected(self):
        p = _p(
            """
@proc
def f(n: size, x: f32 @ DRAM):
    for i in seq(0, n - n):
        x = 3.0
"""
        )
        with pytest.raises(SchedulingError):
            p.remove_loop("for i in _: _")

    def test_remove_iter_used_rejected(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    assert n >= 1
    for i in seq(0, n):
        x[i] = 3.0
"""
        )
        with pytest.raises(SchedulingError):
            p.remove_loop("for i in _: _")


class TestInline:
    def test_inline_simple(self):
        p = _p(
            """
@proc
def g(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = 1.0

@proc
def f(x: f32[8] @ DRAM):
    g(8, x)
"""
        )
        q = p.inline("g(_, _)")
        assert not any(
            isinstance(s, IR.Call) for s in IR.walk_stmts(q.ir().body)
        )
        assert_equiv(p, q, lambda rng: [rand_f32(rng, 8)])

    def test_inline_window_argument(self):
        p = _p(
            """
@proc
def g(n: size, x: [f32][n] @ DRAM):
    for i in seq(0, n):
        x[i] = 1.0

@proc
def f(x: f32[8, 8] @ DRAM):
    for r in seq(0, 8):
        g(8, x[r, 0:8])
"""
        )
        q = p.inline("g(_, _)")
        assert_equiv(p, q, lambda rng: [rand_f32(rng, 8, 8)])
        # window composed into direct accesses (no WindowStmt needed)
        assert not any(
            isinstance(s, IR.WindowStmt) for s in IR.walk_stmts(q.ir().body)
        )

    def test_inline_window_of_window_formal(self):
        """A callee that windows its window formal: the window statement
        composes onto the caller's window, and ``stride`` of the formal
        names the root buffer's dimension."""
        p = _p(
            """
@proc
def g(x: [f32][4] @ DRAM):
    y = x[1:3]
    for k in seq(0, 2):
        if stride(x, 0) == 1:
            y[k] = 2.0 * y[k]

@proc
def f(A: f32[4, 8] @ DRAM):
    for i in seq(0, 4):
        g(A[i, 2:6])
"""
        )
        q = p.inline("g(_)")
        assert sum(isinstance(s, IR.WindowStmt)
                   for s in IR.walk_stmts(q.ir().body)) == 1
        assert "y = A[i, 3:5]" in str(q)
        assert "if stride(A, 1) == 1:" in str(q)
        assert_equiv(p, q, lambda rng: [rand_f32(rng, 4, 8)])


class TestStageMem:
    def test_stage_read_write(self):
        p = _p(
            """
@proc
def f(x: f32[16, 16] @ DRAM):
    for io in seq(0, 4):
        for i in seq(0, 4):
            for j in seq(0, 16):
                x[4 * io + i, j] += 1.0
"""
        )
        q = p.stage_mem("for i in _: _", "x[4*io:4*io+4, 0:16]", "xt")
        allocs = [s for s in IR.walk_stmts(q.ir().body) if isinstance(s, IR.Alloc)]
        assert len(allocs) == 1
        assert_equiv(p, q, lambda rng: [rand_f32(rng, 16, 16)])

    def test_stage_out_of_window_rejected(self):
        p = _p(
            """
@proc
def f(x: f32[16, 16] @ DRAM):
    for io in seq(0, 4):
        for i in seq(0, 4):
            for j in seq(0, 16):
                x[4 * io + i, j] += 1.0
"""
        )
        with pytest.raises(SchedulingError):
            p.stage_mem("for i in _: _", "x[4*io:4*io+2, 0:16]", "xt")

    def test_stage_write_only_no_copy_in(self):
        p = _p(
            """
@proc
def f(x: f32[8] @ DRAM):
    for i in seq(0, 8):
        x[i] = 1.0
"""
        )
        q = p.stage_mem("for i in _: _", "x[0:8]", "xt")
        assert_equiv(p, q, lambda rng: [rand_f32(rng, 8)])
        # fully-covered write-only staging needs no copy-in loop
        loops = [s for s in q.ir().body if isinstance(s, IR.For)]
        assert len(loops) == 2  # compute + copy-out

    def test_stage_buffer_passed_whole_rejected(self):
        p = _p(
            """
@proc
def g(y: f32[8] @ DRAM):
    for j in seq(0, 8):
        y[j] = 0.0

@proc
def f(x: f32[8] @ DRAM):
    for i in seq(0, 2):
        g(x)
"""
        )
        with pytest.raises(SchedulingError, match="cannot stage a buffer "
                                                  "passed whole to a call"):
            p.stage_mem("for i in _: _", "x[0:8]", "xt")

    def test_stage_window_binding_in_block_rejected(self):
        p = _p(
            """
@proc
def f(x: f32[8] @ DRAM):
    for i in seq(0, 2):
        w = x[4 * i:4 * i + 4]
        for j in seq(0, 4):
            w[j] = 1.0
"""
        )
        with pytest.raises(SchedulingError, match="windows of the staged "
                                                  "buffer inside the block"):
            p.stage_mem("for i in _: _", "x[0:8]", "xt")


class TestBindOps:
    def test_bind_expr(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] = x[i] * x[i] + x[i]
"""
        )
        q = p.bind_expr("xv", "x[i]")
        allocs = [s for s in IR.walk_stmts(q.ir().body) if isinstance(s, IR.Alloc)]
        assert len(allocs) == 1
        assert_equiv(p, q, lambda rng: [8, rand_f32(rng, 8), rand_f32(rng, 8)])

    def test_bind_config(self):
        cfg = Config("CfgS", [("v", T.index_t)])
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = 0.0
""",
            extra={"CfgS": cfg},
        )
        q = p.bind_config("n", cfg, "v")
        wcs = [
            s for s in IR.walk_stmts(q.ir().body) if isinstance(s, IR.WriteConfig)
        ]
        assert len(wcs) == 1


class TestDeletePass:
    def test_delete_pass(self):
        p = _p(
            """
@proc
def f(x: f32 @ DRAM):
    pass
    x = 1.0
"""
        )
        q = p.delete_pass()
        assert len(q.ir().body) == 1
