"""Pattern matching for scheduling locations (§3.3)."""

from __future__ import annotations

import pytest

from repro import SchedulingError
from repro.api import procs_from_source
from repro.core import ast as IR
from repro.scheduling.pattern import find_expr, find_stmt

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, DRAM, f32, size\n"
)


def _p(body):
    return list(procs_from_source(HEADER + body).values())[-1]


@pytest.fixture
def prog():
    return _p(
        """
@proc
def prog(n: size, A: f32[n, n] @ DRAM, B: f32[n, n] @ DRAM):
    t: f32
    for i in seq(0, n):
        for j in seq(0, n):
            A[i, j] = 0.0
    for i in seq(0, n):
        for j in seq(0, n):
            B[i, j] += A[i, j] * 2.0
"""
    )


class TestStmtPatterns:
    def test_loop_by_name(self, prog):
        ms = find_stmt(prog.ir(), "for i in _: _")
        assert len(ms) == 2

    def test_loop_with_index(self, prog):
        ms = find_stmt(prog.ir(), "for i in _: _ #1")
        assert len(ms) == 1
        stmt = IR.get_stmt(prog.ir(), ms[0].path)
        # the second i-loop encloses the reduce
        reduces = [
            s for s in IR.walk_stmts([stmt]) if isinstance(s, IR.Reduce)
        ]
        assert reduces

    def test_index_out_of_range(self, prog):
        with pytest.raises(SchedulingError):
            find_stmt(prog.ir(), "for i in _: _ #5")

    def test_alloc_pattern(self, prog):
        ms = find_stmt(prog.ir(), "t : _")
        assert len(ms) == 1
        assert isinstance(IR.get_stmt(prog.ir(), ms[0].path), IR.Alloc)

    def test_assign_pattern(self, prog):
        ms = find_stmt(prog.ir(), "A[_] = 0.0")
        assert len(ms) == 1

    def test_reduce_pattern(self, prog):
        ms = find_stmt(prog.ir(), "B[_] += _")
        assert len(ms) == 1

    def test_no_match(self, prog):
        with pytest.raises(SchedulingError):
            find_stmt(prog.ir(), "C[_] = _")

    def test_nested_loop_pattern(self, prog):
        ms = find_stmt(prog.ir(), "for j in _: _")
        assert len(ms) == 2

    def test_bounds_in_pattern(self, prog):
        ms = find_stmt(prog.ir(), "for i in seq(0, n): _")
        assert len(ms) == 2

    def test_wrong_bounds_no_match(self, prog):
        with pytest.raises(SchedulingError):
            find_stmt(prog.ir(), "for i in seq(1, n): _")

    def test_program_order(self, prog):
        """Matches must be returned in program order (outer statements
        before the contents of their bodies)."""
        ms = find_stmt(prog.ir(), "for j in _: _")
        s0 = IR.get_stmt(prog.ir(), ms[0].path)
        assert isinstance(s0.body[0], IR.Assign)

    def test_call_pattern(self):
        p = _p(
            """
@proc
def g(x: f32 @ DRAM):
    x = 0.0

@proc
def f(x: f32 @ DRAM):
    g(x)
"""
        )
        ms = find_stmt(p.ir(), "g(_)")
        assert len(ms) == 1

    def test_call_pattern_arity(self):
        p = _p(
            """
@proc
def foo(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = y[i]

@proc
def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    foo(n, x, y)
"""
        )
        # explicit arguments match only a call of the same arity
        with pytest.raises(SchedulingError, match="no match"):
            find_stmt(p.ir(), "foo(n, x)")
        assert len(find_stmt(p.ir(), "foo(n, x, y)")) == 1
        assert len(find_stmt(p.ir(), "foo(n, _, y)")) == 1
        # a lone `_` argument list matches any arity
        assert len(find_stmt(p.ir(), "foo(_)")) == 1


class TestExprPatterns:
    def test_read_pattern(self, prog):
        ms = find_expr(prog.ir(), "A[i, j]")
        assert len(ms) == 1  # only the read inside the reduce

    def test_wildcard_index(self, prog):
        ms = find_expr(prog.ir(), "A[_]")
        assert len(ms) == 1

    def test_binop_pattern(self, prog):
        ms = find_expr(prog.ir(), "A[i, j] * 2.0")
        assert len(ms) == 1

    def test_const_pattern(self, prog):
        ms = find_expr(prog.ir(), "2.0")
        assert len(ms) == 1

    def test_builtin_argument_lists(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = select(x[i], y[i], x[i], y[i])
"""
        )
        # a lone `_` stands for any argument list, explicit ones must agree
        assert len(find_expr(p.ir(), "select(_)")) == 1
        assert len(find_expr(p.ir(), "select(x[i], _, _, _)")) == 1
        with pytest.raises(SchedulingError, match="no match"):
            find_expr(p.ir(), "select(x[i], y[i])")
