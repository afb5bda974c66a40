"""Reference interpreter semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import procs_from_source
from repro.core.configs import Config
from repro.core.interp import InterpError
from repro.core import types as T

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, DRAM, f32, f64, i8, i32, size, relu, select, "
    "fmin, fmax\n"
)


def _p(body, extra=None):
    return list(procs_from_source(HEADER + body, extra_globals=extra).values())[-1]


class TestBasics:
    def test_copy(self):
        p = _p(
            """
@proc
def copy(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] = x[i]
"""
        )
        x = np.arange(8, dtype=np.float32)
        y = np.zeros(8, dtype=np.float32)
        p.interpret(8, x, y)
        np.testing.assert_array_equal(y, x)

    def test_reduce_accumulates(self):
        p = _p(
            """
@proc
def total(n: size, x: f32[n] @ DRAM, acc: f32 @ DRAM):
    acc = 0.0
    for i in seq(0, n):
        acc += x[i]
"""
        )
        x = np.ones(10, dtype=np.float32)
        acc = np.zeros((), dtype=np.float32)
        p.interpret(10, x, acc)
        assert acc[()] == 10.0

    def test_if_else(self):
        p = _p(
            """
@proc
def f(n: size, y: f32[n] @ DRAM):
    for i in seq(0, n):
        if i % 2 == 0:
            y[i] = 1.0
        else:
            y[i] = 2.0
"""
        )
        y = np.zeros(6, dtype=np.float32)
        p.interpret(6, y)
        np.testing.assert_array_equal(y, [1, 2, 1, 2, 1, 2])

    def test_floor_division_control(self):
        p = _p(
            """
@proc
def f(y: f32[4] @ DRAM):
    for i in seq(0, 4):
        y[i / 2] += 1.0
"""
        )
        y = np.zeros(4, dtype=np.float32)
        p.interpret(y)
        np.testing.assert_array_equal(y, [2, 2, 0, 0])

    def test_precondition_enforced_dynamically(self):
        p = _p(
            """
@proc
def f(n: size, y: f32[n] @ DRAM):
    assert n % 2 == 0
    y[0] = 1.0
"""
        )
        with pytest.raises(InterpError):
            p.interpret(3, np.zeros(3, dtype=np.float32))

    def test_externs(self):
        p = _p(
            """
@proc
def f(x: f32 @ DRAM, y: f32 @ DRAM):
    y = relu(x) + fmax(x, y) + fmin(x, y)
"""
        )
        x = np.asarray(-2.0, dtype=np.float32)
        y = np.asarray(3.0, dtype=np.float32)
        p.interpret(x, y)
        assert y[()] == pytest.approx(0.0 + 3.0 + (-2.0))

    def test_select(self):
        p = _p(
            """
@proc
def f(x: f32 @ DRAM, y: f32 @ DRAM):
    y = select(x, y, 1.0, 2.0)
"""
        )
        x = np.asarray(0.0, dtype=np.float32)
        y = np.asarray(3.0, dtype=np.float32)
        p.interpret(x, y)
        assert y[()] == 1.0  # x < y -> third arg


class TestPreconditions:
    def test_failed_precondition_is_reported_in_source_syntax(self):
        p = _p(
            """
@proc
def saxpy(n: size, a: f32[n] @ DRAM, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    assert n >= 4
    for i in seq(0, n):
        y[i] += a[i] * x[i]
"""
        )
        a, x, y = (np.zeros(2, np.float32) for _ in range(3))
        with pytest.raises(InterpError) as err:
            p.interpret(2, a, x, y)
        assert str(err.value) == "saxpy: precondition failed: n >= 4"


class TestBuffersAndWindows:
    def test_alloc_zero_initialized(self):
        p = _p(
            """
@proc
def f(y: f32[4] @ DRAM):
    t: f32[4]
    for i in seq(0, 4):
        y[i] = t[i]
"""
        )
        y = np.ones(4, dtype=np.float32)
        p.interpret(y)
        np.testing.assert_array_equal(y, np.zeros(4))

    def test_window_aliases(self):
        p = _p(
            """
@proc
def f(x: f32[8, 8] @ DRAM):
    y = x[2:6, 3]
    for i in seq(0, 4):
        y[i] = 7.0
"""
        )
        x = np.zeros((8, 8), dtype=np.float32)
        p.interpret(x)
        np.testing.assert_array_equal(x[2:6, 3], np.full(4, 7.0))
        assert x.sum() == 28.0

    def test_window_call_argument(self):
        p = _p(
            """
@proc
def fill(n: size, x: [f32][n] @ DRAM):
    for i in seq(0, n):
        x[i] = 5.0

@proc
def f(x: f32[6, 6] @ DRAM):
    fill(3, x[1, 2:5])
"""
        )
        x = np.zeros((6, 6), dtype=np.float32)
        p.interpret(x)
        assert x[1, 2:5].tolist() == [5, 5, 5]
        assert x.sum() == 15.0

    def test_scalar_pass_by_reference(self):
        p = _p(
            """
@proc
def setit(v: f32 @ DRAM):
    v = 9.0

@proc
def f(y: f32 @ DRAM):
    setit(y)
"""
        )
        y = np.zeros((), dtype=np.float32)
        p.interpret(y)
        assert y[()] == 9.0

    def test_stride_expr_value(self):
        p = _p(
            """
@proc
def f(x: f32[4, 8] @ DRAM, out: f32 @ DRAM):
    assert stride(x, 0) == 8
    out = 1.0
"""
        )
        x = np.zeros((4, 8), dtype=np.float32)
        out = np.zeros((), dtype=np.float32)
        p.interpret(x, out)  # assertion passes dynamically

    def test_precision_cast_on_write(self):
        p = _p(
            """
@proc
def f(x: i8[4] @ DRAM, y: i32[4] @ DRAM):
    for i in seq(0, 4):
        y[i] = x[i] * x[i]
"""
        )
        x = np.array([5, 6, 7, 8], dtype=np.int8)
        y = np.zeros(4, dtype=np.int32)
        p.interpret(x, y)
        # products computed in int8 then widened (matching the backend's
        # cast-just-before-write rule would be int8 arithmetic; numpy keeps
        # int8 * int8 in int8)
        assert y.dtype == np.int32


class TestConfigState:
    def test_config_write_read(self):
        cfg = Config("CfgI", [("v", T.int_t)])
        p = _p(
            """
@proc
def f(y: f32[8] @ DRAM):
    CfgI.v = 3
    y[CfgI.v] = 1.0
""",
            extra={"CfgI": cfg},
        )
        y = np.zeros(8, dtype=np.float32)
        state = p.interpret(y)
        assert y[3] == 1.0
        assert state[(cfg, "v")] == 3

    def test_uninitialized_config_read_fails(self):
        cfg = Config("CfgJ", [("v", T.int_t)])
        p = _p(
            """
@proc
def f(y: f32[8] @ DRAM):
    if CfgJ.v == 0:
        y[0] = 1.0
""",
            extra={"CfgJ": cfg},
        )
        with pytest.raises(InterpError):
            p.interpret(np.zeros(8, dtype=np.float32))

    def test_config_threads_through_calls(self):
        cfg = Config("CfgK", [("v", T.int_t)])
        p = _p(
            """
@proc
def setv(n: size, y: f32[n] @ DRAM):
    CfgK.v = n
    y[0] = 0.0

@proc
def f(y: f32[8] @ DRAM):
    setv(8, y)
    y[CfgK.v - 1] = 2.0
""",
            extra={"CfgK": cfg},
        )
        y = np.zeros(8, dtype=np.float32)
        p.interpret(y)
        assert y[7] == 2.0
