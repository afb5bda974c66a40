"""Control/data separation and quasi-affine restrictions (§3.1)."""

from __future__ import annotations

import pytest

from repro import TypeCheckError
from repro.api import procs_from_source

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, DRAM, f32, f64, i8, i32, size, relu, select\n"
)


def _ok(body):
    return list(procs_from_source(HEADER + body).values())[-1]


def _bad(body):
    with pytest.raises(TypeCheckError):
        procs_from_source(HEADER + body)


class TestControlDataSeparation:
    def test_data_in_loop_bound_rejected(self):
        _bad(
            """
@proc
def f(x: f32 @ DRAM, y: f32[8] @ DRAM):
    for i in seq(0, x):
        y[i] = 0.0
"""
        )

    def test_data_in_branch_rejected(self):
        _bad(
            """
@proc
def f(x: f32 @ DRAM):
    if x > 0.0:
        x = 1.0
"""
        )

    def test_data_index_rejected(self):
        _bad(
            """
@proc
def f(x: f32 @ DRAM, y: f32[8] @ DRAM):
    y[x] = 0.0
"""
        )

    def test_control_into_data_ok_for_literals(self):
        p = _ok(
            """
@proc
def f(y: f32[8] @ DRAM):
    for i in seq(0, 8):
        y[i] = 0
"""
        )
        assert p.ir().body[0].body[0].rhs.type.is_real_scalar()

    def test_loop_var_as_data_rejected(self):
        _bad(
            """
@proc
def f(y: f32[8] @ DRAM):
    for i in seq(0, 8):
        y[i] = i
"""
        )


class TestQuasiAffine:
    def test_var_times_var_rejected(self):
        _bad(
            """
@proc
def f(n: size, m: size, y: f32[n * m] @ DRAM):
    y[0] = 0.0
"""
        )

    def test_var_times_literal_ok(self):
        _ok(
            """
@proc
def f(n: size, y: f32[4 * n] @ DRAM):
    y[0] = 0.0
"""
        )

    def test_div_by_var_rejected(self):
        _bad(
            """
@proc
def f(n: size, m: size, y: f32[n] @ DRAM):
    for i in seq(0, n / m):
        y[i] = 0.0
"""
        )

    def test_mod_by_literal_ok(self):
        _ok(
            """
@proc
def f(n: size, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i % n * 0 + i] = 0.0
"""
        ) if False else _ok(
            """
@proc
def f(n: size, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i - i % 4 + i % 4] = 0.0
"""
        )

    def test_negative_divisor_rejected(self):
        _bad(
            """
@proc
def f(n: size, y: f32[n] @ DRAM):
    for i in seq(0, n / 0):
        y[i] = 0.0
"""
        )


class TestPrecision:
    def test_mixed_int_float_rejected(self):
        _bad(
            """
@proc
def f(x: f32 @ DRAM, y: i8 @ DRAM):
    x = x + y
"""
        )

    def test_f32_f64_join_ok(self):
        _ok(
            """
@proc
def f(x: f32 @ DRAM, y: f64 @ DRAM):
    y = x + y
"""
        )

    def test_i8_i32_join_ok(self):
        _ok(
            """
@proc
def f(x: i8 @ DRAM, y: i32 @ DRAM):
    y = x * x + y
"""
        )

    def test_data_comparison_rejected(self):
        _bad(
            """
@proc
def f(x: f32 @ DRAM):
    if x == x:
        x = 0.0
"""
        )

    def test_mod_on_data_rejected(self):
        _bad(
            """
@proc
def f(x: f32 @ DRAM):
    x = x % 2
"""
        )


class TestArity:
    def test_wrong_rank_rejected(self):
        _bad(
            """
@proc
def f(y: f32[4, 4] @ DRAM):
    y[0] = 0.0
"""
        )

    def test_index_non_tensor_rejected(self):
        _bad(
            """
@proc
def f(x: f32 @ DRAM):
    x[0] = 0.0
"""
        )

    def test_call_arity_rejected(self):
        _bad(
            """
@proc
def g(n: size, y: f32[n] @ DRAM):
    y[0] = 0.0

@proc
def f(y: f32[4] @ DRAM):
    g(y)
"""
        )

    def test_call_rank_mismatch_rejected(self):
        _bad(
            """
@proc
def g(n: size, y: f32[n] @ DRAM):
    y[0] = 0.0

@proc
def f(y: f32[4, 4] @ DRAM):
    g(4, y)
"""
        )

    def test_control_write_rejected(self):
        _bad(
            """
@proc
def f(n: size, y: f32[n] @ DRAM):
    n = 4
    y[0] = 0.0
"""
        )


class TestWindows:
    def test_window_type_dims(self):
        p = _ok(
            """
@proc
def f(x: f32[8, 8] @ DRAM):
    y = x[2:6, 0:8]
    y[0, 0] = 0.0
"""
        )
        win = p.ir().body[0].rhs
        assert len(win.type.shape()) == 2

    def test_point_reduces_rank(self):
        p = _ok(
            """
@proc
def f(x: f32[8, 8] @ DRAM):
    y = x[2:6, 3]
    y[0] = 0.0
"""
        )
        win = p.ir().body[0].rhs
        assert len(win.type.shape()) == 1

    def test_all_points_window_rejected(self):
        # x[2, 3] is an element read, not a window: binding it to a new
        # name is rejected at parse time
        from repro import ParseError

        with pytest.raises((TypeCheckError, ParseError)):
            _ok(
                """
@proc
def f(x: f32[8, 8] @ DRAM):
    y = x[2, 3]
    y = 0.0
"""
            )

    def test_stride_comparison_only_eq(self):
        _bad(
            """
@proc
def f(x: f32[8, 8] @ DRAM):
    assert stride(x, 0) < 9
    x[0, 0] = 0.0
"""
        )


class TestCallSiteWindows:
    """§3.1: a window carries its strides, a dense formal assumes its own,
    so a window never reaches a dense tensor formal."""

    G = """
@proc
def g(m: size, y: f32[m, 8] @ DRAM):
    assert m >= 2
    y[1, 0] = 1.0
"""

    def test_window_expr_at_dense_formal_rejected(self):
        # interpret() would write x[1, 0], a dense C callee x[0, 8]
        with pytest.raises(TypeCheckError, match=r"call to g: .*dense formal y"):
            _ok(self.G + """
@proc
def f(n: size, x: f32[n, 16] @ DRAM):
    g(n, x[0:n, 0:8])
""")

    def test_window_name_at_dense_formal_rejected(self):
        with pytest.raises(TypeCheckError, match=r"call to g: .*dense formal y"):
            _ok(self.G + """
@proc
def f(n: size, x: [f32][n, 8] @ DRAM):
    g(n, x)
""")
        with pytest.raises(TypeCheckError, match=r"call to g: .*dense formal y"):
            _ok(self.G + """
@proc
def f(n: size, x: f32[n, 16] @ DRAM):
    w = x[0:n, 0:8]
    g(n, w)
""")

    def test_dense_and_window_actuals_at_window_formal_accepted(self):
        _ok("""
@proc
def h(m: size, y: [f32][m, 8] @ DRAM):
    assert m >= 2
    y[1, 0] = 1.0

@proc
def f(n: size, x: f32[n, 8] @ DRAM, z: f32[n, 16] @ DRAM):
    assert n >= 2
    h(n, x)
    h(n, z[0:n, 0:8])
""")

    def test_dense_actual_at_dense_formal_accepted(self):
        _ok(self.G + """
@proc
def f(n: size, x: f32[n, 8] @ DRAM):
    assert n >= 2
    g(n, x)
""")

    def test_replace_with_dense_formal_rejected(self):
        # unification would abstract x's strided panel into g's dense y
        procs = procs_from_source(HEADER + """
@proc
def g(y: f32[2, 8] @ DRAM):
    for i in seq(0, 2):
        for j in seq(0, 8):
            y[i, j] = 0.0

@proc
def f(x: f32[4, 16] @ DRAM):
    for i in seq(0, 2):
        for j in seq(0, 8):
            x[i + 2, j] = 0.0
""")
        with pytest.raises(TypeCheckError, match=r"call to g: .*dense formal y"):
            procs["f"].replace(procs["g"], "for i in _: _")
