"""Pretty printing and buffer-view resolution."""

from __future__ import annotations

import pytest

from repro.api import procs_from_source
from repro.core import ast as IR
from repro.core.buffers import BufView, TypeEnv, VInterval, VPoint
from repro.core.pprint import proc_key
from repro.core.prelude import Sym
from repro.smt import terms as S

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, DRAM, f32, i8, size, relu\n"
)


def _p(body):
    return list(procs_from_source(HEADER + body).values())[-1]


class TestPPrint:
    def test_roundtrip_text(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n, 8] @ DRAM):
    assert n % 2 == 0
    for i in seq(0, n):
        if i < 4:
            x[i, 0] = relu(x[i, 1] * 2.0)
        else:
            x[i, 0] += 1.0
"""
        )
        text = str(p)
        assert "@proc" in text
        assert "assert n % 2 == 0" in text
        assert "for i in seq(0, n):" in text
        assert "relu(x[i, 1] * 2.0)" in text
        assert "x[i, 0] += 1.0" in text

    def test_window_printed(self):
        p = _p(
            """
@proc
def f(x: f32[8, 8] @ DRAM):
    y = x[0:4, 3]
    y[0] = 0.0
"""
        )
        assert "y = x[0:4, 3]" in str(p)

    def test_memory_annotation_printed(self):
        p = _p(
            """
@proc
def f(x: f32[8] @ DRAM):
    t: i8[4] @ DRAM
    t[0] = 0.0
    x[0] = 0.0
"""
        )
        assert "t : i8[4] @ DRAM" in str(p)

    def test_precedence_parens(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[3 * (n + 1)] @ DRAM):
    x[0] = 0.0
"""
        )
        assert "3 * (n + 1)" in str(p)


class TestProcKey:
    SRC = (
        "from __future__ import annotations\n"
        "from repro import proc, instr, DRAM, f32\n"
        """
@instr("vzero({dst});")
def zero_a(dst: [f32][8] @ DRAM):
    for l in seq(0, 8):
        dst[l] = 0.0

@instr("vclear({dst});")
def zero_b(dst: [f32][8] @ DRAM):
    for l in seq(0, 8):
        dst[l] = 0.0

@proc
def f(x: f32[16] @ DRAM):
    for i in seq(0, 16):
        x[i] = 0.0

@proc
def g(x: f32[16] @ DRAM):
    f(x)
"""
    )

    def test_instr_template_is_part_of_the_key(self):
        ps = procs_from_source(self.SRC)
        a, b = ps["zero_a"].ir(), ps["zero_b"].ir()
        b_as_a = IR.Proc("zero_a", b.args, b.preds, b.body, b.instr)
        assert str(a) == str(b_as_a)  # the text omits the C template
        assert proc_key(a) != proc_key(b_as_a)

    def test_memoized_on_the_node(self):
        g = procs_from_source(self.SRC)["g"].ir()
        assert proc_key(g) is proc_key(g)
        fresh = IR.Proc(g.name, g.args, g.preds, g.body)
        assert proc_key(fresh) == proc_key(g)
        assert proc_key(fresh) is not proc_key(g)


class TestBufViews:
    def test_identity_view(self):
        x = Sym("x")
        v = BufView.identity(x, 2)
        assert v.out_rank() == 2
        idx = v.compose_index([S.IntC(3), S.IntC(4)])
        assert idx == [S.IntC(3), S.IntC(4)]

    def test_window_composition(self):
        x = Sym("x")
        v = BufView.identity(x, 2)
        w = v.compose_window([("iv", (S.IntC(2), S.IntC(6))), ("pt", S.IntC(3))])
        assert w.out_rank() == 1
        idx = w.compose_index([S.IntC(1)])
        assert idx == [S.IntC(3), S.IntC(3)]

    def test_nested_windows(self):
        x = Sym("x")
        v = BufView.identity(x, 2)
        w1 = v.compose_window(
            [("iv", (S.IntC(2), S.IntC(8))), ("iv", (S.IntC(1), S.IntC(7)))]
        )
        w2 = w1.compose_window([("pt", S.IntC(2)), ("iv", (S.IntC(3), S.IntC(5)))])
        idx = w2.compose_index([S.IntC(0)])
        assert idx == [S.IntC(4), S.IntC(4)]

    def test_root_dim_of_out(self):
        x = Sym("x")
        v = BufView(x, (VPoint(S.IntC(0)), VInterval(S.IntC(0), 0)))
        assert v.root_dim_of_out(0) == 1


class TestStrides:
    def test_dense_stride_constant(self):
        p = _p(
            """
@proc
def f(x: f32[4, 8] @ DRAM):
    x[0, 0] = 0.0
"""
        )
        tenv = TypeEnv(p.ir())
        x = p.ir().args[0].name
        assert tenv.stride_term(x, 0) == S.IntC(8)
        assert tenv.stride_term(x, 1) == S.IntC(1)

    def test_symbolic_stride_opaque_but_consistent(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[4, n] @ DRAM):
    x[0, 0] = 0.0
"""
        )
        tenv = TypeEnv(p.ir())
        x = p.ir().args[1].name
        s0a = tenv.stride_term(x, 0)
        s0b = tenv.stride_term(x, 0)
        assert isinstance(s0a, S.Var)
        assert s0a == s0b  # same opaque variable every time

    def test_window_inherits_root_stride(self):
        p = _p(
            """
@proc
def f(x: f32[4, 8] @ DRAM):
    y = x[1:3, 0:8]
    y[0, 0] = 0.0
"""
        )
        tenv = TypeEnv(p.ir())
        win = p.ir().body[0]
        tenv.enter_stmt(win)
        assert tenv.stride_term(win.name, 0) == S.IntC(8)
