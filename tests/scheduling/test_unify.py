"""Unification-based replace() (§3.4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SchedulingError, StaticMemory
from repro.api import procs_from_source
from repro.core import ast as IR
from repro.core import types as T
from repro.core.builtins import fmax, relu
from repro.core.configs import Config
from repro.core.pprint import stmt_to_lines
from repro.scheduling.cursors import BlockCursor
from repro.scheduling.unify import SKIP, UnifyError, _Unifier

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import assert_equiv, blank_node, node_classes, rand_f32  # noqa: E402

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, instr, DRAM, f32, size, stride\n"
)


def _procs(body, extra=None):
    return procs_from_source(HEADER + body, extra_globals=extra)


class TestBasicReplace:
    def test_replace_loop_with_call(self):
        ps = _procs(
            """
@proc
def zero_row(m: size, dst: [f32][m] @ DRAM):
    for j in seq(0, m):
        dst[j] = 0.0

@proc
def f(A: f32[8, 8] @ DRAM):
    for i in seq(0, 8):
        for j in seq(0, 8):
            A[i, j] = 0.0
"""
        )
        f, zero_row = ps["f"], ps["zero_row"]
        g = f.replace(zero_row, "for j in _: _")
        calls = [s for s in IR.walk_stmts(g.ir().body) if isinstance(s, IR.Call)]
        assert len(calls) == 1
        # the size argument m was solved to 8
        assert calls[0].args[0].val == 8
        assert_equiv(f, g, lambda rng: [rand_f32(rng, 8, 8)])

    def test_window_offset_inference(self):
        ps = _procs(
            """
@proc
def zero_tile(dst: [f32][4, 4] @ DRAM):
    for a in seq(0, 4):
        for b in seq(0, 4):
            dst[a, b] = 0.0

@proc
def f(A: f32[16, 16] @ DRAM):
    for io in seq(0, 4):
        for jo in seq(0, 4):
            for a in seq(0, 4):
                for b in seq(0, 4):
                    A[4 * io + a, 4 * jo + b] = 0.0
"""
        )
        f, zt = ps["f"], ps["zero_tile"]
        g = f.replace(zt, "for a in _: _")
        call = [s for s in IR.walk_stmts(g.ir().body) if isinstance(s, IR.Call)][0]
        win = call.args[0]
        assert isinstance(win, IR.WindowExpr)
        assert_equiv(f, g, lambda rng: [rand_f32(rng, 16, 16)])

    def test_point_dim_inference(self):
        ps = _procs(
            """
@proc
def zero_row(m: size, dst: [f32][m] @ DRAM):
    for j in seq(0, m):
        dst[j] = 0.0

@proc
def f(A: f32[8, 8] @ DRAM):
    for i in seq(0, 8):
        for j in seq(0, 8):
            A[i, j] = 0.0
"""
        )
        g = ps["f"].replace(ps["zero_row"], "for j in _: _")
        call = [s for s in IR.walk_stmts(g.ir().body) if isinstance(s, IR.Call)][0]
        win = call.args[1]
        assert isinstance(win, IR.WindowExpr)
        kinds = [type(w).__name__ for w in win.idx]
        assert kinds == ["Point", "Interval"]

    def test_mismatched_shape_rejected(self):
        ps = _procs(
            """
@proc
def adder(m: size, dst: [f32][m] @ DRAM):
    for j in seq(0, m):
        dst[j] += 1.0

@proc
def f(A: f32[8] @ DRAM):
    for j in seq(0, 8):
        A[j] = 1.0
"""
        )
        with pytest.raises(SchedulingError):
            ps["f"].replace(ps["adder"], "for j in _: _")

    def test_instr_selection(self):
        ps = _procs(
            """
@instr("vzero({dst});")
def vzero(dst: [f32][8] @ DRAM):
    for l in seq(0, 8):
        dst[l] = 0.0

@proc
def f(A: f32[32] @ DRAM):
    for io in seq(0, 4):
        for l in seq(0, 8):
            A[8 * io + l] = 0.0
"""
        )
        g = ps["f"].replace(ps["vzero"], "for l in _: _")
        assert "vzero(" in g.c_code()
        assert_equiv(ps["f"], g, lambda rng: [rand_f32(rng, 32)])

    def test_scalar_element_argument(self):
        ps = _procs(
            """
@instr("saxpy({a}, {x}, {y});")
def saxpy1(a: f32 @ DRAM, x: [f32][8] @ DRAM, y: [f32][8] @ DRAM):
    for l in seq(0, 8):
        y[l] += a * x[l]

@proc
def f(A: f32[4] @ DRAM, X: f32[8] @ DRAM, Y: f32[8] @ DRAM):
    for i in seq(0, 4):
        for l in seq(0, 8):
            Y[l] += A[i] * X[l]
"""
        )
        g = ps["f"].replace(ps["saxpy1"], "for l in _: _")
        call = [s for s in IR.walk_stmts(g.ir().body) if isinstance(s, IR.Call)][0]
        a_arg = call.args[0]
        assert isinstance(a_arg, IR.Read) and a_arg.idx
        assert_equiv(
            ps["f"], g,
            lambda rng: [rand_f32(rng, 4), rand_f32(rng, 8), rand_f32(rng, 8)],
        )

    def test_guard_matching(self):
        ps = _procs(
            """
@proc
def guarded(n: size, m: size, dst: [f32][m] @ DRAM):
    for j in seq(0, m):
        if j < n:
            dst[j] = 0.0

@proc
def f(n: size, A: f32[8] @ DRAM):
    assert n <= 8
    for j in seq(0, 8):
        if j < n:
            A[j] = 0.0
"""
        )
        g = ps["f"].replace(ps["guarded"], "for j in _: _")
        call = [s for s in IR.walk_stmts(g.ir().body) if isinstance(s, IR.Call)][0]
        assert call.proc.name == "guarded"

    def test_structural_mismatch_rejected(self):
        ps = _procs(
            """
@proc
def two_stmts(dst: [f32][4] @ DRAM):
    dst[0] = 0.0
    dst[1] = 0.0

@proc
def f(A: f32[4] @ DRAM):
    A[0] = 0.0
"""
        )
        with pytest.raises(SchedulingError):
            ps["f"].replace(ps["two_stmts"], "A[_] = 0.0")

    def test_operator_mismatch_rejected(self):
        ps = _procs(
            """
@proc
def muler(dst: [f32][4] @ DRAM):
    for j in seq(0, 4):
        dst[j] = dst[j] * 2.0

@proc
def f(A: f32[4] @ DRAM):
    for j in seq(0, 4):
        A[j] = A[j] + 2.0
"""
        )
        with pytest.raises(SchedulingError):
            ps["f"].replace(ps["muler"], "for j in _: _")


def _call_line(p):
    (call,) = [s for s in IR.walk_stmts(p.ir().body) if isinstance(s, IR.Call)]
    return " ".join(stmt_to_lines(call, 0))


class TestRowSolver:
    """The integer rows ``caller - callee == 0`` and their solutions."""

    QUAD = """
@proc
def quad(n: size, dst: f32[4 * n] @ DRAM):
    for i in seq(0, 4 * n):
        dst[i] = 0.0

@proc
def dbl(n: size, dst: f32[2 * n] @ DRAM):
    for i in seq(0, 2 * n):
        dst[i] = 0.0
"""

    def test_gcd_divides_the_row(self):
        ps = _procs(
            self.QUAD
            + """
@proc
def f(y: f32[16] @ DRAM):
    for i in seq(0, 16):
        y[i] = 0.0
"""
        )
        g = ps["f"].replace(ps["quad"], "for i in _: _")
        assert _call_line(g) == "quad(4, y)"
        assert_equiv(ps["f"], g, lambda rng: [rand_f32(rng, 16)])

    def test_gcd_not_dividing_the_constant_rejected(self):
        ps = _procs(
            self.QUAD
            + """
@proc
def f(y: f32[7] @ DRAM):
    for i in seq(0, 7):
        y[i] = 0.0
"""
        )
        with pytest.raises(SchedulingError):
            ps["f"].replace(ps["dbl"], "for i in _: _")

    def test_non_integer_combination_rejected(self):
        ps = _procs(
            self.QUAD
            + """
@proc
def f(m: size, y: f32[m] @ DRAM):
    for i in seq(0, m):
        y[i] = 0.0
"""
        )
        with pytest.raises(SchedulingError):
            ps["f"].replace(ps["dbl"], "for i in _: _")

    SQ = """
@proc
def sq(n: size, dst: f32[n, n] @ DRAM):
    for i in seq(0, n):
        for j in seq(0, n):
            dst[i, j] = 0.0

@proc
def f(M: size, N: size, y: f32[M, N] @ DRAM):
    {}
    for i in seq(0, M):
        for j in seq(0, N):
            y[i, j] = 0.0
"""

    def test_residual_equality_proved_at_site(self):
        ps = _procs(self.SQ.format("assert M == N"))
        g = ps["f"].replace(ps["sq"], "for i in _: _")
        assert _call_line(g) == "sq(M, y)"

    def test_residual_equality_rejected_with_counterexample(self):
        ps = _procs(self.SQ.format("pass"))
        with pytest.raises(SchedulingError) as e:
            ps["f"].replace(ps["sq"], "for i in _: _")
        assert "M = " in str(e.value) and "N = " in str(e.value)


    def test_callee_sharing_the_callers_syms(self):
        """A renamed copy of the caller shares its Syms; its ``n`` is an
        unknown, the caller's ``n`` a known, and the row solves ``n = n``."""
        ps = _procs(
            """
@proc
def f(n: size, A: f32[n] @ DRAM):
    for i in seq(0, n):
        A[i] = 0.0
"""
        )
        f = ps["f"]
        g = f.replace(f.rename("fz"), "for i in _: _")
        assert _call_line(g) == "fz(n, A)"


class TestOpaqueArguments:
    """A control argument solved by a stride or config read."""

    SRC = """
@proc
def setboth(s: stride):
    for i in seq(0, 1):
        Cfg.a = s
        Cfg.b = s

@proc
def f(n: size, A: f32[n, 4] @ DRAM, B: f32[n, 8] @ DRAM):
    for i in seq(0, 1):
        Cfg.a = stride(A, 0)
        Cfg.b = stride({}, 0)
"""

    @pytest.fixture
    def cfg(self):
        return Config("Cfg", [("a", T.stride_t), ("b", T.stride_t)])

    def test_same_opaque_solution(self, cfg):
        ps = _procs(self.SRC.format("A"), extra={"Cfg": cfg})
        g = ps["f"].replace(ps["setboth"], "for i in _: _")
        assert _call_line(g) == "setboth(stride(A, 0))"

    def test_conflicting_opaque_solutions_rejected(self, cfg):
        ps = _procs(self.SRC.format("B"), extra={"Cfg": cfg})
        with pytest.raises(SchedulingError):
            ps["f"].replace(ps["setboth"], "for i in _: _")


class TestNonAffineControl:
    """Non-affine control expressions (here quasi-affine divisions) are
    compared after the solution is substituted into the callee's."""

    SRC = """
@proc
def halfz(n: size, x: [f32][n] @ DRAM):
    for j in seq(0, 1):
        for k in seq(0, n):
            x[k] = 1.0
        for i in seq(0, n / 2):
            x[i] = 0.0

@proc
def f(m: size, A: f32[m] @ DRAM):
    for j in seq(0, 1):
        for k in seq(0, m):
            A[k] = 1.0
        for i in seq(0, m / {}):
            A[i] = 0.0
"""

    def test_same_division_replaced(self):
        ps = _procs(self.SRC.format(2))
        g = ps["f"].replace(ps["halfz"], "for j in _: _")
        assert _call_line(g) == "halfz(m, A[0:m])"
        assert_equiv(ps["f"], g, lambda rng: [6, rand_f32(rng, 6)])

    def test_different_division_rejected(self):
        """At m = 6 the block zeroes 2 elements and ``halfz(m, A[0:m])``
        would zero 3."""
        ps = _procs(self.SRC.format(3))
        with pytest.raises(SchedulingError):
            ps["f"].replace(ps["halfz"], "for j in _: _")


class TestReplaceAll:
    def test_replace_all_multiple_sites(self):
        ps = _procs(
            """
@instr("vcopy({dst}, {src});")
def vcopy(dst: [f32][8] @ DRAM, src: [f32][8] @ DRAM):
    for l in seq(0, 8):
        dst[l] = src[l]

@proc
def f(A: f32[8] @ DRAM, B: f32[8] @ DRAM, C: f32[8] @ DRAM):
    for l in seq(0, 8):
        B[l] = A[l]
    for l in seq(0, 8):
        C[l] = B[l]
"""
        )
        g = ps["f"].replace_all(ps["vcopy"])
        calls = [s for s in IR.walk_stmts(g.ir().body) if isinstance(s, IR.Call)]
        assert len(calls) == 2
        assert_equiv(
            ps["f"], g,
            lambda rng: [rand_f32(rng, 8), rand_f32(rng, 8), rand_f32(rng, 8)],
        )


class TestStrides:
    """A callee's ``stride(x, d)`` must be the caller's stride of the
    buffer ``x`` is bound to, at the dimension ``d`` lands on."""

    SRC = """
@proc
def setcfg(n: size, dst: [f32][4, n] @ DRAM):
    Cfg.s = stride(dst, 0)
    for i in seq(0, n):
        dst[0, i] = 0.0

@proc
def f(A: f32[4, 16] @ DRAM, B: f32[4, 32] @ DRAM):
    Cfg.s = stride({}, 0)
    for i in seq(0, 16):
        A[0, i] = 0.0
"""

    @pytest.fixture
    def cfg(self):
        return Config("Cfg", [("s", T.stride_t)])

    def _replace(self, cfg, buf):
        ps = _procs(self.SRC.format(buf), extra={"Cfg": cfg})
        f = ps["f"]
        return f, f.replace(ps["setcfg"], BlockCursor(f, (("body", 0),), n=2))

    def test_stride_of_the_bound_buffer_replaced(self, cfg):
        f, g = self._replace(cfg, "A")
        assert _call_line(g) == "setcfg(16, A[0:4, 0:16])"
        for p in (f, g):
            a, b = np.zeros((4, 16), np.float32), np.zeros((4, 32), np.float32)
            assert p.interpret(a, b)[(cfg, "s")] == 16

    def test_stride_of_another_buffer_rejected(self, cfg):
        """``f`` leaves ``Cfg.s`` at 32; ``setcfg(16, A[0:4, 0:16])``
        would set it to 16."""
        with pytest.raises(SchedulingError, match="stride"):
            self._replace(cfg, "B")


class TestLeafRules:
    """What the walk deliberately does not compare."""

    def test_par_loop_unifies_with_seq_loop(self):
        ps = _procs(
            """
@proc
def zero_row(m: size, dst: [f32][m] @ DRAM):
    for j in seq(0, m):
        dst[j] = 0.0

@proc
def f(A: f32[8, 8] @ DRAM):
    for i in seq(0, 8):
        for j in seq(0, 8):
            A[i, j] = 0.0
"""
        )
        par = ps["f"].parallelize("for j in _: _")
        assert any(s.kind == "par" for s in IR.walk_stmts(par.ir().body)
                   if isinstance(s, IR.For))
        g = par.replace(ps["zero_row"], "for j in _: _")
        assert _call_line(g) == "zero_row(8, A[i, 0:8])"

    def test_allocations_pair_whatever_their_memory_and_extents(self):
        ps = _procs(
            """
@proc
def dbl(n: size, x: [f32][n] @ DRAM):
    for i in seq(0, n):
        t: f32[4] @ DRAM
        t[0] = x[i] * 2.0
        x[i] = t[0]

@proc
def f(A: f32[8] @ DRAM):
    for i in seq(0, 8):
        s: f32[2] @ StaticMemory
        s[0] = A[i] * 2.0
        A[i] = s[0]
""",
            extra={"StaticMemory": StaticMemory},
        )
        g = ps["f"].replace(ps["dbl"], "for i in _: _")
        assert _call_line(g) == "dbl(8, A[0:8])"
        assert_equiv(ps["f"], g, lambda rng: [rand_f32(rng, 8)])

    def test_allocations_of_another_precision_rejected(self):
        # an f64 accumulator keeps the two +1.0s that f32 rounds away
        # at 2**24: pairing the allocations would change the result
        ps = _procs(
            """
@proc
def acc64(n: size, x: [f32][n] @ DRAM, y: [f32][1] @ DRAM):
    for i in seq(0, 1):
        t: f64 @ DRAM
        t = y[0]
        for k in seq(0, n):
            t += x[k]
        y[0] = t

@proc
def f(x: f32[2] @ DRAM, y: f32[1] @ DRAM):
    for i in seq(0, 1):
        t: f32 @ DRAM
        t = y[0]
        for k in seq(0, 2):
            t += x[k]
        y[0] = t
""",
            extra={"f64": T.f64},
        )
        x, y = np.ones(2, np.float32), np.full(1, 2.0**24, np.float32)
        ps["f"].interpret(x, y)
        assert y[0] == 2.0**24
        with pytest.raises(UnifyError, match="Alloc"):
            ps["f"].replace(ps["acc64"], "for i in _: _")

    def test_call_with_a_window_argument_rejected(self):
        ps = _procs(
            """
@proc
def zero4(x: [f32][4] @ DRAM):
    for i in seq(0, 4):
        x[i] = 0.0

@proc
def zero8(y: [f32][8] @ DRAM):
    zero4(y[0:4])
    zero4(y[4:8])

@proc
def f(A: f32[8] @ DRAM):
    zero4(A[0:4])
    zero4(A[4:8])
"""
        )
        f = ps["f"]
        with pytest.raises(SchedulingError, match="(?i)window"):
            f.replace(ps["zero8"], BlockCursor(f, (("body", 0),), n=2))


#: the attributes ``match`` compares on each node class: the walk's (by
#: name, identity or value), and a stride's, which only ``match_ctrl``
#: sees; windows, and the coordinates only they hold, are rejected
#: whatever their fields
COMPARED = {
    IR.Read: (), IR.Const: ("val",), IR.USub: (), IR.BinOp: ("op",),
    IR.Extern: ("f",), IR.StrideExpr: ("name", "dim"),
    IR.ReadConfig: ("config", "field"), IR.Assign: (), IR.Reduce: (),
    IR.WriteConfig: ("config", "field"), IR.Pass: (), IR.If: (),
    IR.For: (), IR.Alloc: (), IR.Call: ("proc",),
}
REJECTED = {IR.WindowExpr, IR.WindowStmt, IR.Interval, IR.Point}


@pytest.mark.parametrize("cls", node_classes(), ids=lambda c: c.__name__)
def test_every_attr_is_compared_or_skipped(cls):
    attrs = [name for name, _v in IR.attrs(blank_node(cls))]
    if cls in REJECTED:
        assert cls not in COMPARED and cls not in SKIP
        return
    skipped = [f for f in SKIP.get(cls, ()) if f in attrs]
    assert sorted(COMPARED[cls] + tuple(skipped)) == sorted(attrs)
    assert not set(COMPARED[cls]) & set(SKIP.get(cls, ()))


def _one_attr_apart():
    """(cls, field) -> a node and another value of that field."""
    cfg = Config("CfgU", [("a", T.index_t), ("b", T.index_t)])
    other = Config("CfgV", [("a", T.index_t)])
    one = IR.Const(1.0, T.f32)
    read = IR.ReadConfig(cfg, "a", T.f32)  # data-typed: the walk's, not match_ctrl's
    write = IR.WriteConfig(cfg, "a", IR.Const(1, T.index_t))
    call = IR.Call(IR.Proc("g", (), (), ()), ())
    return {
        (IR.Const, "val"): (one, 2.0),
        (IR.BinOp, "op"): (IR.BinOp("+", one, one, T.f32), "*"),
        (IR.Extern, "f"): (IR.Extern(relu, (one,), T.f32), fmax),
        (IR.ReadConfig, "config"): (read, other),
        (IR.ReadConfig, "field"): (read, "b"),
        (IR.WriteConfig, "config"): (write, other),
        (IR.WriteConfig, "field"): (write, "b"),
        (IR.Call, "proc"): (call, IR.Proc("h", (), (), ())),
    }


def test_every_walk_compared_attr_is_compared():
    cases = _one_attr_apart()
    assert set(cases) == {
        (cls, f) for cls, fields in COMPARED.items() for f in fields
        if cls is not IR.StrideExpr
    }
    callee = IR.Proc("callee", (), (), ())
    for (cls, fld), (node, value) in cases.items():
        _Unifier(callee).match(node, node)
        with pytest.raises(UnifyError):
            _Unifier(callee).match(node, IR.rebuild(node, **{fld: value}))
