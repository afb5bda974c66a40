"""Compiled traces (``core/pygen.py``) against the interpreter oracle.

Every kernel is traced twice: by ``trace_kernel`` (the compiled trace) and
by the interpreter-driven :class:`Tracer`.  The traces must agree event for
event -- names, control values, and operand regions up to a bijective
renaming of buffer identities -- and so must the buffers the kernels leave
behind and, for Gemmini kernels, every field of the simulated result.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import as_strided

from repro.api import procs_from_source
from repro.core.configs import Config
from repro.core.interp import InterpError
from repro.core.pygen import _geometry, _region, _region_src, lower
from repro.core import types as T
from repro.machine.gemmini_sim import GemminiSim
from repro.machine.trace import Region, Tracer, _region_of, trace_kernel

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, instr, DRAM, f32, size\n"
)


def _procs(body, extra=None):
    return procs_from_source(HEADER + body, extra_globals=extra)


def assert_same_trace(got, want):
    assert len(got) == len(want)
    fwd, back = {}, {}
    for i, (g, w) in enumerate(zip(got, want)):
        assert (g.name, g.ctrl) == (w.name, w.ctrl), f"event {i}"
        assert g.operands.keys() == w.operands.keys(), f"event {i}"
        for op, rg in g.operands.items():
            rw = w.operands[op]
            assert fwd.setdefault(rg.base, rw.base) == rw.base, f"event {i} {op}"
            assert back.setdefault(rw.base, rg.base) == rg.base, f"event {i} {op}"
            assert dataclasses.replace(rg, base=rw.base) == rw, f"event {i} {op}"


def both(proc, ctrl, arrays):
    """Trace ``proc`` compiled and interpreted, each on its own copy of
    ``arrays``; check the traces and the final buffers agree.  Returns
    (compiled, oracle) traces."""
    mine = [a.copy() for a in arrays]
    ref = [a.copy() for a in arrays]
    got = trace_kernel(proc, *ctrl, *mine)
    want = Tracer().run(proc, *ctrl, *ref)
    assert_same_trace(got, want)
    for m, r in zip(mine, ref):
        np.testing.assert_array_equal(m, r)
    return got, want


def _i8(rng, shape):
    return rng.integers(-3, 4, shape).astype(np.int8)


def _f32(rng, shape):
    return rng.uniform(-1, 1, shape).astype(np.float32)


def _gemmini_matmul(name):
    from repro.apps import gemmini_matmul as gm

    return {
        "matmul_exo": gm.matmul_exo,
        "matmul_exo_blocked": lambda: gm.matmul_exo_blocked(2, 2),
        "matmul_oldlib": gm.matmul_oldlib,
    }[name]()


class TestAppKernels:
    @pytest.mark.parametrize("name", ["matmul_exo", "matmul_exo_blocked",
                                      "matmul_oldlib"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_gemmini_matmul(self, name, seed):
        rng = np.random.default_rng(seed)
        N, M, K = (int(x) * 32 for x in rng.integers(1, 4, 3))
        p = _gemmini_matmul(name)
        arrays = [_i8(rng, (N, K)), _i8(rng, (K, M)), np.zeros((N, M), np.int8)]
        events, oracle = both(p, (N, M, K), arrays)
        sim = GemminiSim()
        assert sim.run(events) == sim.run(oracle)
        assert sim.ideal_bound(events) == sim.ideal_bound(oracle)

    @pytest.mark.parametrize("name", ["conv_exo", "conv_oldlib"])
    def test_gemmini_conv(self, name):
        from repro.apps import gemmini_conv as gc

        p = getattr(gc, name)()
        rng = np.random.default_rng(3)
        B, OY, OX, OC, IC = 1, 2, 32, 32, 32
        arrays = [_i8(rng, (B, OY + 2, OX + 2, IC)), _i8(rng, (3, 3, IC, OC)),
                  np.zeros((B, OY, OX, OC), np.int8)]
        events, oracle = both(p, (B, OY, OX, OC, IC), arrays)
        assert GemminiSim().run(events) == GemminiSim().run(oracle)

    def test_x86_sgemm(self):
        """A non-instr callee (the micro-kernel) and Point accesses."""
        from repro.apps.x86_sgemm import sgemm_exo

        rng = np.random.default_rng(4)
        M, N, K = 12, 128, 5
        arrays = [_f32(rng, (M, K)), _f32(rng, (K, N)), _f32(rng, (M, N))]
        events, _ = both(sgemm_exo(6, 4), (M, N, K), arrays)
        # the broadcast operand is a data value read through a Point access
        fma = [e for e in events if e.name == "mm512_fmadd_bcast_ps"]
        assert fma and fma[0].ctrl["a"] == arrays[0][0, 0]

    def test_x86_conv(self):
        from repro.apps.x86_conv import conv_exo

        rng = np.random.default_rng(5)
        B, OY, OX, OC, IC = 1, 2, 8, 32, 3
        arrays = [_f32(rng, (B, OY + 2, OX + 2, IC)), _f32(rng, (3, 3, IC, OC)),
                  _f32(rng, (B, OY, OX, OC))]
        both(conv_exo(), (B, OY, OX, OC, IC), arrays)


INSTRS = """
@instr("vcopy({dst}, {src}, {n});")
def vcopy(n: size, src: [f32][n] @ DRAM, dst: [f32][n] @ DRAM):
    for i in seq(0, n):
        dst[i] = src[i]

@instr("vscale({v}, {x});")
def vscale(x: f32 @ DRAM, v: [f32][4, 4] @ DRAM):
    for i in seq(0, 4):
        for j in seq(0, 4):
            v[i, j] = x * v[i, j]
"""


class TestLowering:
    def test_window_of_window_and_points(self):
        p = _procs(INSTRS + """
@proc
def f(x: f32[8, 8] @ DRAM, y: f32[8, 8] @ DRAM):
    w = x[2:8, 1:7]
    ww = w[1:5, 2:6]
    for i in seq(0, 4):
        vcopy(4, ww[i, 0:4], y[i, 4:8])
    vcopy(3, w[0, 1:4], y[7, 0:3])
    vscale(ww[1, 1], y[0:4, 0:4])
""")["f"]
        rng = np.random.default_rng(6)
        events, _ = both(p, (), [_f32(rng, (8, 8)), _f32(rng, (8, 8))])
        assert [e.name for e in events] == ["vcopy"] * 5 + ["vscale"]

    def test_non_instr_callee_and_data_statements(self):
        """Windows, scalars and control values cross a non-instr call;
        data statements outside instruction bodies still execute."""
        p = _procs(INSTRS + """
@proc
def scale_rows(n: size, s: f32 @ DRAM, v: [f32][n, 4] @ DRAM):
    for i in seq(0, n):
        for j in seq(0, 4):
            v[i, j] = v[i, j] * s
    s = s + 1.0
    vcopy(4, v[n - 1, 0:4], v[0, 0:4])

@proc
def f(n: size, x: f32[n, 6] @ DRAM, acc: f32 @ DRAM):
    assert n >= 2
    t : f32
    t = 2.0
    scale_rows(n, t, x[0:n, 1:5])
    acc = t
    buf : f32[4, 4] @ DRAM
    for i in seq(0, 4):
        for j in seq(0, 4):
            buf[i, j] = x[i % 2, j]
    vscale(x[1, 2], buf[0:4, 0:4])
    for i in seq(0, n):
        acc += buf[i % 4, 3]
""")["f"]
        rng = np.random.default_rng(7)
        n = 3
        x = _f32(rng, (n, 6))
        acc = np.zeros((), np.float32)
        both(p, (n,), [x, acc])
        # the data statements ran: the callee wrote through the window
        out = x.copy()
        trace_kernel(p, n, out, acc.copy())
        assert out[0, 0] == x[0, 0] and out[1, 1] == x[1, 1] * 2

    def test_config_state(self):
        cfg = Config("CfgPygen", [("n", T.size_t)])
        p = _procs(INSTRS + """
@proc
def f(x: f32[8] @ DRAM, y: f32[8] @ DRAM):
    CfgPygen.n = 4
    for i in seq(0, CfgPygen.n):
        y[i] = x[i]
    vcopy(4, x[4:8], y[4:8])
""", extra={"CfgPygen": cfg})["f"]
        rng = np.random.default_rng(8)
        both(p, (), [_f32(rng, 8), np.zeros(8, np.float32)])

    def test_instr_traced_on_its_own(self):
        from repro.platforms.gemmini import ld_i8

        rng = np.random.default_rng(9)
        events, _ = both(ld_i8, (16, 8), [_i8(rng, (16, 8)), _i8(rng, (16, 16))])
        assert [e.name for e in events] == ["ld_i8"]

    def test_preconditions_checked(self):
        p = _procs(INSTRS + """
@proc
def f(n: size, x: f32[n] @ DRAM):
    assert n % 4 == 0
    vcopy(4, x[0:4], x[0:4])
""")["f"]
        with pytest.raises(InterpError, match="precondition"):
            trace_kernel(p, 6, np.zeros(6, np.float32))

    def test_lowered_once_on_first_trace(self):
        from repro.apps.gemmini_matmul import matmul_oldlib

        p = matmul_oldlib.__wrapped__()
        assert "_pygen" not in p.ir().__dict__  # not at derivation
        args = (16, 16, 16, np.zeros((16, 16), np.int8),
                np.zeros((16, 16), np.int8), np.zeros((16, 16), np.int8))
        trace_kernel(p, *args)
        fn = lower(p.ir())
        trace_kernel(p, *args)
        assert lower(p.ir()) is fn


class TestShapeCheck:
    """Arrays whose shape disagrees with the declared sizes are rejected
    with an error naming the argument (numpy would clamp the slices)."""

    def _args(self):
        return (32, 32, 32, np.zeros((16, 32), np.int8),
                np.zeros((32, 32), np.int8), np.zeros((32, 32), np.int8))

    def test_trace_rejects_wrong_shape(self):
        from repro.apps.gemmini_matmul import matmul_oldlib

        with pytest.raises(InterpError, match=r"argument A has shape \[16, 32\]"):
            trace_kernel(matmul_oldlib(), *self._args())

    def test_interpreter_rejects_wrong_shape(self):
        from repro.apps.gemmini_matmul import matmul_oldlib

        with pytest.raises(InterpError, match="argument A"):
            matmul_oldlib().interpret(*self._args())
        with pytest.raises(InterpError, match="argument A"):
            Tracer().run(matmul_oldlib(), *self._args())

    def test_rank_mismatch(self):
        from repro.apps.gemmini_matmul import matmul_oldlib

        args = list(self._args())
        args[3] = np.zeros((32, 32), np.int8)
        args[5] = np.zeros(32 * 32, np.int8)
        with pytest.raises(InterpError, match="argument C"):
            trace_kernel(matmul_oldlib(), *args)


class TestBufferIdentity:
    """Every dynamic allocation is its own buffer, in both tracers."""

    N = M = K = 32
    #: res per (io, jo); a and b per (io, jo, ko)
    ALLOCS = (N // 16) * (M // 16) * (1 + 2 * (K // 16))

    def _bases(self, events):
        return {r.base for e in events for r in e.operands.values()
                if r.space != "DRAM"}

    def _args(self):
        N, M, K = self.N, self.M, self.K
        return (N, M, K, np.zeros((N, K), np.int8), np.zeros((K, M), np.int8),
                np.zeros((N, M), np.int8))

    def test_oracle_numbers_every_alloc(self):
        from repro.apps.gemmini_matmul import matmul_oldlib

        events = Tracer().run(matmul_oldlib(), *self._args())
        assert len(self._bases(events)) == self.ALLOCS

    def test_compiled_numbers_every_alloc(self):
        from repro.apps.gemmini_matmul import matmul_oldlib

        events = trace_kernel(matmul_oldlib(), *self._args())
        assert len(self._bases(events)) == self.ALLOCS

    def test_aliasing_arguments_share_identity(self):
        p = _procs(INSTRS + """
@proc
def f(x: f32[8] @ DRAM, y: f32[8] @ DRAM):
    vcopy(4, x[0:4], y[4:8])
""")["f"]
        root = np.zeros(16, np.float32)
        (ev,) = trace_kernel(p, root[0:8], root[8:16])
        src, dst = ev.operands["src"], ev.operands["dst"]
        assert src.base == dst.base
        assert (src.lo, dst.lo) == (0, 48)
        (ev,) = trace_kernel(p, np.zeros(8, np.float32), np.zeros(8, np.float32))
        assert ev.operands["src"].base != ev.operands["dst"].base


@st.composite
def windows(draw):
    """(itemsize, element offset, shape, element strides) of a window: zero
    extents, zero and non-unit strides, and rows wider than their pitch
    (the degenerate case) all occur."""
    sz = draw(st.sampled_from([1, 2, 4, 8]))
    rank = draw(st.integers(1, 3))
    shape = draw(st.lists(st.integers(0, 5), min_size=rank, max_size=rank))
    strides = draw(st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 16]),
                            min_size=rank, max_size=rank))
    return sz, draw(st.integers(0, 40)), tuple(shape), tuple(strides)


class TestFoldedRegions:
    """A call site's Region is emitted with its geometry folded to literals
    (constant shapes and strides, as of allocations), read from locals
    (hoisted argument geometry) or computed by ``_region`` at run time; all
    of them must give ``machine.trace._region_of``'s Region of the numpy
    view the interpreter would pass."""

    @settings(max_examples=300, deadline=None)
    @given(windows())
    def test_folded_matches_region_of(self, window):
        sz, off, shape, strides = window
        span = 1 + sum((n - 1) * s for n, s in zip(shape, strides) if n > 0)
        root = np.zeros(off + span, np.dtype(f"i{sz}"))
        view = as_strided(root[off:], shape=shape,
                          strides=tuple(s * sz for s in strides))
        want = _region_of(view, "SCRATCHPAD")
        bid = want.base
        assert _region(bid, 0, sz, "SCRATCHPAD", off, shape, strides) == want
        geom = _geometry(sz, shape, strides)
        hoisted = {f"g{k}": v for k, v in enumerate(geom)}
        for lo, g in [(str(off * sz), tuple(map(str, geom))),  # all literal
                      ("o * sz", tuple(map(str, geom))),  # run-time start
                      ("o * sz", tuple(hoisted))]:  # hoisted geometry
            src = _region_src("bid", lo, "SCRATCHPAD", g)
            ns = {"_Region": Region, "bid": bid, "o": off, "sz": sz, **hoisted}
            assert eval(src, ns) == want, src

    def test_degenerate_rows(self):
        """A row of 3 elements at column 2 of a pitch of 4 spills into the
        next row: no rows model, just the span."""
        root = np.zeros(16, np.int8)
        view = as_strided(root[2:], shape=(2, 3), strides=(4, 1))
        r = _region_of(view, "DRAM")
        assert (r.pitch, r.col_lo, r.col_hi) == (0, 0, 0)
        assert _region(r.base, 0, 1, "DRAM", 2, (2, 3), (4, 1)) == r
        src = _region_src("bid", "2", "DRAM", tuple(map(str, _geometry(1, (2, 3), (4, 1)))))
        assert eval(src, {"_Region": Region, "bid": r.base}) == r


class TestStorage:
    """Only buffers whose values a trace can observe get storage."""

    SRC = INSTRS + """
@proc
def f(x: f32[4, 4] @ DRAM, y: f32[4, 4] @ DRAM):
    s : f32[2] @ DRAM
    s[1] = 3.0
    vscale(s[1], x[0:4, 0:4])
    t : f32[2] @ DRAM
    vscale(t[0], y[0:4, 0:4])
    u : f32[4, 4] @ DRAM
    w = u[0:4, 0:4]
    w[1, 2] = 5.0
    vscale(u[1, 2], y[0:4, 0:4])
    z : f32[4, 4] @ DRAM
    vscale(s[1], z[0:4, 0:4])
    vcopy(4, z[1, 0:4], x[2, 0:4])
"""

    def test_scalar_operand_of_written_buffer(self):
        """``s`` is written by a data statement and read as an
        instruction's scalar operand; ``t`` is only read, and ``u`` is
        written through a window: each needs storage, and the traces agree
        with the oracle (``t`` reads 0.0, ``u`` 5.0)."""
        p = _procs(self.SRC)["f"]
        rng = np.random.default_rng(10)
        events, _ = both(p, (), [_f32(rng, (4, 4)), _f32(rng, (4, 4))])
        assert [e.ctrl["x"] for e in events if e.name == "vscale"] == [
            3.0, 0.0, 5.0, 3.0]

    def test_instr_only_buffer_has_no_storage(self):
        """``z`` is reached only as instruction operands: it is numbered
        but never allocated."""
        p = _procs(self.SRC)["f"]
        src = lower(p.ir()).source
        assert src.count("_np_zeros(") == 3
        assert "z_" in src and "z_" not in "".join(
            line for line in src.splitlines() if "_np_zeros(" in line)
