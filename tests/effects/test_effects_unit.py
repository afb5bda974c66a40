"""Unit tests for effect extraction and membership formulas (§5)."""

from __future__ import annotations

import pytest

from repro.api import procs_from_source
from repro.core import ast as IR
from repro.effects.effects import (
    EMPTY,
    EGlobalWrite,
    EGuard,
    ELoop,
    ERead,
    EReduce,
    ESeq,
    EWrite,
    EffectExtractor,
    buffers_of,
    eff_subst,
    global_writes,
    gmem,
    gmem_exposed,
    globals_of,
    leaves,
    mem,
    rename_iter,
)
from repro.core.buffers import TypeEnv
from repro.core.prelude import Sym
from repro.smt import terms as S
from repro.smt.solver import DEFAULT_SOLVER

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, DRAM, f32, size\n"
)


def _p(body, extra=None):
    return list(procs_from_source(HEADER + body, extra_globals=extra).values())[-1]


def _effect(p):
    proc = p.ir()
    ex = EffectExtractor(TypeEnv(proc))
    return ex.block_effect(proc.body), proc


class TestExtraction:
    def test_assign_effect(self):
        eff, proc = _effect(
            _p(
                """
@proc
def f(x: f32[8] @ DRAM):
    x[3] = 1.0
"""
            )
        )
        assert isinstance(eff, EWrite)
        assert eff.idx == (S.IntC(3),)

    def test_reduce_effect_reads_rhs(self):
        eff, proc = _effect(
            _p(
                """
@proc
def f(x: f32[8] @ DRAM, y: f32[8] @ DRAM):
    x[0] += y[1]
"""
            )
        )
        assert isinstance(eff, ESeq)
        kinds = [type(e).__name__ for e in eff.parts]
        assert kinds == ["ERead", "EReduce"]

    def test_loop_effect_bounds(self):
        eff, proc = _effect(
            _p(
                """
@proc
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = 0.0
"""
            )
        )
        assert isinstance(eff, ELoop)
        assert eff.lo == S.IntC(0)

    def test_guard_effect(self):
        eff, proc = _effect(
            _p(
                """
@proc
def f(n: size, x: f32[8] @ DRAM):
    if n > 3:
        x[0] = 0.0
"""
            )
        )
        assert isinstance(eff, EGuard)

    def test_local_alloc_scoped_out(self):
        eff, proc = _effect(
            _p(
                """
@proc
def f(x: f32[8] @ DRAM):
    t: f32
    t = x[0]
    x[1] = t
"""
            )
        )
        bufs = buffers_of(eff)
        names = {str(b) for b in bufs}
        assert names == {"x"}

    def test_window_resolved_to_root(self):
        eff, proc = _effect(
            _p(
                """
@proc
def f(x: f32[8, 8] @ DRAM):
    y = x[2:6, 3]
    y[1] = 0.0
"""
            )
        )
        bufs = buffers_of(eff)
        (root,) = bufs
        assert str(root) == "x"
        assert bufs[root] == 2  # root rank, not window rank

    def test_call_effect_inlined_with_offsets(self):
        eff, proc = _effect(
            _p(
                """
@proc
def g(w: [f32][4] @ DRAM):
    w[2] = 0.0

@proc
def f(x: f32[8, 8] @ DRAM):
    g(x[1, 4:8])
"""
            )
        )
        # the write lands at x[1, 6]
        p0, p1 = S.Var(Sym("p0")), S.Var(Sym("p1"))
        formula = mem(eff, "w", _root(eff), [p0, p1])
        hit = S.conj(formula, S.eq(p0, S.IntC(1)), S.eq(p1, S.IntC(6)))
        assert DEFAULT_SOLVER.satisfiable(hit)
        miss = S.conj(formula, S.eq(p1, S.IntC(3)))
        assert not DEFAULT_SOLVER.satisfiable(miss)


def _root(eff):
    return next(iter(buffers_of(eff)))


class TestMembership:
    def _loop_eff(self):
        return _effect(
            _p(
                """
@proc
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n / 2):
        x[2 * i] = 0.0
"""
            )
        )

    def test_even_points_written(self):
        eff, proc = self._loop_eff()
        n = proc.args[0].name
        p = S.Var(Sym("p"))
        formula = mem(eff, "w", _root(eff), [p])
        # p = 4 written when n > 5 (i = 2 in range)
        assert DEFAULT_SOLVER.satisfiable(
            S.conj(formula, S.eq(p, S.IntC(4)), S.gt(S.Var(n), S.IntC(5)))
        )
        # odd p never written
        assert not DEFAULT_SOLVER.satisfiable(
            S.conj(formula, S.eq(p, S.IntC(3)))
        )

    def test_kind_filtering(self):
        eff, _ = self._loop_eff()
        p = S.Var(Sym("p"))
        assert mem(eff, "r", _root(eff), [p]) == S.FALSE
        assert mem(eff, "+", _root(eff), [p]) == S.FALSE

    def test_rename_iter(self):
        eff, _ = self._loop_eff()
        assert isinstance(eff, ELoop)
        new = Sym("i2")
        eff2 = rename_iter(eff.body, eff.iter, new)
        assert new in S.free_vars(eff2.idx[0])


class TestGlobals:
    def _cfg(self):
        from repro.core.configs import Config
        from repro.core import types as T

        return Config("CfgEff", [("v", T.int_t)])

    def test_global_write_read(self):
        cfg = self._cfg()
        eff, _ = _effect(
            _p(
                """
@proc
def f(n: size, x: f32[8] @ DRAM):
    CfgEff.v = n
    if CfgEff.v > 2:
        x[0] = 0.0
""",
                extra={"CfgEff": cfg},
            )
        )
        gs = globals_of(eff)
        assert len(gs) == 1
        (g,) = gs
        assert gmem(eff, "w", g) == S.TRUE
        assert gmem(eff, "r", g) == S.TRUE

    def test_exposed_reads_shadowed_by_write(self):
        cfg = self._cfg()
        eff, _ = _effect(
            _p(
                """
@proc
def f(n: size, x: f32[8] @ DRAM):
    CfgEff.v = n
    if CfgEff.v > 2:
        x[0] = 0.0
""",
                extra={"CfgEff": cfg},
            )
        )
        (g,) = globals_of(eff)
        # the read happens after a definite write: not exposed (this is the
        # sequencing subtraction of Definition 5.5 that makes §6.2 work)
        assert not DEFAULT_SOLVER.satisfiable(gmem_exposed(eff, g))

    def test_exposed_read_before_write(self):
        cfg = self._cfg()
        eff, _ = _effect(
            _p(
                """
@proc
def f(n: size, x: f32[8] @ DRAM):
    if CfgEff.v > 2:
        x[0] = 0.0
    CfgEff.v = n
""",
                extra={"CfgEff": cfg},
            )
        )
        (g,) = globals_of(eff)
        assert DEFAULT_SOLVER.satisfiable(gmem_exposed(eff, g))

    def test_guarded_write_not_definite_shadow(self):
        cfg = self._cfg()
        eff, _ = _effect(
            _p(
                """
@proc
def f(n: size, x: f32[8] @ DRAM):
    if n > 2:
        CfgEff.v = n
    if CfgEff.v > 2:
        x[0] = 0.0
""",
                extra={"CfgEff": cfg},
            )
        )
        (g,) = globals_of(eff)
        # a maybe-write does not shadow the later read
        assert DEFAULT_SOLVER.satisfiable(gmem_exposed(eff, g))


class TestLeaves:
    def _nest(self):
        x, i, j, c = Sym("x"), Sym("i"), Sym("j"), Sym("c")
        cond = S.lt(S.Var(i), S.IntC(4))
        write = EWrite(x, (S.Var(j),))
        cfg = EGlobalWrite(c, S.IntC(1))
        inner = ELoop(j, S.IntC(0), S.IntC(8), ESeq((write, EMPTY)))
        guard = EGuard(cond, ESeq((inner, cfg)))
        outer = ELoop(i, S.IntC(0), S.IntC(8), guard)
        return outer, guard, inner, write, cfg

    def test_skips_empty(self):
        assert list(leaves(EMPTY)) == []
        outer, _guard, _inner, write, cfg = self._nest()
        assert [leaf for leaf, _ctx in leaves(outer)] == [write, cfg]

    def test_ctx_outermost_first(self):
        outer, guard, inner, write, cfg = self._nest()
        assert dict(leaves(outer)) == {
            write: (outer, guard, inner),
            cfg: (outer, guard),
        }

    def test_global_writes_take_guards_and_loops_from_ctx(self):
        outer, guard, _inner, _write, cfg = self._nest()
        assert global_writes(outer, cfg.sym) == [
            ((guard.cond,), (outer,), cfg.value)
        ]
        assert global_writes(outer, Sym("c")) == []
