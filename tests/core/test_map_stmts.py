"""``ast.map_stmts``: the one block rewriter reaches every expression."""

from __future__ import annotations

from dataclasses import replace as dc_replace

import pytest

from repro.api import procs_from_source
from repro.core import ast as IR
from repro.core import types as T
from repro.core.configs import Config
from repro.core.prelude import InternalError, Sym

CFG = Config("CfgM", [("v", T.index_t)])

SRC = """
from __future__ import annotations
from repro import proc, DRAM, f32, size

@proc
def g(k: size, y: [f32][k] @ DRAM):
    for j in seq(0, k):
        y[j] = 0.0

@proc
def f(n: size, x: f32[n, 8] @ DRAM):
    CfgM.v = n
    for i in seq(0, n):
        t: f32[n]
        t[i] = x[i, 0]
        x[i, 1] += t[i]
        if stride(x, 0) == 8:
            w = x[i, 0:4]
            g(4, w)
            g(4, x[i, 4:8])
"""


@pytest.fixture
def f():
    return procs_from_source(SRC, extra_globals={"CfgM": CFG})["f"].ir()


def _rename(env):
    def fn(node):
        if isinstance(node, (IR.Read, IR.WindowExpr, IR.StrideExpr)) \
                and node.name in env:
            return dc_replace(node, name=env[node.name])
        return node

    return fn


def test_map_stmts_reaches_every_expression(f):
    n, x = (a.name for a in f.args)
    env = {n: Sym("n2"), x: Sym("x2")}
    body = IR.map_stmts(_rename(env), f.body)
    free = IR.free_vars(body)
    assert not free & {n, x}
    assert set(env.values()) <= free
    # the write targets were renamed too
    targets = {s.name for s in IR.walk_stmts(body)
               if isinstance(s, (IR.Assign, IR.Reduce))}
    assert env[x] in targets and x not in targets


def test_map_stmts_target_must_stay_a_read(f):
    def fn(node):
        if isinstance(node, IR.Read) and node.idx and str(node.name) == "t":
            return IR.Const(0.0, T.f32, node.srcinfo)
        return node

    with pytest.raises(InternalError, match="write target"):
        IR.map_stmts(fn, f.body)
