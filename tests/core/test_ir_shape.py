"""The IR's shape: each node class's ``SLOTS`` declare its children once,
and ``children`` / ``rebuild`` derive every walk and rebuild from them;
``pair`` / ``attrs`` derive the two-tree comparisons (pattern matching,
alpha-equivalence)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import procs_from_source
from repro.apps import gemmini_conv, x86_conv
from repro.apps.gemmini_matmul import matmul_exo, matmul_oldlib
from repro.apps.x86_sgemm import sgemm_exo
from repro.core import ast as IR
from repro.core import types as T
from repro.scheduling.eqv import alpha_equiv
from repro.scheduling.pattern import find_expr

#: fields that hold an expression, a type or a procedure but are not
#: children: an expression's own type (a window's type holds extents its
#: coordinates determine) and a call's callee
NON_CHILDREN = {
    (IR.Read, "type"), (IR.Const, "type"), (IR.USub, "type"),
    (IR.BinOp, "type"), (IR.Extern, "type"), (IR.WindowExpr, "type"),
    (IR.StrideExpr, "type"), (IR.ReadConfig, "type"), (IR.Call, "proc"),
}

#: annotation words of fields that can hold expressions, window
#: coordinates or statement blocks
_HOLDERS = ("Expr", "WAccess", "Stmt", "Type", "Proc")

_KINDS = {IR.EXPR, IR.EXPRS, IR.COORDS, IR.EXTENTS, IR.BLOCK}


def _node_classes():
    out = []
    for obj in vars(IR).values():
        if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                and issubclass(obj, (IR.Expr, IR.Stmt, IR.WAccess))
                and obj not in (IR.Expr, IR.Stmt, IR.WAccess)):
            out.append(obj)
    return out


@pytest.mark.parametrize("cls", _node_classes(), ids=lambda c: c.__name__)
def test_every_child_field_is_a_slot_or_named_non_child(cls):
    fields = {f.name: str(f.type) for f in dataclasses.fields(cls)}
    slots = dict(cls.SLOTS)
    assert set(slots) <= set(fields), "a slot names a missing field"
    assert set(slots.values()) <= _KINDS
    for name, annotation in fields.items():
        if any(word in annotation for word in _HOLDERS):
            assert name in slots or (cls, name) in NON_CHILDREN, (
                f"{cls.__name__}.{name} ({annotation}) is neither a slot "
                f"nor a named non-child"
            )
    for name in slots:
        assert (cls, name) not in NON_CHILDREN


#: each node class's compared attributes: every field that is not a slot,
#: its ``srcinfo`` or an expression's own ``type``
ATTRS = {
    IR.Read: ("name",), IR.Const: ("val",), IR.USub: (), IR.BinOp: ("op",),
    IR.Extern: ("f",), IR.Interval: (), IR.Point: (),
    IR.WindowExpr: ("name",), IR.StrideExpr: ("name", "dim"),
    IR.ReadConfig: ("config", "field"), IR.Assign: ("name",),
    IR.Reduce: ("name",), IR.WriteConfig: ("config", "field"), IR.Pass: (),
    IR.If: (), IR.For: ("iter", "kind"), IR.Alloc: ("name", "mem"),
    IR.Call: ("proc",), IR.WindowStmt: ("name",),
}


def _blank(cls):
    """An instance of ``cls`` whose every field holds its own name."""
    node = object.__new__(cls)
    for f in dataclasses.fields(cls):
        object.__setattr__(node, f.name, f.name)
    return node


def test_attrs_table_covers_every_node_class():
    assert set(ATTRS) == set(_node_classes())


@pytest.mark.parametrize("cls", _node_classes(), ids=lambda c: c.__name__)
def test_every_field_is_a_slot_an_attr_or_bookkeeping(cls):
    fields = [f.name for f in dataclasses.fields(cls)]
    attrs = [name for name, _v in IR.attrs(_blank(cls))]
    assert tuple(attrs) == ATTRS[cls]
    kept = ["type"] if issubclass(cls, IR.Expr) else []
    kept += ["srcinfo"] if "srcinfo" in fields else []
    parts = [fld for fld, _kind in cls.SLOTS] + attrs + kept
    # each field is exactly one of the four
    assert sorted(parts) == sorted(fields)


GOLDEN = {
    "matmul_exo": matmul_exo, "matmul_oldlib": matmul_oldlib,
    "gemmini_conv_exo": gemmini_conv.conv_exo,
    "gemmini_conv_oldlib": gemmini_conv.conv_oldlib,
    "x86_conv_exo": x86_conv.conv_exo, "sgemm_exo": sgemm_exo,
}


def _expr_paths(node, prefix=()):
    """``(expr_path, expr)`` of every expression under ``node``, pre-order."""
    for step, c in IR.children(node):
        if type(c) is not tuple:
            yield prefix + (step,), c
            yield from _expr_paths(c, prefix + (step,))


@pytest.mark.parametrize("kernel", GOLDEN)
def test_addresses_round_trip(kernel):
    proc = GOLDEN[kernel]().ir()
    seen = []
    n_paths = 0
    for path, block, i in IR.walk_paths(proc.body):
        s = block[i]
        for ep, e in _expr_paths(s):
            n_paths += 1
            assert IR.get_expr(s, ep) is e
            assert IR.replace_expr(s, ep, e) is s
            if not isinstance(s, IR.Alloc):
                seen.append((path, ep, e))
    assert n_paths > 0
    # find_expr reports every expression outside allocation extents, at
    # the address the enumerator gives it, in the same order
    found = [(m.path, m.expr_path, m.expr) for m in find_expr(proc, "_")]
    assert len(found) == len(seen)
    for (p1, ep1, e1), (p2, ep2, e2) in zip(found, seen):
        assert (p1, ep1) == (p2, ep2) and e1 is e2


def test_replace_rebuilds_only_along_the_path():
    proc = sgemm_exo().ir()
    for _path, block, i in IR.walk_paths(proc.body):
        s = block[i]
        first = {}  # the first expression under each top-level slot
        for ep, e in _expr_paths(s):
            first.setdefault(ep[0], (ep, e))
        if len(first) >= 2:
            break
    (ep, e), (other, oe) = list(first.values())[:2]
    new = IR.replace_expr(s, ep, IR.Const(7, e.type, e.srcinfo))
    assert new is not s and IR.get_expr(new, ep).val == 7
    assert IR.get_expr(new, other) is oe


SRC = """
from __future__ import annotations
from repro import proc, DRAM, f32, size

@proc
def two(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = 0.0
    for j in seq(0, n):
        y[j] = 1.0

@proc
def tail(n: size, x: f32[n] @ DRAM):
    assert n >= 4
    for i in seq(0, n - 4):
        x[i + 4] = 0.0
"""


@pytest.fixture
def two():
    return procs_from_source(SRC)["two"]


@pytest.fixture
def tail():
    return procs_from_source(SRC)["tail"]


def test_untouched_sibling_is_shared(two):
    derived = two.split("for i in _: _", 4, "io", "ii")
    old, new = two.ir(), derived.ir()
    assert new is not old
    assert new.body[0] is not old.body[0]
    assert new.body[1] is old.body[1]
    # each revision keeps its own provenance node on its own Proc
    assert old.__dict__["_eqv"] is two._eqv
    assert new.__dict__["_eqv"] is derived._eqv


def test_a_revision_that_changes_nothing_gets_its_own_proc(two):
    again = two.simplify()
    assert again.ir() is not two.ir()
    assert again.ir().body is two.ir().body
    assert two.ir().__dict__["_eqv"] is two._eqv
    assert again.ir().__dict__["_eqv"] is again._eqv


def test_map_stmts_keeps_what_it_does_not_change(two):
    body = two.ir().body
    assert IR.map_stmts(lambda e: e, body) is body
    assert IR.map_stmts(lambda e: e, list(body)) == body


def test_an_affine_bound_in_normal_form_is_kept(tail):
    # ``n - 4`` reads a size: its normal form keeps that type, so once
    # normalized the loop is shared by every later revision
    once = tail.simplify()
    assert once.simplify().ir().body is once.ir().body


@pytest.mark.parametrize("kernel", GOLDEN)
def test_every_statement_is_alpha_equivalent_to_its_renamed_copy(kernel):
    proc = GOLDEN[kernel]().ir()
    n = 0
    for s in IR.walk_stmts(proc.body):
        (copy,) = IR.alpha_rename([s])
        assert alpha_equiv(s, copy)
        n += 1
    assert n > 0
    renamed = IR.alpha_rename(proc.body)
    assert renamed != proc.body and alpha_equiv(proc.body, renamed)


ACC = """
from __future__ import annotations
from repro import proc, DRAM, f32, size

@proc
def acc(n: size, x: f32[n] @ DRAM):
    t: f32[n] @ DRAM
    for i in seq(0, n):
        t[i] = x[i] + 2.0
    for i in seq(0, n):
        x[i] = t[i]
"""


def test_one_changed_attribute_breaks_alpha_equivalence():
    acc = procs_from_source(ACC)["acc"]
    body = acc.ir().body
    alloc, loop = body[0], body[1]
    (assign,) = loop.body
    binop = assign.rhs
    const = binop.rhs
    copy = IR.alpha_rename(body)
    assert alpha_equiv(body, copy)

    def with_loop(new_loop):
        return (alloc, new_loop, body[2])

    def with_rhs(rhs):
        return with_loop(IR.rebuild(loop, body=(IR.rebuild(assign, rhs=rhs),)))

    assert alpha_equiv(body, with_rhs(IR.rebuild(binop, rhs=const)))
    assert not alpha_equiv(body, with_loop(IR.rebuild(loop, kind="par")))
    assert not alpha_equiv(body, with_rhs(IR.rebuild(binop, op="-")))
    assert not alpha_equiv(
        body, with_rhs(IR.rebuild(binop, rhs=IR.rebuild(const, val=3.0)))
    )
    # an allocation's precision and window flag are not children, but count
    retyped = acc.set_precision("t", T.f64).ir().body
    assert alpha_equiv(body[1:], retyped[1:])
    assert not alpha_equiv(body, retyped)
    window = IR.rebuild(alloc, type=alloc.type.as_window())
    assert not alpha_equiv(body, (window,) + body[1:])
