"""IR simplification: constant folding and affine normalization.

Scheduling rewrites (split, unroll, staging substitutions) leave index
arithmetic like ``16*io + ii - 16*io`` behind.  This pass folds constants,
cancels affine terms, prunes trivial guards, and keeps the generated C
readable -- the paper's stated goal of "human-readable C" (§3.1.2) depends
on it.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Optional

from ..core import ast as IR
from ..core import types as T
from ..core.dataflow import writes_config
from ..smt import linear as L
from ..smt.linear import Lin
from .cursors import MapForwarder, Sweep


def simplify_expr(e: IR.Expr) -> IR.Expr:
    """Bottom-up constant folding + affine normalization of control exprs."""
    e = IR.map_expr(_fold, e)
    if e.type is not None and e.type.is_indexable():
        types = {}
        lin = _linearize(e, types)
        if lin is not None:
            # an expression already in normal form is kept, not rebuilt
            norm = _from_linear(lin, e, types)
            return e if norm == e else norm
    return e


def _fold(e: IR.Expr) -> IR.Expr:
    if isinstance(e, IR.USub) and isinstance(e.arg, IR.Const):
        return dc_replace(e.arg, val=-e.arg.val)
    if not isinstance(e, IR.BinOp):
        return e
    l, r = e.lhs, e.rhs
    lc = isinstance(l, IR.Const)
    rc = isinstance(r, IR.Const)
    if lc and rc and e.op in ("+", "-", "*", "/", "%"):
        if e.op == "+":
            v = l.val + r.val
        elif e.op == "-":
            v = l.val - r.val
        elif e.op == "*":
            v = l.val * r.val
        elif e.op == "/":
            v = l.val // r.val if _is_int(l, r) else l.val / r.val
        else:
            v = l.val % r.val
        return IR.Const(v, e.type, e.srcinfo)
    if lc and rc and e.op in ("==", "<", ">", "<=", ">="):
        v = {
            "==": l.val == r.val,
            "<": l.val < r.val,
            ">": l.val > r.val,
            "<=": l.val <= r.val,
            ">=": l.val >= r.val,
        }[e.op]
        return IR.Const(v, T.bool_t, e.srcinfo)
    if e.op == "+":
        if lc and l.val == 0:
            return r
        if rc and r.val == 0:
            return l
    if e.op == "-" and rc and r.val == 0:
        return l
    if e.op == "*":
        if (lc and l.val == 0) or (rc and r.val == 0):
            return IR.Const(0, e.type, e.srcinfo)
        if lc and l.val == 1:
            return r
        if rc and r.val == 1:
            return l
    if e.op == "/" and rc and r.val == 1:
        return l
    if e.op == "and":
        if lc:
            return r if l.val else IR.Const(False, T.bool_t, e.srcinfo)
        if rc:
            return l if r.val else IR.Const(False, T.bool_t, e.srcinfo)
    if e.op == "or":
        if lc:
            return IR.Const(True, T.bool_t, e.srcinfo) if l.val else r
        if rc:
            return IR.Const(True, T.bool_t, e.srcinfo) if r.val else l
    return e


def _is_int(*es):
    return all(isinstance(x.val, int) for x in es)


def _linearize(e: IR.Expr, types=None) -> Optional[Lin]:
    """The :mod:`repro.smt.linear` row ``(const, {Sym: coeff})`` of a purely
    affine control expression, else None.

    Division, modulo, strides, and config reads make the expression
    non-affine for this purpose.  When given, ``types`` collects the type
    of each variable's reads.
    """
    if isinstance(e, IR.Const) and isinstance(e.val, int):
        return (e.val, {})
    if isinstance(e, IR.Read) and not e.idx:
        if types is not None:
            types[e.name] = e.type
        return (0, {e.name: 1})
    if isinstance(e, IR.USub):
        inner = _linearize(e.arg, types)
        return None if inner is None else L.lincomb((-1, inner))
    if isinstance(e, IR.BinOp) and e.op in ("+", "-", "*"):
        l, r = _linearize(e.lhs, types), _linearize(e.rhs, types)
        if l is None or r is None:
            return None
        if e.op != "*":
            return L.lincomb((1, l), (1 if e.op == "+" else -1, r))
        if not l[1]:
            return L.lincomb((l[0], r))
        if not r[1]:
            return L.lincomb((r[0], l))
    return None


def _from_linear(lin: Lin, orig: IR.Expr, types=None) -> IR.Expr:
    """The affine normal form of the row ``lin``: its terms by ``Sym.id``,
    the constant last.  A read of a variable in ``types`` gets that type,
    any other the type of ``orig``."""
    si = orig.srcinfo
    typ = orig.type
    const, coeffs = lin
    terms = sorted(
        ((k, v) for k, v in coeffs.items() if v), key=lambda p: p[0].id
    )
    out = None
    for sym, coeff in terms:
        read = IR.Read(sym, (), (types or {}).get(sym) or typ, si)
        part = (
            read
            if coeff == 1
            else IR.BinOp("*", IR.Const(abs(coeff), T.int_t, si), read, typ, si)
        )
        if out is None:
            out = part if coeff > 0 else IR.USub(part, typ, si)
        elif coeff > 0:
            out = IR.BinOp("+", out, part, typ, si)
        else:
            out = IR.BinOp("-", out, part, typ, si)
    if out is None:
        return IR.Const(const, typ if typ is not None else T.int_t, si)
    if const > 0:
        out = IR.BinOp("+", out, IR.Const(const, T.int_t, si), typ, si)
    elif const < 0:
        out = IR.BinOp("-", out, IR.Const(-const, T.int_t, si), typ, si)
    return out


def _simplify_stmt(sw: Sweep, s: IR.Stmt, old, new):
    """``s`` simplified, or None when it is dead; child blocks are rebuilt
    through ``sw`` so every statement's new path is recorded."""
    if isinstance(s, (IR.Assign, IR.Reduce)):
        return IR.rebuild(s, lambda step, e: _simplify_data(e)
                          if step == ("rhs",) else simplify_expr(e))
    if isinstance(s, IR.If):
        cond = simplify_expr(s.cond)
        if isinstance(cond, IR.Const):
            arm, dead = ("body", "orelse") if cond.val else ("orelse", "body")
            mark = len(sw.mapping)
            taken = sw.block(getattr(s, arm), arm, old, new, "body")
            if not taken:
                return None
            if getattr(s, dead) or len(taken) == 1:
                # the If changes shape, and the config state after it no
                # longer joins a dead arm
                sw.edits.append(new)
                sw.ctx_dirty = sw.ctx_dirty or writes_config(s)
                for k, d in enumerate(getattr(s, dead)):
                    sw.delete(d, old + ((dead, k),))
            if len(taken) == 1:
                # the one surviving statement takes the If's own place
                sw.lift(mark, new)
                return taken[0]
            # splice multi-statement blocks via a trivially-true guard
            return dc_replace(s, cond=IR.Const(True, T.bool_t, s.srcinfo),
                              body=taken, orelse=())
        body = sw.block(s.body, "body", old, new)
        orelse = sw.block(s.orelse, "orelse", old, new)
        if not body and not orelse:
            return None
        if not body:
            body = (IR.Pass(s.srcinfo),)
        return IR.rebuild(s, cond=cond, body=body, orelse=orelse)
    if isinstance(s, IR.For):
        lo = simplify_expr(s.lo)
        hi = simplify_expr(s.hi)
        if (
            isinstance(lo, IR.Const)
            and isinstance(hi, IR.Const)
            and hi.val <= lo.val
        ):
            return None
        body = sw.block(s.body, "body", old, new)
        if not body:
            return None
        return IR.rebuild(s, lo=lo, hi=hi, body=body)
    if isinstance(s, (IR.Call, IR.WindowStmt)):
        return IR.rebuild(s, lambda _step, e: _simplify_arg(e))
    # WriteConfig values and Alloc extents are control expressions
    return IR.rebuild(s, lambda _step, e: simplify_expr(e))


def _simplify_data(e: IR.Expr) -> IR.Expr:
    """Simplify a data expression: fold index arithmetic inside reads."""

    def fn(node):
        if isinstance(node, IR.Read) and node.idx:
            return IR.rebuild(node, lambda _step, i: simplify_expr(i))
        return _fold(node)

    return IR.map_expr(fn, e)


def _simplify_arg(e: IR.Expr) -> IR.Expr:
    if isinstance(e, IR.WindowExpr):
        return IR.rebuild(e, lambda _step, b: simplify_expr(b))
    if e.type is not None and not e.type.is_numeric():
        return simplify_expr(e)
    return _simplify_data(e)


def simplify_proc(proc: IR.Proc):
    """Simplify and report forwarding: ``(new_proc, fwd)``.  ``fwd`` is
    the :class:`MapForwarder` the sweep recorded, or None when no
    statement was deleted or unwrapped (every path forwards unchanged)."""
    sw = Sweep(_simplify_stmt)
    new = IR.rebuild(proc, body=sw.block(proc.body, "body", (), ()))
    if not sw.edits:
        return new, None
    return new, MapForwarder(sw.mapping, sw.edits, sw.ctx_dirty)
