"""The primitive scheduling operators (Fig. 2).

Every operator is an independent rewrite ``proc -> proc'`` paired with its
own safety condition (checked through :mod:`repro.effects.api`).  Operators
return ``(new_proc, polluted_fields, forwarder)``: a non-empty pollution
set records that the result is equivalent to the input only *modulo* those
config fields (Definition 4.2), which the provenance system tracks; the
:class:`~repro.scheduling.cursors.Forwarder` maps pre-rewrite statement
paths to post-rewrite paths (Exo 2 cursor forwarding) and reports which
paths the rewrite touched, which drives incremental re-checking.

Every operator builds its rewrite step with the shared :func:`_splice`
kernel (locate → rewrite → forward): the operator supplies the new
statements and an *interior map* (where each surviving statement of the
replaced region went), and ``_splice`` derives the new IR, the
:class:`~repro.scheduling.cursors.SpliceForwarder`, the touched set and
config dirtiness from that one edit.  A multi-step operator
(``fission_after``, ``lift_alloc``) composes one splice per step; the
whole-proc ``delete_pass`` is a :class:`~repro.scheduling.cursors.Sweep`;
an operator that only edits the signature returns the identity
:class:`~repro.scheduling.cursors.Forwarder`.  No operator builds a
forwarder by hand.  The caller
(:class:`repro.api.Procedure`) re-runs type checking and the front-end
safety checks after every rewrite (incrementally, using the forwarder),
so operators here may rely on well-typedness of their inputs and need not
re-establish expression types.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

from ..analysis.absint import prove
from ..core import ast as IR
from ..core import types as T
from ..core.dataflow import writes_config
from ..core.prelude import SchedulingError, Sym
from ..effects import api as EA
from ..effects.effects import EffectExtractor
from .cursors import (
    Forwarder,
    MapForwarder,
    SpliceForwarder,
    Sweep,
    compose,
    interior_identity,
    interior_insert,
)
from .pattern import StmtMatch, find_stmt, replace_expr_at
from .simplify import simplify_expr
from .unify import unify_call

NO_POLLUTION = frozenset()


def _splice(proc, path, old_count, new_stmts, interior=interior_identity,
            touched=None):
    """The shared rewrite kernel: replace ``old_count`` statements at
    ``path`` by ``new_stmts`` and compute the :class:`SpliceForwarder`
    describing the edit.

    ``interior`` maps region-relative paths of surviving statements (see
    :mod:`repro.scheduling.cursors`), or is None when the region's
    statements do not survive; ``touched`` overrides the default
    touched-set (every inserted statement); config-state dirtiness is
    derived from both sides of the splice."""
    fld, idx = path[-1]
    block = EA._block_at(proc, path)
    old_stmts = tuple(block[idx: idx + old_count])
    dirty = writes_config(old_stmts) or writes_config(new_stmts)
    new_proc = IR.replace_block(proc, path, old_count, list(new_stmts))
    fwd = SpliceForwarder(path, old_count, len(new_stmts), interior=interior,
                          touched=touched, ctx_dirty=dirty)
    return new_proc, fwd


def _the_loop(proc, match: StmtMatch, what) -> IR.For:
    s = IR.get_stmt(proc, match.path)
    if not isinstance(s, IR.For):
        msg = f"{what}: pattern must match a for-loop"
        origin = getattr(match, "origin", None)
        if origin:
            msg += f" (offending pattern: {origin!r})"
        raise SchedulingError(msg)
    return s


def _c(v: int) -> IR.Const:
    return IR.Const(v, T.int_t)


def _read(sym: Sym) -> IR.Read:
    return IR.Read(sym, (), T.index_t)


# ---------------------------------------------------------------------------
# Loop structure
# ---------------------------------------------------------------------------


def split(proc, match: StmtMatch, quot: int, hi_name: str, lo_name: str,
          tail: str = "guard"):
    """``for i in seq(0, N)`` -> a ``quot``-wide two-level nest.

    ``tail``: 'perfect' proves ``quot | N``; 'guard' wraps the body in a
    bounds guard; 'cut' emits a separate remainder loop.
    """
    loop = _the_loop(proc, match, "split")
    if not (isinstance(loop.lo, IR.Const) and loop.lo.val == 0):
        raise SchedulingError("split: loop must start at 0")
    if quot <= 1:
        raise SchedulingError("split: factor must be > 1")
    hi_sym, lo_sym = Sym(hi_name), Sym(lo_name)
    point = IR.BinOp(
        "+",
        IR.BinOp("*", _c(quot), _read(hi_sym), T.index_t),
        _read(lo_sym),
        T.index_t,
    )
    body = IR.subst_stmts({loop.iter: point}, loop.body)
    n = loop.hi
    if tail == "perfect":
        EA.check_condition(
            proc,
            match.path,
            IR.BinOp("==", IR.BinOp("%", n, _c(quot), T.index_t), _c(0), T.bool_t),
            "split(perfect): trip count not divisible by factor",
        )
        inner = IR.For(lo_sym, _c(0), _c(quot), body, loop.srcinfo)
        outer = IR.For(
            hi_sym, _c(0), IR.BinOp("/", n, _c(quot), T.index_t), (inner,),
            loop.srcinfo,
        )
        new_proc, fwd = _splice(
            proc, match.path, 1, [outer],
            interior=interior_insert((("body", 0),)),
        )
        return new_proc, NO_POLLUTION, fwd
    if tail == "guard":
        guard = IR.If(
            IR.BinOp("<", point, n, T.bool_t), body, (), loop.srcinfo
        )
        inner = IR.For(lo_sym, _c(0), _c(quot), (guard,), loop.srcinfo)
        ceil = IR.BinOp(
            "/",
            IR.BinOp("+", n, _c(quot - 1), T.index_t),
            _c(quot),
            T.index_t,
        )
        outer = IR.For(hi_sym, _c(0), ceil, (inner,), loop.srcinfo)
        new_proc, fwd = _splice(
            proc, match.path, 1, [outer],
            interior=interior_insert((("body", 0), ("body", 0))),
        )
        return new_proc, NO_POLLUTION, fwd
    if tail == "cut":
        main_trips = IR.BinOp("/", n, _c(quot), T.index_t)
        inner = IR.For(lo_sym, _c(0), _c(quot), body, loop.srcinfo)
        outer = IR.For(hi_sym, _c(0), main_trips, (inner,), loop.srcinfo)
        tail_sym = Sym(lo_name + "t")
        tail_point = IR.BinOp(
            "+",
            IR.BinOp("*", _c(quot), main_trips, T.index_t),
            _read(tail_sym),
            T.index_t,
        )
        tail_body = IR.alpha_rename(
            IR.subst_stmts({loop.iter: tail_point}, loop.body)
        )
        tail_count = IR.BinOp("%", n, _c(quot), T.index_t)
        tail_loop = IR.For(tail_sym, _c(0), tail_count, tail_body, loop.srcinfo)
        # the main copy keeps the old body (one level down); the tail copy
        # is an alpha-renamed duplicate, so old interior cursors map to the
        # main copy
        new_proc, fwd = _splice(
            proc, match.path, 1, [outer, tail_loop],
            interior=interior_insert((("body", 0),)),
        )
        return new_proc, NO_POLLUTION, fwd
    raise SchedulingError(f"split: unknown tail strategy {tail!r}")


def parallelize(proc, match: StmtMatch):
    """Mark a loop parallel (``kind="par"``): codegen then emits
    ``#pragma omp parallel for``.  Guarded by the race detector
    (:mod:`repro.analysis.parallel`): any two distinct iterations must be
    provably conflict-free on buffers, and the body must not write config
    state (hardware registers have no per-thread copy)."""
    from ..analysis.parallel import check_parallel_loop

    loop = _the_loop(proc, match, "parallelize")
    if getattr(loop, "kind", "seq") == "par":
        raise SchedulingError("parallelize: loop is already parallel")
    check_parallel_loop(proc, match.path, what="parallelize")
    # the statement tree is unchanged apart from the loop's kind flag, and
    # the race check just ran on the whole loop: nothing to re-verify
    new_proc, fwd = _splice(
        proc, match.path, 1, [dc_replace(loop, kind="par")], touched=()
    )
    return new_proc, NO_POLLUTION, fwd


def reorder_loops(proc, match: StmtMatch):
    """Swap two perfectly nested loops (§5.8 reorder condition)."""
    outer = _the_loop(proc, match, "reorder")
    if not (len(outer.body) == 1 and isinstance(outer.body[0], IR.For)):
        raise SchedulingError("reorder: loops are not perfectly nested")
    EA.check_reorder_loops(proc, match.path)
    inner = outer.body[0]
    new_inner = dc_replace(outer, body=inner.body)
    new_outer = dc_replace(inner, body=(new_inner,))

    def interior(rel):
        if len(rel) == 1:
            return (rel[0], ("body", 0))  # old outer -> now nested inside
        if len(rel) == 2 and rel[1] == ("body", 0):
            return (rel[0],)  # old inner -> now outermost
        return rel  # the loop body keeps its two-deep position

    new_proc, fwd = _splice(proc, match.path, 1, [new_outer], interior=interior)
    return new_proc, NO_POLLUTION, fwd


def unroll(proc, match: StmtMatch):
    """Fully unroll a constant-bound loop."""
    loop = _the_loop(proc, match, "unroll")
    lo, hi = simplify_expr(loop.lo), simplify_expr(loop.hi)
    if not (isinstance(lo, IR.Const) and isinstance(hi, IR.Const)):
        raise SchedulingError("unroll: loop bounds must be constant")
    copies = []
    for v in range(lo.val, hi.val):
        body = IR.subst_stmts({loop.iter: _c(v)}, loop.body)
        copies.extend(IR.alpha_rename(body))
    new_proc, fwd = _splice(proc, match.path, 1, copies, interior=None)
    return new_proc, NO_POLLUTION, fwd


def partition_loop(proc, match: StmtMatch, cut: int):
    """``for i in lo,hi`` -> ``for i in lo,lo+cut ; for i in lo+cut,hi``."""
    loop = _the_loop(proc, match, "partition_loop")
    cut_pt = simplify_expr(IR.BinOp("+", loop.lo, _c(cut), T.index_t))
    EA.check_condition(
        proc,
        match.path,
        IR.BinOp("<=", cut_pt, loop.hi, T.bool_t),
        "partition_loop: cut point exceeds loop bound",
    )
    first = dc_replace(loop, hi=cut_pt)
    it2 = loop.iter.copy()
    second = IR.For(
        it2,
        cut_pt,
        loop.hi,
        IR.alpha_rename(IR.subst_stmts({loop.iter: _read(it2)}, loop.body)),
        loop.srcinfo,
    )
    # the first half keeps the old loop's body; cursors map there
    new_proc, fwd = _splice(proc, match.path, 1, [first, second])
    return new_proc, NO_POLLUTION, fwd


def remove_loop(proc, match: StmtMatch):
    """``for i: s`` -> ``s`` when s is idempotent and runs >= once (§5.8)."""
    loop = _the_loop(proc, match, "remove_loop")
    EA.check_remove_loop(proc, match.path)

    def interior(rel):
        if len(rel) == 1:
            return None  # the loop itself is gone
        if rel[1][0] != "body":
            return None
        return ((rel[0][0], rel[1][1]),) + tuple(rel[2:])  # body moves up

    new_proc, fwd = _splice(
        proc, match.path, 1, list(loop.body), interior=interior
    )
    return new_proc, NO_POLLUTION, fwd


def fuse_loops(proc, match: StmtMatch):
    """Fuse two adjacent loops with identical bounds."""
    loop1 = _the_loop(proc, match, "fuse_loop")
    fld, idx = match.path[-1]
    block = EA._block_at(proc, match.path)
    if idx + 1 >= len(block) or not isinstance(block[idx + 1], IR.For):
        raise SchedulingError("fuse_loop: no adjacent loop to fuse with")
    loop2 = block[idx + 1]
    for a, b, what in ((loop1.lo, loop2.lo, "lower"), (loop1.hi, loop2.hi, "upper")):
        EA.check_condition(
            proc, match.path, IR.BinOp("==", a, b, T.bool_t),
            f"fuse_loop: {what} bounds differ",
        )
    body2 = IR.alpha_rename(
        IR.subst_stmts({loop2.iter: _read(loop1.iter)}, loop2.body)
    )
    fused = dc_replace(loop1, body=loop1.body + body2)

    def interior(rel):
        if rel[0][1] == 0:
            return rel  # loop1 (and its body prefix) keeps its slots
        return None  # loop2 was merged away (its body alpha-renamed)

    new_proc, fwd = _splice(proc, match.path, 2, [fused], interior=interior)
    EA.check_fission(new_proc, match.path, len(loop1.body), what="fuse_loop")
    return new_proc, NO_POLLUTION, fwd


def fission_after(proc, match: StmtMatch, n_lifts: int = 1):
    """Split enclosing loops after the matched statement (§5.8 fission)."""
    path = list(match.path)
    end_idx = path[-1][1] + match.count - 1
    path[-1] = (path[-1][0], end_idx)
    fwds = []
    for _ in range(n_lifts):
        if len(path) < 2:
            raise SchedulingError("fission_after: no enclosing loop to fission")
        loop_path = tuple(path[:-1])
        loop = IR.get_stmt(proc, loop_path)
        if not isinstance(loop, IR.For):
            raise SchedulingError(
                "fission_after: enclosing statement is not a for-loop "
                "(fission through if-statements is not supported)"
            )
        split_idx = path[-1][1] + 1
        if split_idx >= len(loop.body):
            path = list(loop_path)
            continue
        pre_allocs = {
            s.name
            for s in loop.body[:split_idx]
            if isinstance(s, (IR.Alloc, IR.WindowStmt))
        }
        if pre_allocs & IR.free_vars(loop.body[split_idx:]):
            raise SchedulingError(
                "fission_after: the second half uses a buffer allocated in "
                "the first half (lift the allocation out of the loop first)"
            )
        EA.check_fission(proc, loop_path, split_idx)
        pre = loop.body[:split_idx]
        post = loop.body[split_idx:]
        it2 = loop.iter.copy()
        post = IR.alpha_rename(
            IR.subst_stmts({loop.iter: _read(it2)}, post)
        )
        first = dc_replace(loop, body=pre)
        second = IR.For(it2, loop.lo, loop.hi, post, loop.srcinfo)

        def interior(rel, _k=split_idx):
            if len(rel) == 1:
                return rel  # the loop -> the first (pre) loop
            if rel[1][0] != "body":
                return rel
            j = rel[1][1]
            if j < _k:
                return rel  # pre statements stay under the first loop
            # post statements move into the second loop (alpha-renamed
            # copies, still structurally the same statements)
            return (
                (rel[0][0], rel[0][1] + 1), ("body", j - _k)
            ) + tuple(rel[2:])

        proc, fwd = _splice(
            proc, loop_path, 1, [first, second], interior=interior
        )
        fwds.append(fwd)
        path = list(loop_path)
    return proc, NO_POLLUTION, compose(*fwds)


def lift_if(proc, match: StmtMatch):
    """``for i: if c: s`` -> ``if c: for i: s`` (c independent of i)."""
    loop = _the_loop(proc, match, "lift_if")
    if not (len(loop.body) == 1 and isinstance(loop.body[0], IR.If)):
        raise SchedulingError("lift_if: loop body must be a single if")
    guard = loop.body[0]
    if loop.iter in IR.expr_reads(guard.cond):
        raise SchedulingError("lift_if: condition depends on the loop iterator")
    new_then = dc_replace(loop, body=guard.body)
    new_else = ()
    if guard.orelse:
        it2 = loop.iter.copy()
        new_else = (
            IR.For(
                it2,
                loop.lo,
                loop.hi,
                IR.alpha_rename(
                    IR.subst_stmts({loop.iter: _read(it2)}, guard.orelse)
                ),
                loop.srcinfo,
            ),
        )
    lifted = IR.If(guard.cond, (new_then,), new_else, guard.srcinfo)

    def interior(rel):
        if len(rel) == 1:
            return (rel[0], ("body", 0))  # the loop -> the then-branch loop
        if rel[1] != ("body", 0):
            return None
        rest = tuple(rel[2:])
        if not rest:
            return (rel[0],)  # the guard -> the lifted if
        f2, j2 = rest[0]
        if f2 == "body":
            return (rel[0], ("body", 0), ("body", j2)) + rest[1:]
        return (rel[0], ("orelse", 0), ("body", j2)) + rest[1:]

    new_proc, fwd = _splice(proc, match.path, 1, [lifted], interior=interior)
    return new_proc, NO_POLLUTION, fwd


def add_guard(proc, match: StmtMatch, cond: IR.Expr):
    """``s`` -> ``if e: s`` where ``e`` provably holds whenever s runs."""
    EA.check_condition(proc, match.path, cond, "add_guard")
    block = EA._block_at(proc, match.path)
    idx = match.path[-1][1]
    stmts = list(block[idx : idx + match.count])
    guard = IR.If(cond, tuple(stmts), (), stmts[0].srcinfo)

    def interior(rel):
        return ((rel[0][0], 0), ("body", rel[0][1])) + tuple(rel[1:])

    new_proc, fwd = _splice(
        proc, match.path, match.count, [guard], interior=interior
    )
    return new_proc, NO_POLLUTION, fwd


# ---------------------------------------------------------------------------
# Statements & allocation
# ---------------------------------------------------------------------------


def reorder_stmts(proc, match: StmtMatch):
    """Swap the matched block with the statement that follows it."""
    block = EA._block_at(proc, match.path)
    idx = match.path[-1][1]
    if idx + match.count >= len(block):
        raise SchedulingError("reorder_stmts: nothing follows the matched block")
    EA.check_reorder_stmts(proc, match.path, match.count, 1)
    stmts = list(block[idx : idx + match.count])
    nxt = block[idx + match.count]

    def interior(rel, _n=match.count):
        fld, j = rel[0]
        if j < _n:
            return ((fld, j + 1),) + tuple(rel[1:])  # block slides right
        return ((fld, 0),) + tuple(rel[1:])  # the follower moves to front

    new_proc, fwd = _splice(
        proc, match.path, match.count + 1, [nxt] + stmts, interior=interior
    )
    return new_proc, NO_POLLUTION, fwd


def lift_alloc(proc, match: StmtMatch, n_lifts: int = 1):
    """Hoist an allocation out of enclosing loops/ifs (Fig. 2 lift_alloc)."""
    alloc = IR.get_stmt(proc, match.path)
    if not isinstance(alloc, IR.Alloc):
        raise SchedulingError("lift_alloc: pattern must match an allocation")
    path = tuple(match.path)
    fwds = []
    for _ in range(n_lifts):
        if len(path) < 2:
            raise SchedulingError("lift_alloc: no enclosing statement to lift out of")
        # the allocation's extents must not depend on enclosing binders
        parent_path = path[:-1]
        parent = IR.get_stmt(proc, parent_path)
        if isinstance(parent, IR.For):
            for h in alloc.type.shape():
                if parent.iter in IR.expr_reads(h):
                    raise SchedulingError(
                        "lift_alloc: allocation size depends on the loop iterator"
                    )
        bf, ai = path[-1]
        blk = IR.get_block(parent, bf)
        rest = dc_replace(parent, **{bf: blk[:ai] + blk[ai + 1:]})

        def interior(rel, _bf=bf, _ai=ai):
            (fld, _), sub = rel[0], tuple(rel[1:])
            if sub == ((_bf, _ai),):
                return ((fld, 0),)  # the alloc lands ahead of its parent
            if sub and sub[0][0] == _bf and sub[0][1] > _ai:
                sub = ((_bf, sub[0][1] - 1),) + sub[1:]  # closes the gap
            return ((fld, 1),) + sub

        # only the moved alloc is "touched": hoisting a binding cannot
        # invalidate obligations under the parent, whose own subtree merely
        # shifts one slot right
        proc, fwd = _splice(proc, parent_path, 1, [alloc, rest],
                            interior=interior, touched=(parent_path,))
        fwds.append(fwd)
        path = parent_path
    return proc, NO_POLLUTION, compose(*fwds)


def expand_dim(proc, match: StmtMatch, extent: IR.Expr, index: IR.Expr):
    """Give a per-iteration allocation one more dimension (Exo expand_dim):
    ``a : R`` inside a loop becomes ``a : R[extent]`` with every access
    indexed by ``index`` -- the enabling step before ``lift_alloc`` turns a
    loop-private scalar into a staged tile."""
    alloc = IR.get_stmt(proc, match.path)
    if not isinstance(alloc, IR.Alloc):
        raise SchedulingError("expand_dim: pattern must match an allocation")
    old_typ = alloc.type
    base = old_typ.basetype()
    new_shape = (extent,) + tuple(old_typ.shape())
    new_typ = T.Tensor(base, new_shape, False)
    new_alloc = dc_replace(alloc, type=new_typ)
    name = alloc.name

    def fn(node):
        if isinstance(node, IR.Read) and node.name is name:
            if not node.idx and old_typ.is_tensor_or_window():
                raise SchedulingError(
                    f"expand_dim: cannot expand {name}, which is passed "
                    f"whole to a call"
                )
            return dc_replace(node, idx=(index,) + node.idx)
        if isinstance(node, IR.StrideExpr) and node.name is name:
            return dc_replace(node, dim=node.dim + 1)
        if isinstance(node, IR.WindowExpr) and node.name is name:
            raise SchedulingError(
                "expand_dim: windows of the expanded buffer are not supported"
            )
        return node

    # rewrite the rest of the enclosing block after the allocation
    block = EA._block_at(proc, match.path)
    idx0 = match.path[-1][1]
    rest = IR.map_stmts(fn, block[idx0 + 1 :])
    new_stmts = [new_alloc] + list(rest)
    # same statement skeleton, but every access to the buffer gained an
    # index: the whole region is touched (the default), positions are stable
    new_proc, fwd = _splice(
        proc, match.path, len(block) - idx0, new_stmts
    )
    return new_proc, NO_POLLUTION, fwd


def delete_pass(proc):
    """Remove all Pass statements (keeping bodies non-empty).

    A whole-proc cleanup rather than a single splice, so its forwarding is
    the map a :class:`Sweep` records.  Deleting ``pass`` invalidates
    nothing: the touched set is empty."""

    def clean(sw, s, old, new):
        if isinstance(s, IR.Pass):
            return None
        if isinstance(s, IR.If):
            return dc_replace(
                s,
                body=sw.block(s.body, "body", old, new) or (IR.Pass(),),
                orelse=sw.block(s.orelse, "orelse", old, new),
            )
        if isinstance(s, IR.For):
            return dc_replace(
                s, body=sw.block(s.body, "body", old, new) or (IR.Pass(),)
            )
        return s

    sw = Sweep(clean)
    body = sw.block(proc.body, "body", (), ()) or (IR.Pass(),)
    return dc_replace(proc, body=body), NO_POLLUTION, MapForwarder(sw.mapping)


# ---------------------------------------------------------------------------
# Memory, precision, binding
# ---------------------------------------------------------------------------


def _find_alloc(proc, name: str):
    """Locate the allocation of ``name`` via the pattern machinery (the
    same search every other primitive's targets go through), or None when
    ``name`` is not an allocation (it may still be an argument)."""
    try:
        return find_stmt(proc, f"{name} : _")[0]
    except SchedulingError:
        return None


def set_memory(proc, name: str, mem):
    """Change the memory annotation of an allocation or argument."""
    m = _find_alloc(proc, name) if name.isidentifier() else None
    if m is not None:
        s = IR.get_stmt(proc, m.path)
        # annotations don't enter any proof obligation: nothing to recheck
        new_proc, fwd = _splice(
            proc, m.path, 1, [dc_replace(s, mem=mem)], touched=()
        )
        return new_proc, NO_POLLUTION, fwd
    new_args = []
    hit = False
    for a in proc.args:
        if str(a.name) == name:
            a = dc_replace(a, mem=mem)
            hit = True
        new_args.append(a)
    if not hit:
        raise SchedulingError(f"set_memory: no allocation or argument {name!r}")
    return dc_replace(proc, args=tuple(new_args)), NO_POLLUTION, Forwarder()


def set_precision(proc, name: str, typ: T.Type):
    """Specialize the scalar precision of a buffer (R -> f32 etc.)."""
    if not typ.is_real_scalar():
        raise SchedulingError("set_precision: target type must be a scalar type")

    def retype(t):
        if t.is_tensor_or_window():
            return T.Tensor(typ, t.hi, t.is_win())
        return typ

    m = _find_alloc(proc, name) if name.isidentifier() else None
    if m is not None:
        s = IR.get_stmt(proc, m.path)
        new_proc, fwd = _splice(
            proc, m.path, 1, [dc_replace(s, type=retype(s.type))]
        )
        return new_proc, NO_POLLUTION, fwd
    new_args = []
    hit = False
    for a in proc.args:
        if str(a.name) == name:
            a = dc_replace(a, type=retype(a.type))
            hit = True
        new_args.append(a)
    if not hit:
        raise SchedulingError(f"set_precision: no allocation or argument {name!r}")
    return dc_replace(proc, args=tuple(new_args)), NO_POLLUTION, Forwarder()


def bind_expr(proc, matches, new_name: str):
    """``s[e]`` -> ``a' : R ; a' = e ; s[e -> a']`` (Fig. 2 bind_expr)."""
    if not matches:
        raise SchedulingError("bind_expr: no expression matched")
    stmt_path = matches[0].path
    if any(m.path != stmt_path for m in matches):
        raise SchedulingError(
            "bind_expr: all occurrences must be within one statement"
        )
    expr = matches[0].expr
    if expr.type is None or not expr.type.is_real_scalar():
        raise SchedulingError("bind_expr: only scalar data expressions can be bound")
    sym = Sym(new_name)
    stmt = IR.get_stmt(proc, stmt_path)
    for m in matches:
        stmt = replace_expr_at(stmt, m.expr_path, IR.Read(sym, (), expr.type))
    alloc = IR.Alloc(sym, expr.type, None, expr.srcinfo)
    assign = IR.Assign(sym, (), expr, expr.srcinfo)
    new_proc, fwd = _splice(
        proc, stmt_path, 1, [alloc, assign, stmt],
        interior=lambda rel: ((rel[0][0], 2),) + tuple(rel[1:]),
    )
    return new_proc, NO_POLLUTION, fwd


def bind_config(proc, match, config, field: str):
    """``s[e]`` -> ``config.field = e ; s[e -> config.field]`` (Fig. 2)."""
    ftyp = config.field_type(field)
    expr = match.expr
    if expr.type is None or expr.type.is_numeric():
        raise SchedulingError("bind_config: only control expressions can be bound")
    EA.check_config_pollution(proc, match.path, [_csym(config, field)])
    stmt = IR.get_stmt(proc, match.path)
    stmt = replace_expr_at(
        stmt, match.expr_path, IR.ReadConfig(config, field, ftyp, expr.srcinfo)
    )
    wc = IR.WriteConfig(config, field, expr, expr.srcinfo)
    new_proc, fwd = _splice(
        proc, match.path, 1, [wc, stmt],
        interior=lambda rel: ((rel[0][0], 1),) + tuple(rel[1:]),
    )
    return new_proc, frozenset([_csym(config, field)]), fwd


def _csym(config, field):
    from ..core.ir2smt import config_sym

    return config_sym(config, field)


def configwrite_after(proc, match: StmtMatch, config, field: str, rhs: IR.Expr):
    """``s`` -> ``s ; config.field = e`` (§5.7 "new config write")."""
    EA.check_config_pollution(
        proc,
        (match.path[:-1] + ((match.path[-1][0], match.path[-1][1] + match.count - 1),)),
        [_csym(config, field)],
    )
    stmt = IR.get_stmt(proc, match.path)
    wc = IR.WriteConfig(config, field, rhs, stmt.srcinfo)
    block = EA._block_at(proc, match.path)
    idx = match.path[-1][1]
    stmts = list(block[idx : idx + match.count]) + [wc]
    new_proc, fwd = _splice(proc, match.path, match.count, stmts)
    return new_proc, frozenset([_csym(config, field)]), fwd


def configwrite_root(proc, config, field: str, rhs: IR.Expr):
    """Insert ``config.field = e`` at the start of the procedure."""
    wc = IR.WriteConfig(config, field, rhs, proc.srcinfo)
    new_proc, fwd = _splice(proc, (("body", 0),), 0, [wc])
    # the *original* body is the post-context of the inserted write
    EA.check_config_pollution(new_proc, (("body", 0),), [_csym(config, field)])
    return new_proc, frozenset([_csym(config, field)]), fwd


# ---------------------------------------------------------------------------
# Staging
# ---------------------------------------------------------------------------


def stage_mem(proc, match: StmtMatch, window: IR.WindowExpr, new_name: str):
    """Stage a window of a buffer through a new buffer around a block.

    Inserts ``new = buf[window]`` copy-in loops before the block and
    copy-out loops after it (as the block's reads/writes require),
    rewriting all accesses inside the block.  The effect analysis proves
    the block touches ``buf`` only within the window.
    """
    buf = window.name
    ctx = EA.Ctx.at(proc, match.path)
    view = ctx.tenv.view(buf)
    if view.root is not buf:
        raise SchedulingError("stage_mem: buffer must be an argument or allocation")
    buf_typ = ctx.tenv.type_of(buf)
    rank = len(buf_typ.shape())
    if len(window.idx) != rank:
        raise SchedulingError(
            f"stage_mem: window must give all {rank} coordinates of {buf}"
        )
    # compute the box and the new buffer's shape
    box = []
    shape = []
    offs = []
    ex = ctx.extractor()
    for w in window.idx:
        if isinstance(w, IR.Interval):
            lo_t, hi_t = ex._ctrl(w.lo), ex._ctrl(w.hi)
            box.append((lo_t, hi_t))
            shape.append(
                simplify_expr(IR.BinOp("-", w.hi, w.lo, T.index_t))
            )
            offs.append(w.lo)
        else:
            pt = ex._ctrl(w.pt)
            box.append((pt, _succ(pt)))
            offs.append(w.pt)
            shape.append(None)
    block = list(
        EA._block_at(proc, match.path)[
            match.path[-1][1] : match.path[-1][1] + match.count
        ]
    )
    eff = ex.block_effect(block)
    EA.check_contained(ctx, eff, buf, rank, box, "stage_mem")
    reads, writes = _access_kinds(eff, buf)

    sym = Sym(new_name)
    iv_shape = [h for h in shape if h is not None]
    new_typ = (
        T.Tensor(buf_typ.basetype(), tuple(iv_shape), False)
        if iv_shape
        else buf_typ.basetype()
    )
    alloc = IR.Alloc(sym, new_typ, None, window.srcinfo)

    def copy_loops(store: bool):
        iters = [Sym(f"i{d}") for d in range(len(iv_shape))]
        src_idx = []
        k = 0
        for w, off in zip(window.idx, offs):
            if isinstance(w, IR.Interval):
                src_idx.append(
                    simplify_expr(
                        IR.BinOp("+", off, _read(iters[k]), T.index_t)
                    )
                )
                k += 1
            else:
                src_idx.append(off)
        dst_idx = tuple(_read(it) for it in iters)
        if store:
            inner = IR.Assign(
                buf, tuple(src_idx), IR.Read(sym, dst_idx, new_typ.basetype()),
                window.srcinfo,
            )
        else:
            inner = IR.Assign(
                sym, dst_idx, IR.Read(buf, tuple(src_idx), buf_typ.basetype()),
                window.srcinfo,
            )
        out = inner
        for it, extent in zip(reversed(iters), reversed(iv_shape)):
            out = IR.For(it, _c(0), extent, (out,), window.srcinfo)
        return out

    # rewrite accesses within the block
    new_block = _rewrite_accesses(block, buf, sym, window.idx)
    stmts = [alloc]
    if reads or (writes and not _covers(ctx, eff, buf, rank, box)):
        stmts.append(copy_loops(store=False))
    off = len(stmts)  # alloc + optional copy-in precede the block
    stmts.extend(new_block)
    if writes:
        stmts.append(copy_loops(store=True))
    new_proc, fwd = _splice(
        proc, match.path, match.count, stmts,
        interior=lambda rel: ((rel[0][0], rel[0][1] + off),) + tuple(rel[1:]),
    )
    return new_proc, NO_POLLUTION, fwd


def _succ(t):
    from ..smt import terms as S

    return S.add(t, S.IntC(1))


def _access_kinds(eff, buf):
    """Does ``eff`` (reads, writes) ``buf``?  A reduce does both."""
    from ..effects.effects import ERead, EReduce, EWrite, leaves

    kinds = {type(leaf) for leaf, _ctx in leaves(eff)
             if isinstance(leaf, (ERead, EWrite, EReduce)) and leaf.buf is buf}
    return bool(kinds - {EWrite}), bool(kinds - {ERead})


def _covers(ctx, eff, buf, rank, box) -> bool:
    """Does the block definitely write the whole box? (if so, no copy-in is
    needed even when the block writes the buffer)"""
    from ..effects.effects import mem
    from ..smt import terms as S

    p = EA.fresh_point(rank)
    inside = S.conj(
        *[S.conj(S.ge(pi, lo), S.lt(pi, hi)) for pi, (lo, hi) in zip(p, box)]
    )
    written = mem(eff, "w", buf, p)
    return prove(ctx.assumptions, S.implies(inside, written), "rewrite")


def _rewrite_accesses(block, buf: Sym, new: Sym, widx):
    """Rewrite accesses of ``buf`` into the staged buffer coordinates
    (``stride(buf, d)`` stays on ``buf``)."""
    if any(isinstance(s, IR.WindowStmt) and s.rhs.name is buf
           for s in IR.walk_stmts(block)):
        raise SchedulingError(
            "stage_mem: windows of the staged buffer inside the "
            "block are not supported"
        )
    # the staged offset of each kept (interval) coordinate; points drop out
    offs = [w.lo if isinstance(w, IR.Interval) else None for w in widx]

    def shift(e, off):
        return simplify_expr(IR.BinOp("-", e, off, T.index_t))

    def fn(node):
        if isinstance(node, IR.Read) and node.name is buf:
            if not node.idx:
                raise SchedulingError(
                    "stage_mem: cannot stage a buffer passed whole to a call"
                )
            idx = tuple(shift(i, off) for i, off in zip(node.idx, offs)
                        if off is not None)
            return dc_replace(node, name=new, idx=idx)
        if isinstance(node, IR.WindowExpr) and node.name is buf:
            idx = tuple(
                IR.Interval(shift(w.lo, off), shift(w.hi, off))
                if isinstance(w, IR.Interval) else IR.Point(shift(w.pt, off))
                for w, off in zip(node.idx, offs) if off is not None
            )
            return dc_replace(node, name=new, idx=idx)
        return node

    return IR.map_stmts(fn, block)


# ---------------------------------------------------------------------------
# Procedures: inline, call_eqv & replace
# ---------------------------------------------------------------------------


def _win_compose_idx(wexpr: IR.WindowExpr, idx):
    """Root-buffer indices of an access at window coordinates ``idx``."""
    out = []
    k = 0
    for w in wexpr.idx:
        if isinstance(w, IR.Interval):
            out.append(
                simplify_expr(IR.BinOp("+", w.lo, idx[k], T.index_t))
            )
            k += 1
        else:
            out.append(w.pt)
    return tuple(out)


def _win_compose_widx(wexpr: IR.WindowExpr, widx):
    """Compose a window-of-a-window into a single window expression."""
    out = []
    k = 0
    for w in wexpr.idx:
        if isinstance(w, IR.Interval):
            inner = widx[k]
            k += 1
            if isinstance(inner, IR.Interval):
                out.append(
                    IR.Interval(
                        simplify_expr(IR.BinOp("+", w.lo, inner.lo, T.index_t)),
                        simplify_expr(IR.BinOp("+", w.lo, inner.hi, T.index_t)),
                    )
                )
            else:
                out.append(
                    IR.Point(
                        simplify_expr(IR.BinOp("+", w.lo, inner.pt, T.index_t))
                    )
                )
        else:
            out.append(IR.Point(w.pt))
    return IR.WindowExpr(wexpr.name, tuple(out), None, wexpr.srcinfo)


def _win_root_dim(wexpr: IR.WindowExpr, out_dim: int) -> int:
    k = 0
    for d, w in enumerate(wexpr.idx):
        if isinstance(w, IR.Interval):
            if k == out_dim:
                return d
            k += 1
    raise SchedulingError("window has no such dimension")


def _subst_buffer_window(stmts, formal: Sym, wexpr: IR.WindowExpr):
    """Substitute a window expression for a buffer formal throughout a block,
    composing accesses (so no intermediate window binding is needed and
    ``stride(formal, d)`` resolves to the root buffer's stride)."""

    def fn(node):
        if isinstance(node, IR.Read) and node.name is formal:
            if not node.idx:  # the whole buffer, passed on to a call
                return dc_replace(wexpr, srcinfo=node.srcinfo)
            return IR.Read(
                wexpr.name, _win_compose_idx(wexpr, list(node.idx)),
                node.type, node.srcinfo,
            )
        if isinstance(node, IR.WindowExpr) and node.name is formal:
            return _win_compose_widx(wexpr, list(node.idx))
        if isinstance(node, IR.StrideExpr) and node.name is formal:
            return IR.StrideExpr(
                wexpr.name, _win_root_dim(wexpr, node.dim), node.type,
                node.srcinfo,
            )
        return node

    return IR.map_stmts(fn, stmts)


def inline_call(proc, match: StmtMatch):
    """Inline a call site (Fig. 2 inline)."""
    call = IR.get_stmt(proc, match.path)
    if not isinstance(call, IR.Call):
        raise SchedulingError("inline: pattern must match a call")
    callee = call.proc
    env = {}
    windows = []
    for formal, actual in zip(callee.args, call.args):
        if formal.type.is_numeric() and not formal.type.is_real_scalar():
            if isinstance(actual, IR.Read) and not actual.idx:
                env[formal.name] = actual.name
            elif isinstance(actual, IR.WindowExpr):
                windows.append((formal.name, actual))
            else:
                raise SchedulingError("inline: unsupported buffer argument")
        elif formal.type.is_real_scalar():
            if isinstance(actual, IR.Read) and not actual.idx:
                env[formal.name] = actual.name
            else:
                raise SchedulingError(
                    "inline: scalar arguments must be variable names"
                )
        else:
            env[formal.name] = actual
    body = IR.subst_stmts(env, callee.body)
    for formal, wexpr in windows:
        body = _subst_buffer_window(body, formal, wexpr)
    body = IR.alpha_rename(body)
    new_proc, fwd = _splice(
        proc, match.path, 1, list(body), interior=None
    )
    return new_proc, NO_POLLUTION, fwd


def call_eqv(proc, match: StmtMatch, new_callee: IR.Proc, pollution: frozenset):
    """Swap a call's target for an equivalent procedure (§3.3 call_eqv).

    ``pollution`` is the set of config fields modulo which the two callees
    are equivalent (computed by the provenance system); the §6.2 context
    condition requires that no subsequent code reads those fields."""
    call = IR.get_stmt(proc, match.path)
    if not isinstance(call, IR.Call):
        raise SchedulingError("call_eqv: pattern must match a call")
    if len(call.proc.args) != len(new_callee.args):
        raise SchedulingError("call_eqv: procedures have different signatures")
    EA.check_config_pollution(proc, match.path, pollution)
    new_call = dc_replace(call, proc=new_callee)
    new_proc, fwd = _splice(proc, match.path, 1, [new_call])
    return new_proc, pollution, fwd


def replace(proc, match: StmtMatch, callee: IR.Proc):
    """Replace the matched block by a call to ``callee`` (§3.4), with the
    call's arguments found by unification.  The block's statements do not
    survive: cursors into it die, siblings shift."""
    call = unify_call(proc, match.path, match.count, callee)
    new_proc, fwd = _splice(proc, match.path, match.count, [call],
                            interior=None)
    return new_proc, NO_POLLUTION, fwd
