"""LoopIR -- the core intermediate representation of Exo procedures.

The IR mirrors the formal core language of the paper (Fig. 3): sequencing,
guards, sequential ``for`` loops, allocation, array write/reduce, global
(config) writes, and sub-procedure calls; expressions are variables,
built-in operations, array reads, window expressions, stride expressions,
and config reads.

All nodes are immutable dataclasses carrying a :class:`SrcInfo`.  Statement
bodies are stored as tuples; rewrites construct new trees.  Statements inside
a procedure are addressed by *paths* -- sequences of ``(field, index)`` steps
from the procedure body -- which is how the pattern matcher communicates
locations to the scheduling primitives.
Each node class declares its children once, in ``SLOTS`` (below); every
structural walk and rebuild derives from them, and every structural
comparison from :func:`pair` and :func:`attrs`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields, replace as dc_replace
from operator import is_
from typing import Optional, Tuple

from .prelude import InternalError, SrcInfo, Sym, null_srcinfo
from . import types as T


# ---------------------------------------------------------------------------
# The IR's shape
# ---------------------------------------------------------------------------
#
# ``SLOTS`` lists a node class's children as ``(field, kind)`` pairs, in
# traversal order.  The kind fixes each child's *step*, its address within
# its parent and the step format of expression paths (``ExprCursor``,
# journalled ``PathRef.expr_path``s):
#
#   EXPR     an expression                  (field,)
#   EXPRS    a tuple of expressions         (field, i)
#   COORDS   a tuple of window coordinates  (field, i, sub): ``sub`` one of
#            the i-th coordinate's own slots (``lo``/``hi``, ``pt``)
#   EXTENTS  the extents of a tensor type   (field, i); none for a scalar
#   BLOCK    a statement block              (field,)

EXPR = "expr"
EXPRS = "exprs"
COORDS = "coords"
EXTENTS = "extents"
BLOCK = "block"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    SLOTS = ()


@dataclass(frozen=True)
class Read(Expr):
    """Read a variable; ``idx`` non-empty for tensor element reads."""

    name: Sym
    idx: Tuple["Expr", ...]
    type: T.Type
    srcinfo: SrcInfo = null_srcinfo

    SLOTS = (("idx", EXPRS),)


@dataclass(frozen=True)
class Const(Expr):
    val: object
    type: T.Type
    srcinfo: SrcInfo = null_srcinfo


@dataclass(frozen=True)
class USub(Expr):
    arg: Expr
    type: T.Type
    srcinfo: SrcInfo = null_srcinfo

    SLOTS = (("arg", EXPR),)


#: Binary operators of the core language.
BINOPS = ("+", "-", "*", "/", "%", "==", "<", ">", "<=", ">=", "and", "or")


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr
    type: T.Type
    srcinfo: SrcInfo = null_srcinfo

    SLOTS = (("lhs", EXPR), ("rhs", EXPR))

    def __post_init__(self):
        if self.op not in BINOPS:
            raise InternalError(f"unknown binop {self.op!r}")


@dataclass(frozen=True)
class Extern(Expr):
    """A call to a built-in data function (``relu``, ``select``, ...)."""

    f: object  # BuiltIn instance
    args: Tuple[Expr, ...]
    type: T.Type
    srcinfo: SrcInfo = null_srcinfo

    SLOTS = (("args", EXPRS),)


@dataclass(frozen=True)
class WAccess:
    """One coordinate of a window expression."""

    SLOTS = ()


@dataclass(frozen=True)
class Interval(WAccess):
    lo: Expr
    hi: Expr

    SLOTS = (("lo", EXPR), ("hi", EXPR))


@dataclass(frozen=True)
class Point(WAccess):
    pt: Expr

    SLOTS = (("pt", EXPR),)


@dataclass(frozen=True)
class WindowExpr(Expr):
    """``x[lo:hi, j]`` -- an aliasing view of a buffer (§3.1 item 4)."""

    name: Sym
    idx: Tuple[WAccess, ...]
    type: T.Type  # a window Tensor type
    srcinfo: SrcInfo = null_srcinfo

    SLOTS = (("idx", COORDS),)


@dataclass(frozen=True)
class StrideExpr(Expr):
    """``stride(x, dim)`` -- the dim-th stride of buffer/window ``x``."""

    name: Sym
    dim: int
    type: T.Type = T.stride_t
    srcinfo: SrcInfo = null_srcinfo


@dataclass(frozen=True)
class ReadConfig(Expr):
    config: object  # Config instance
    field: str
    type: T.Type = T.int_t
    srcinfo: SrcInfo = null_srcinfo


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stmt:
    SLOTS = ()


@dataclass(frozen=True)
class Assign(Stmt):
    name: Sym
    idx: Tuple[Expr, ...]
    rhs: Expr
    srcinfo: SrcInfo = null_srcinfo

    SLOTS = (("idx", EXPRS), ("rhs", EXPR))


@dataclass(frozen=True)
class Reduce(Stmt):
    """``x[i] += e`` -- commutative/associative reduction (§3.1 item 5)."""

    name: Sym
    idx: Tuple[Expr, ...]
    rhs: Expr
    srcinfo: SrcInfo = null_srcinfo

    SLOTS = (("idx", EXPRS), ("rhs", EXPR))


@dataclass(frozen=True)
class WriteConfig(Stmt):
    config: object
    field: str
    rhs: Expr
    srcinfo: SrcInfo = null_srcinfo

    SLOTS = (("rhs", EXPR),)


@dataclass(frozen=True)
class Pass(Stmt):
    srcinfo: SrcInfo = null_srcinfo


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    body: Tuple[Stmt, ...]
    orelse: Tuple[Stmt, ...] = ()
    srcinfo: SrcInfo = null_srcinfo

    SLOTS = (("cond", EXPR), ("body", BLOCK), ("orelse", BLOCK))


@dataclass(frozen=True)
class For(Stmt):
    """``for iter in seq(lo, hi): body`` -- a loop over ``[lo, hi)``.

    ``kind`` is ``"seq"`` for ordinary sequential loops and ``"par"`` for
    loops whose iterations have been proven independent (see
    :mod:`repro.analysis.parallel`); ``"par"`` loops compile to
    ``#pragma omp parallel for`` and may execute in any order."""

    iter: Sym
    lo: Expr
    hi: Expr
    body: Tuple[Stmt, ...]
    srcinfo: SrcInfo = null_srcinfo
    kind: str = "seq"

    SLOTS = (("lo", EXPR), ("hi", EXPR), ("body", BLOCK))


@dataclass(frozen=True)
class Alloc(Stmt):
    name: Sym
    type: T.Type
    mem: Optional[type] = None  # Memory subclass
    srcinfo: SrcInfo = null_srcinfo

    SLOTS = (("type", EXTENTS),)


@dataclass(frozen=True)
class Call(Stmt):
    proc: "Proc"
    args: Tuple[Expr, ...]
    srcinfo: SrcInfo = null_srcinfo

    SLOTS = (("args", EXPRS),)


@dataclass(frozen=True)
class WindowStmt(Stmt):
    """``y = x[lo:hi, ...]`` -- bind a window to a name."""

    name: Sym
    rhs: WindowExpr
    srcinfo: SrcInfo = null_srcinfo

    SLOTS = (("rhs", EXPR),)


# ---------------------------------------------------------------------------
# Procedures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FnArg:
    name: Sym
    type: T.Type
    mem: Optional[type] = None
    srcinfo: SrcInfo = null_srcinfo


@dataclass(frozen=True)
class InstrInfo:
    """The C template attached to an ``@instr`` procedure (§3.2.2)."""

    c_instr: str
    c_global: str = ""


@dataclass(frozen=True)
class Proc:
    name: str
    args: Tuple[FnArg, ...]
    preds: Tuple[Expr, ...]
    body: Tuple[Stmt, ...]
    instr: Optional[InstrInfo] = None
    srcinfo: SrcInfo = null_srcinfo

    def __str__(self):
        from .pprint import proc_to_str

        return proc_to_str(self)


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def children(node) -> list:
    """``(step, child)`` for every child of ``node``, in slot order: its
    expressions (window bounds and allocation extents included) and its
    statement blocks (tuples).  A value that is not a node -- a window
    bound a pattern left open (None) -- has no children."""
    out = []
    for fld, kind in getattr(node, "SLOTS", ()):
        v = getattr(node, fld)
        if kind == EXPR or kind == BLOCK:
            out.append(((fld,), v))
        elif kind == EXPRS:
            out += [((fld, i), c) for i, c in enumerate(v)]
        elif kind == COORDS:
            for i, w in enumerate(v):
                out += [((fld, i) + step, c) for step, c in children(w)]
        elif v.is_tensor_or_window():  # EXTENTS
            out += [((fld, i), c) for i, c in enumerate(v.hi)]
    return out


def _kept(old, new):
    """``old`` when the sequence ``new`` holds ``old``'s objects in order,
    else ``new`` as a tuple."""
    if type(old) is tuple and len(new) == len(old) and all(map(is_, new, old)):
        return old
    return tuple(new)


def rebuild(node, fn=None, **fields):
    """``node`` with each child replaced by ``fn(step, child)`` (the pairs
    :func:`children` enumerates) and each of ``fields`` set -- or ``node``
    itself when nothing changed: every new value is the old object, a new
    sequence holding the old tuple's objects counts as the old tuple.

    A rewrite through it allocates only along the paths it changed:
    untouched subtrees, and the memos stored on them, are shared with the
    tree they came from.  ``fields`` override what ``fn`` gives."""
    if fn is not None:
        new = {}
        for fld, kind in getattr(node, "SLOTS", ()):
            v = getattr(node, fld)
            if kind == EXPR or kind == BLOCK:
                new[fld] = fn((fld,), v)
            elif kind == EXPRS:
                new[fld] = [fn((fld, i), c) for i, c in enumerate(v)]
            elif kind == COORDS:
                new[fld] = [
                    rebuild(w, lambda step, c, pre=(fld, i): fn(pre + step, c))
                    for i, w in enumerate(v)
                ]
            elif v.is_tensor_or_window():  # EXTENTS
                new[fld] = rebuild(
                    v, hi=[fn((fld, i), c) for i, c in enumerate(v.hi)]
                )
        fields = {**new, **fields}
    changed = {}
    for k, v in fields.items():
        old = getattr(node, k)
        if v is old:
            continue
        if isinstance(v, (tuple, list)):
            v = _kept(old, v)
            if v is old:
                continue
        changed[k] = v
    return dc_replace(node, **changed) if changed else node


def pair(a, b):
    """The aligned ``(step, child_a, child_b)`` of two nodes of one class,
    or None when their classes or any of their child steps differ (an
    index list of another length, an interval against a point, a tensor
    type against a scalar).  A block is one child, whatever its length."""
    if type(a) is not type(b):
        return None
    ca, cb = children(a), children(b)
    if len(ca) != len(cb):
        return None
    out = []
    for (step, x), (step_b, y) in zip(ca, cb):
        if step != step_b:
            return None
        out.append((step, x, y))
    return out


_ATTRS = {}


def attrs(node) -> list:
    """``(field, value)`` for each field of ``node`` that is neither a slot
    nor its ``srcinfo`` (nor an expression's own ``type``): the names,
    operators, literals, callees, configs, loop kinds and memories a
    structural comparison compares beside the children."""
    cls = type(node)
    names = _ATTRS.get(cls)
    if names is None:
        skip = {fld for fld, _kind in cls.SLOTS} | {"srcinfo"}
        if issubclass(cls, Expr):
            skip.add("type")
        names = _ATTRS[cls] = tuple(
            f.name for f in dc_fields(cls) if f.name not in skip
        )
    return [(f, getattr(node, f)) for f in names]


def sub_exprs(e: Expr):
    """Direct sub-expressions of ``e`` (window bounds included)."""
    return [c for _step, c in children(e)]


def stmt_exprs(s: Stmt):
    """All expressions appearing directly in statement ``s``."""
    return [c for _step, c in children(s) if type(c) is not tuple]


def sub_bodies(s: Stmt):
    """The statement blocks nested directly under ``s``, as (field, block)."""
    return [(fld, getattr(s, fld)) for fld, kind in s.SLOTS if kind == BLOCK]


def walk_exprs(e: Expr):
    """Yield ``e`` and every transitive sub-expression."""
    yield e
    for sub in sub_exprs(e):
        yield from walk_exprs(sub)


def walk_stmts(stmts):
    """Yield every statement in ``stmts``, depth-first, pre-order."""
    for s in stmts:
        yield s
        for _fld, blk in sub_bodies(s):
            yield from walk_stmts(blk)


def walk_paths(stmts):
    """Yield ``(path, block, i)`` for every statement position in
    ``stmts``, depth-first, pre-order: ``block[i]`` is the statement at
    ``path`` (top-level positions are ``(("body", i),)``)."""

    def go(prefix, fld, block):
        for i, s in enumerate(block):
            path = prefix + ((fld, i),)
            yield path, block, i
            for sub_fld, sub in sub_bodies(s):
                yield from go(path, sub_fld, sub)

    yield from go((), "body", stmts)


def expr_reads(e: Expr):
    """Names read by expression ``e`` (buffers, windows, control vars)."""
    out = set()
    for sub in walk_exprs(e):
        if isinstance(sub, (Read, WindowExpr, StrideExpr)):
            out.add(sub.name)
    return out


def free_vars(stmts) -> set:
    """Free variable names of a statement block (not bound within it)."""
    bound = set()
    free = set()

    def visit_block(block):
        newly = []
        for s in block:
            for e in stmt_exprs(s):
                free.update(expr_reads(e) - bound)
            if isinstance(s, (Assign, Reduce)) and s.name not in bound:
                free.add(s.name)
            if isinstance(s, (For, Alloc, WindowStmt)):
                newly.append(s.iter if isinstance(s, For) else s.name)
                bound.add(newly[-1])
            for _fld, blk in sub_bodies(s):
                visit_block(blk)
        bound.difference_update(newly)

    visit_block(list(stmts))
    return free


# ---------------------------------------------------------------------------
# Substitution and renaming
# ---------------------------------------------------------------------------


def map_expr(fn, e: Expr) -> Expr:
    """Rebuild ``e`` bottom-up, applying ``fn`` to every node (through
    :func:`rebuild`: a subtree ``fn`` leaves alone is kept)."""
    return fn(rebuild(e, lambda _step, c: map_expr(fn, c)))


def map_stmts(fn, stmts) -> tuple:
    """Rebuild a block, applying ``fn`` bottom-up (as :func:`map_expr`) to
    every expression in it: indices, right-hand sides, conditions, loop
    bounds, allocation shapes, call arguments and window bindings.  A
    statement, or the block, that ``fn`` leaves alone is kept.

    An ``Assign``/``Reduce`` target is passed to ``fn`` as
    ``Read(name, idx)`` (with no type) and must come back as a ``Read``,
    whose name and indices become the new target.  Binders (loop
    iterators, allocated and window names) are left alone.
    """

    def m(_step, c):
        return map_stmts(fn, c) if type(c) is tuple else map_expr(fn, c)

    out = []
    for s in stmts:
        if isinstance(s, (Assign, Reduce)):
            tgt = map_expr(fn, Read(s.name, s.idx, None, s.srcinfo))
            if not isinstance(tgt, Read):
                raise InternalError(f"cannot rewrite write target {s.name}")
            s = rebuild(s, name=tgt.name, idx=tgt.idx, rhs=map_expr(fn, s.rhs))
        else:
            s = rebuild(s, m)
        out.append(s)
    return _kept(stmts, out)


def _subst_fn(env: dict):
    """The node function of :func:`subst_expr` / :func:`subst_stmts`."""

    def fn(node):
        if isinstance(node, Read) and node.name in env:
            repl = env[node.name]
            if not node.idx:
                return repl if not isinstance(repl, Sym) else dc_replace(node, name=repl)
            if isinstance(repl, Sym):
                return dc_replace(node, name=repl)
            if isinstance(repl, Read) and not repl.idx:
                return dc_replace(node, name=repl.name)
            raise InternalError(f"cannot substitute indexed read of {node.name}")
        if isinstance(node, (WindowExpr, StrideExpr)) and node.name in env:
            repl = env[node.name]
            if isinstance(repl, Sym):
                return dc_replace(node, name=repl)
            if isinstance(repl, Read) and not repl.idx:
                return dc_replace(node, name=repl.name)
            raise InternalError(f"cannot substitute window of {node.name}")
        return node

    return fn


def subst_expr(env: dict, e: Expr) -> Expr:
    """Substitute reads of names in ``env`` (Sym -> Expr) within ``e``.

    A scalar ``Read`` of a mapped name becomes the mapped expression.  Reads
    with indices, windows, and stride expressions require the substituted
    value to itself be a name (``Read`` with no indices) or a window.
    """
    return map_expr(_subst_fn(env), e)


def subst_stmts(env: dict, stmts) -> tuple:
    """Substitute names through a statement block (no capture handling:
    callers must ensure bound names are fresh, e.g. via :func:`alpha_rename`).
    """
    return map_stmts(_subst_fn(env), stmts)


def alpha_rename(stmts) -> tuple:
    """Freshen every binder in a block, avoiding capture on later splices."""

    def renamer(env, inner):
        # a statement's expressions see ``env``, its blocks ``inner``
        return lambda _step, c: (
            rename_block(c, inner) if type(c) is tuple else subst_expr(env, c)
        )

    def rename_block(block, env):
        out = []
        for s in block:
            if isinstance(s, For):
                fresh = s.iter.copy()
                s = rebuild(s, renamer(env, {**env, s.iter: fresh}), iter=fresh)
            elif isinstance(s, If):
                s = rebuild(s, renamer(env, env))
            elif isinstance(s, (Alloc, WindowStmt)):
                fresh = s.name.copy()
                new = rebuild(s, lambda _step, e: subst_expr(env, e), name=fresh)
                env[s.name] = fresh
                s = new
            else:
                (s,) = subst_stmts(env, [s])
            out.append(s)
        return tuple(out)

    return rename_block(list(stmts), {})


# ---------------------------------------------------------------------------
# Path addressing
# ---------------------------------------------------------------------------
#
# A path is a tuple of (field, index) steps.  The first step's field is
# always "body" (the proc body); later steps navigate through If/For blocks.
# An expression path is a tuple of :func:`children` steps from a statement.


def get_block(container, field_name):
    if isinstance(container, Proc):
        if field_name != "body":
            raise InternalError(f"proc has no block field {field_name}")
        return container.body
    return getattr(container, field_name)


def get_stmt(proc: Proc, path) -> Stmt:
    """The statement a path points at."""
    node = proc
    for fld, idx in path:
        node = get_block(node, fld)[idx]
    return node


def block_at(proc: Proc, path):
    """The block holding the statement at ``path`` (the proc body for a
    top-level path)."""
    return get_block(get_stmt(proc, path[:-1]), path[-1][0])


def get_enclosing(proc: Proc, path):
    """The containers along a path: [proc, stmt, stmt, ...] (outermost first),
    excluding the final statement itself."""
    out = [proc]
    node = proc
    for fld, idx in path[:-1]:
        node = get_block(node, fld)[idx]
        out.append(node)
    return out


def get_expr(stmt: Stmt, expr_path):
    """The expression at ``expr_path`` (a tuple of :func:`children`
    steps) within ``stmt``."""
    node = stmt
    for step in expr_path:
        node = dict(children(node))[step]
    return node


def replace_expr(stmt: Stmt, expr_path, new_expr):
    """``stmt`` with the expression at ``expr_path`` replaced by
    ``new_expr``; only the nodes along the path are rebuilt."""
    if not expr_path:
        return new_expr
    head, rest = expr_path[0], expr_path[1:]
    return rebuild(
        stmt, lambda step, c: replace_expr(c, rest, new_expr) if step == head else c
    )


def replace_block(proc: Proc, path, count: int, new_stmts) -> Proc:
    """Splice ``new_stmts`` over ``count`` statements starting at ``path``."""

    def splice(container, steps):
        fld, idx = steps[0]
        block = list(get_block(container, fld))
        if len(steps) == 1:
            if idx + count > len(block):
                raise InternalError("replace_block: range out of bounds")
            block[idx : idx + count] = list(new_stmts)
        else:
            block[idx] = splice(block[idx], steps[1:])
        return dc_replace(container, **{fld: tuple(block)})

    if not path:
        raise InternalError("empty path")
    return splice(proc, list(path))


def stmts_after(proc: Proc, path):
    """All statements that execute after the statement at ``path`` within the
    procedure, in source order, from innermost block outward.

    This is ``PostEff``'s statement set (§6.1): for each enclosing block, the
    statements following the path's position in that block.
    """
    out = []
    node = proc
    containers = [(proc, path[0])]
    for i in range(len(path) - 1):
        fld, idx = path[i]
        node = get_block(node, fld)[idx]
        containers.append((node, path[i + 1]))
    # innermost-outward
    for container, (fld, idx) in reversed(containers):
        block = get_block(container, fld)
        out.extend(block[idx + 1 :])
    return out
