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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import Optional, Tuple

from .prelude import InternalError, SrcInfo, Sym, null_srcinfo
from . import types as T


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Read(Expr):
    """Read a variable; ``idx`` non-empty for tensor element reads."""

    name: Sym
    idx: Tuple["Expr", ...]
    type: T.Type
    srcinfo: SrcInfo = null_srcinfo


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


#: Binary operators of the core language.
BINOPS = ("+", "-", "*", "/", "%", "==", "<", ">", "<=", ">=", "and", "or")


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr
    type: T.Type
    srcinfo: SrcInfo = null_srcinfo

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


@dataclass(frozen=True)
class WAccess:
    """One coordinate of a window expression."""


@dataclass(frozen=True)
class Interval(WAccess):
    lo: Expr
    hi: Expr


@dataclass(frozen=True)
class Point(WAccess):
    pt: Expr


@dataclass(frozen=True)
class WindowExpr(Expr):
    """``x[lo:hi, j]`` -- an aliasing view of a buffer (§3.1 item 4)."""

    name: Sym
    idx: Tuple[WAccess, ...]
    type: T.Type  # a window Tensor type
    srcinfo: SrcInfo = null_srcinfo


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
    pass


@dataclass(frozen=True)
class Assign(Stmt):
    name: Sym
    idx: Tuple[Expr, ...]
    rhs: Expr
    srcinfo: SrcInfo = null_srcinfo


@dataclass(frozen=True)
class Reduce(Stmt):
    """``x[i] += e`` -- commutative/associative reduction (§3.1 item 5)."""

    name: Sym
    idx: Tuple[Expr, ...]
    rhs: Expr
    srcinfo: SrcInfo = null_srcinfo


@dataclass(frozen=True)
class WriteConfig(Stmt):
    config: object
    field: str
    rhs: Expr
    srcinfo: SrcInfo = null_srcinfo


@dataclass(frozen=True)
class Pass(Stmt):
    srcinfo: SrcInfo = null_srcinfo


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    body: Tuple[Stmt, ...]
    orelse: Tuple[Stmt, ...] = ()
    srcinfo: SrcInfo = null_srcinfo


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


@dataclass(frozen=True)
class Alloc(Stmt):
    name: Sym
    type: T.Type
    mem: Optional[type] = None  # Memory subclass
    srcinfo: SrcInfo = null_srcinfo


@dataclass(frozen=True)
class Call(Stmt):
    proc: "Proc"
    args: Tuple[Expr, ...]
    srcinfo: SrcInfo = null_srcinfo


@dataclass(frozen=True)
class WindowStmt(Stmt):
    """``y = x[lo:hi, ...]`` -- bind a window to a name."""

    name: Sym
    rhs: WindowExpr
    srcinfo: SrcInfo = null_srcinfo


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


def sub_exprs(e: Expr):
    """Direct sub-expressions of ``e`` (window bounds included)."""
    if isinstance(e, Read):
        return list(e.idx)
    if isinstance(e, USub):
        return [e.arg]
    if isinstance(e, BinOp):
        return [e.lhs, e.rhs]
    if isinstance(e, Extern):
        return list(e.args)
    if isinstance(e, WindowExpr):
        out = []
        for w in e.idx:
            if isinstance(w, Interval):
                out += [w.lo, w.hi]
            else:
                out.append(w.pt)
        return out
    return []


def stmt_exprs(s: Stmt):
    """All expressions appearing directly in statement ``s``."""
    if isinstance(s, (Assign, Reduce)):
        return list(s.idx) + [s.rhs]
    if isinstance(s, WriteConfig):
        return [s.rhs]
    if isinstance(s, If):
        return [s.cond]
    if isinstance(s, For):
        return [s.lo, s.hi]
    if isinstance(s, Alloc):
        return list(s.type.shape()) if s.type.is_tensor_or_window() else []
    if isinstance(s, Call):
        return list(s.args)
    if isinstance(s, WindowStmt):
        return [s.rhs]
    return []


def sub_bodies(s: Stmt):
    """The statement blocks nested directly under ``s``, as (field, block)."""
    if isinstance(s, If):
        out = [("body", s.body)]
        if s.orelse:
            out.append(("orelse", s.orelse))
        return out
    if isinstance(s, For):
        return [("body", s.body)]
    return []


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

    def visit_e(e):
        for sub in walk_exprs(e):
            if isinstance(sub, (Read, WindowExpr, StrideExpr)):
                if sub.name not in bound:
                    free.add(sub.name)

    def visit_block(block):
        newly = []
        for s in block:
            for e in stmt_exprs(s):
                visit_e(e)
            if isinstance(s, (Assign, Reduce)):
                if s.name not in bound:
                    free.add(s.name)
            if isinstance(s, For):
                bound.add(s.iter)
                newly.append(s.iter)
                visit_block(s.body)
            elif isinstance(s, If):
                visit_block(s.body)
                visit_block(s.orelse)
            elif isinstance(s, (Alloc, WindowStmt)):
                bound.add(s.name)
                newly.append(s.name)
        for n in newly:
            bound.discard(n)

    visit_block(list(stmts))
    return free


# ---------------------------------------------------------------------------
# Substitution and renaming
# ---------------------------------------------------------------------------


def map_expr(fn, e: Expr) -> Expr:
    """Rebuild ``e`` bottom-up, applying ``fn`` to every node."""
    if isinstance(e, Read):
        e2 = dc_replace(e, idx=tuple(map_expr(fn, i) for i in e.idx))
    elif isinstance(e, USub):
        e2 = dc_replace(e, arg=map_expr(fn, e.arg))
    elif isinstance(e, BinOp):
        e2 = dc_replace(e, lhs=map_expr(fn, e.lhs), rhs=map_expr(fn, e.rhs))
    elif isinstance(e, Extern):
        e2 = dc_replace(e, args=tuple(map_expr(fn, a) for a in e.args))
    elif isinstance(e, WindowExpr):
        widx = []
        for w in e.idx:
            if isinstance(w, Interval):
                widx.append(Interval(map_expr(fn, w.lo), map_expr(fn, w.hi)))
            else:
                widx.append(Point(map_expr(fn, w.pt)))
        e2 = dc_replace(e, idx=tuple(widx))
    else:
        e2 = e
    return fn(e2)


def map_stmts(fn, stmts) -> tuple:
    """Rebuild a block, applying ``fn`` bottom-up (as :func:`map_expr`) to
    every expression in it: indices, right-hand sides, conditions, loop
    bounds, allocation shapes, call arguments and window bindings.

    An ``Assign``/``Reduce`` target is passed to ``fn`` as
    ``Read(name, idx)`` (with no type) and must come back as a ``Read``,
    whose name and indices become the new target.  Binders (loop
    iterators, allocated and window names) are left alone.
    """

    def m(e):
        return map_expr(fn, e)

    out = []
    for s in stmts:
        if isinstance(s, (Assign, Reduce)):
            tgt = m(Read(s.name, s.idx, None, s.srcinfo))
            if not isinstance(tgt, Read):
                raise InternalError(f"cannot rewrite write target {s.name}")
            s = dc_replace(s, name=tgt.name, idx=tgt.idx, rhs=m(s.rhs))
        elif isinstance(s, (WriteConfig, WindowStmt)):
            s = dc_replace(s, rhs=m(s.rhs))
        elif isinstance(s, If):
            s = dc_replace(s, cond=m(s.cond), body=map_stmts(fn, s.body),
                           orelse=map_stmts(fn, s.orelse))
        elif isinstance(s, For):
            s = dc_replace(s, lo=m(s.lo), hi=m(s.hi), body=map_stmts(fn, s.body))
        elif isinstance(s, Alloc) and s.type.is_tensor_or_window():
            typ = s.type
            shape = tuple(m(h) for h in typ.shape())
            s = dc_replace(s, type=T.Tensor(typ.basetype(), shape, typ.is_win()))
        elif isinstance(s, Call):
            s = dc_replace(s, args=tuple(m(a) for a in s.args))
        out.append(s)
    return tuple(out)


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

    def rename_block(block, env):
        out = []
        for s in block:
            if isinstance(s, For):
                fresh = s.iter.copy()
                env2 = dict(env)
                env2[s.iter] = fresh
                out.append(
                    dc_replace(
                        s,
                        iter=fresh,
                        lo=subst_expr(env, s.lo),
                        hi=subst_expr(env, s.hi),
                        body=rename_block(s.body, env2),
                    )
                )
            elif isinstance(s, If):
                out.append(
                    dc_replace(
                        s,
                        cond=subst_expr(env, s.cond),
                        body=rename_block(s.body, env),
                        orelse=rename_block(s.orelse, env),
                    )
                )
            elif isinstance(s, Alloc):
                fresh = s.name.copy()
                env[s.name] = fresh
                typ = s.type
                if typ.is_tensor_or_window():
                    typ = T.Tensor(
                        typ.basetype(),
                        tuple(subst_expr(env, h) for h in typ.shape()),
                        typ.is_win(),
                    )
                out.append(dc_replace(s, name=fresh, type=typ))
            elif isinstance(s, WindowStmt):
                fresh = s.name.copy()
                rhs = subst_expr(env, s.rhs)
                env[s.name] = fresh
                out.append(dc_replace(s, name=fresh, rhs=rhs))
            else:
                out.extend(subst_stmts(env, [s]))
        return tuple(out)

    return rename_block(list(stmts), {})


# ---------------------------------------------------------------------------
# Path addressing
# ---------------------------------------------------------------------------
#
# A path is a tuple of (field, index) steps.  The first step's field is
# always "body" (the proc body); later steps navigate through If/For blocks.


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


def get_enclosing(proc: Proc, path):
    """The containers along a path: [proc, stmt, stmt, ...] (outermost first),
    excluding the final statement itself."""
    out = [proc]
    node = proc
    for fld, idx in path[:-1]:
        node = get_block(node, fld)[idx]
        out.append(node)
    return out


def replace_block(proc: Proc, path, count: int, new_stmts) -> Proc:
    """Splice ``new_stmts`` over ``count`` statements starting at ``path``."""

    def rebuild(container, steps):
        fld, idx = steps[0]
        block = list(get_block(container, fld))
        if len(steps) == 1:
            if idx + count > len(block):
                raise InternalError("replace_block: range out of bounds")
            block[idx : idx + count] = list(new_stmts)
        else:
            block[idx] = rebuild(block[idx], steps[1:])
        if isinstance(container, Proc):
            return dc_replace(container, body=tuple(block))
        return dc_replace(container, **{fld: tuple(block)})

    if not path:
        raise InternalError("empty path")
    return rebuild(proc, list(path))


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
