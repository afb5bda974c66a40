"""Cursors & forwarding: durable references into a procedure (Exo 2).

A :class:`Cursor` points at a statement, block, gap, or expression inside
one :class:`~repro.api.Procedure` *revision*.  Every rewrite — each
scheduling primitive and the post-rewrite simplifier alike — computes a
:class:`Forwarder` alongside its rewritten IR: a function from
pre-rewrite statement paths to post-rewrite paths.  Forwarders give us two
things at once:

* **Live cursors.**  ``p2.forward(cursor)`` composes the forwarders along
  the derivation chain from ``cursor.proc`` to ``p2``, so a cursor taken
  before a rewrite remains a valid handle afterwards — the prerequisite
  for composable user-defined scheduling operators.  Only a cursor to a
  statement the rewrite destroyed fails to forward.

* **Incremental re-checking.**  A forwarder also reports ``touched`` (the
  post-rewrite paths of the statements the rewrite inserted or rewrote)
  and ``ctx_dirty`` (whether config-state writes moved, which can change
  the dataflow facts of *later* statements).  :mod:`repro.core.checks`
  uses this to re-discharge only the safety obligations a rewrite could
  have invalidated.

A rewrite step comes from one of three places: a scheduling primitive's
``_splice`` (:mod:`repro.scheduling.primitives`), which builds a
:class:`SpliceForwarder` from the primitive's interior map; a
:class:`Sweep`, whose :class:`MapForwarder` records a whole-proc cleanup;
or the identity step, the base :class:`Forwarder`.  :func:`compose`
chains them along a derivation.

Paths are the same tuples of ``(field, index)`` steps used throughout
:mod:`repro.core.ast` (``get_stmt`` / ``replace_block``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Optional

from ..core import ast as IR
from ..core.dataflow import writes_config
from ..core.prelude import SchedulingError


class InvalidCursorError(SchedulingError):
    """A cursor could not be forwarded to this procedure revision (the
    statement it pointed at was destroyed, or the cursor belongs to an
    unrelated derivation chain)."""


# ---------------------------------------------------------------------------
# Forwarders
# ---------------------------------------------------------------------------


class Forwarder:
    """Maps statement paths in the pre-rewrite proc to paths in the
    post-rewrite proc.  The base class is the identity step, for rewrites
    that keep the statement tree's shape (rename, simplify, retyping an
    argument).

    ``touched`` — paths (in the *new* proc) of every statement the rewrite
    inserted or structurally rewrote; obligations outside these subtrees
    (and not downstream of a config-state change) keep their verdicts.

    ``ctx_dirty`` — True when the rewrite added, removed, or moved a
    config-state write, so the dataflow state of statements *after* the
    rewrite site may differ and their obligations must be re-proven.
    """

    def __init__(self, touched=(), ctx_dirty: bool = False):
        self.touched = tuple(touched)
        self.ctx_dirty = ctx_dirty

    def map_path(self, path: tuple) -> tuple:
        return path


class SpliceForwarder(Forwarder):
    """The workhorse: ``old_count`` statements at ``path`` were replaced by
    ``new_count`` statements.  Siblings after the region shift; paths into
    the region are mapped by ``interior`` — a function from region-relative
    paths (first step ``(field, offset)`` with ``0 <= offset < old_count``)
    to region-relative paths in the new region, or ``None`` when the
    statement was destroyed.  ``interior=None`` invalidates the whole
    region's interior."""

    def __init__(self, path, old_count: int, new_count: int,
                 interior: Optional[Callable] = None,
                 touched=None, ctx_dirty: bool = False):
        if touched is None:
            fld, idx = path[-1]
            touched = tuple(
                path[:-1] + ((fld, idx + k),) for k in range(new_count)
            )
        super().__init__(touched=touched, ctx_dirty=ctx_dirty)
        self.path = tuple(path)
        self.old_count = old_count
        self.new_count = new_count
        self.interior = interior

    def map_path(self, q):
        p = self.path
        n = len(p)
        fld, i = p[-1]
        if len(q) < n or q[: n - 1] != p[:-1] or q[n - 1][0] != fld:
            return q  # ancestor, or a disjoint subtree
        j = q[n - 1][1]
        if j < i:
            return q
        if j >= i + self.old_count:
            delta = self.new_count - self.old_count
            return q[: n - 1] + ((fld, j + delta),) + q[n:]
        if self.interior is None:
            raise InvalidCursorError(
                "cursor points into a region the rewrite destroyed"
            )
        rel = ((fld, j - i),) + q[n:]
        new_rel = self.interior(rel)
        if new_rel is None:
            raise InvalidCursorError(
                "cursor points at a statement the rewrite destroyed"
            )
        (rf, rj), rest = new_rel[0], tuple(new_rel[1:])
        return q[: n - 1] + ((rf, i + rj),) + rest


class MapForwarder(Forwarder):
    """An explicit old-path -> new-path dictionary over every statement of
    the old procedure (``None`` marks a deleted statement).  A
    :class:`Sweep` records it while a whole-proc cleanup — ``delete_pass``
    or the post-rewrite simplifier — rebuilds the statement tree."""

    def __init__(self, mapping: dict, touched=(), ctx_dirty: bool = False):
        super().__init__(touched=touched, ctx_dirty=ctx_dirty)
        self.mapping = mapping

    def map_path(self, q):
        q = tuple(q)
        if q not in self.mapping:
            raise InvalidCursorError(
                "cursor path does not resolve in the rewritten procedure"
            )
        new = self.mapping[q]
        if new is None:
            raise InvalidCursorError(
                "cursor points at a statement the rewrite deleted"
            )
        return new


class Sweep:
    """One rebuild of a statement tree that records where every statement
    went: the shared engine of the whole-proc cleanups, whose
    :class:`MapForwarder` is built from ``mapping``, ``edits`` and
    ``ctx_dirty``.

    ``rewrite(sweep, s, old, new)`` returns the statement that takes the
    place of ``s`` (old path ``old``) at new path ``new``, or None to
    delete it; it rebuilds a child block with :meth:`block`, and appends
    ``new`` to ``edits`` when it restructures ``s`` itself.  Rewrites
    rebuild through :func:`~repro.core.ast.rebuild`, so a statement the
    sweep leaves alone comes back as itself."""

    def __init__(self, rewrite):
        self.rewrite = rewrite
        self.mapping = {}
        #: new paths of the statements the cleanup restructured, and the
        #: slots its deletions left
        self.edits = []
        #: a deleted or restructured statement wrote config state
        self.ctx_dirty = False

    def block(self, stmts, fld, oldp, newp, new_fld=None) -> tuple:
        """Rebuild block ``fld`` of the statement at ``oldp`` as block
        ``new_fld`` (default: the same field) of the one at ``newp``."""
        new_fld = new_fld or fld
        out = []
        for i, s in enumerate(stmts):
            old = oldp + ((fld, i),)
            new = newp + ((new_fld, len(out)),)
            mark = len(self.edits)
            r = self.rewrite(self, s, old, new)
            if r is None:
                self.delete(s, old)
                self.edits.append(new)
            else:
                self.mapping[old] = new
                out.append(r)
            if len(self.edits) > mark and new in self.edits[mark:]:
                # edits inside a deleted or restructured statement
                # collapse to its slot
                del self.edits[mark:]
                self.edits.append(new)
        return tuple(out)

    def delete(self, s, old):
        """Record ``s`` (at ``old``) and its whole subtree as deleted."""
        self.ctx_dirty = self.ctx_dirty or writes_config(s)
        self.mapping[old] = None
        for fld, blk in IR.sub_bodies(s):
            for i, c in enumerate(blk):
                self.delete(c, old + ((fld, i),))

    def lift(self, mark: int, new):
        """The block rebuilt into the body of the statement at ``new``
        since the mapping held ``mark`` entries kept one statement, which
        takes ``new``'s own place: move every path recorded since."""
        cut = len(new) + 1
        for old in islice(self.mapping, mark, None):
            path = self.mapping[old]
            if path is not None:
                self.mapping[old] = new + path[cut:]


class ChainForwarder(Forwarder):
    """Sequential composition of forwarders (first applied first)."""

    def __init__(self, parts):
        parts = tuple(parts)
        touched = []
        for k, part in enumerate(parts):
            for t in part.touched:
                for later in parts[k + 1:]:
                    try:
                        t = later.map_path(t)
                    except InvalidCursorError:
                        t = None
                        break
                if t is not None:
                    touched.append(t)
        super().__init__(
            touched=tuple(touched),
            ctx_dirty=any(p.ctx_dirty for p in parts),
        )
        self.parts = parts

    def map_path(self, q):
        for part in self.parts:
            q = part.map_path(q)
        return q


def compose(*fwds) -> Forwarder:
    """Compose forwarders in application order, flattening chains and
    dropping identities."""
    flat = []
    for f in fwds:
        if f is None or (type(f) is Forwarder and not f.touched
                         and not f.ctx_dirty):
            continue
        if isinstance(f, ChainForwarder):
            flat.extend(f.parts)
        else:
            flat.append(f)
    if not flat:
        return Forwarder()
    if len(flat) == 1:
        return flat[0]
    return ChainForwarder(flat)


# -- interior-map helpers (region-relative paths) ---------------------------


def interior_identity(rel):
    return rel


def interior_insert(steps):
    """Each old region statement keeps its slot but its body moved down
    through ``steps`` extra levels (e.g. split wraps the body in a new
    inner loop: old body stmt ``(fld,0)(body,j)`` is now
    ``(fld,0)(body,0)(body,j)``)."""
    steps = tuple(steps)

    def go(rel):
        if len(rel) == 1:
            return rel
        return (rel[0],) + steps + tuple(rel[1:])

    return go


# ---------------------------------------------------------------------------
# Cursors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cursor:
    """A reference into one Procedure revision.  Forward it to a derived
    revision with ``derived.forward(cursor)``."""

    proc: object = field(repr=False)
    path: tuple = ()

    @property
    def count(self) -> int:
        return 1

    def _resolve_stmts(self):
        ir = self.proc.ir()
        try:
            idx = self.path[-1][1]
            stmts = IR.block_at(ir, self.path)[idx: idx + self.count]
        except (IndexError, AttributeError, KeyError):
            raise InvalidCursorError(
                "cursor path does not resolve in this procedure"
            )
        if len(stmts) != self.count:
            raise InvalidCursorError(
                "cursor path does not resolve in this procedure"
            )
        return stmts

    def stmts(self) -> tuple:
        """The statements this cursor points at (in ``self.proc``)."""
        return tuple(self._resolve_stmts())

    def __str__(self):
        from ..core.pprint import stmt_to_lines

        lines = []
        for s in self.stmts():
            lines.extend(stmt_to_lines(s, 0))
        return "\n".join(lines)


@dataclass(frozen=True)
class StmtCursor(Cursor):
    """A single statement."""

    def stmt(self) -> IR.Stmt:
        return self._resolve_stmts()[0]

    def before(self) -> "GapCursor":
        return GapCursor(self.proc, self.path, after=False)

    def after(self) -> "GapCursor":
        return GapCursor(self.proc, self.path, after=True)


@dataclass(frozen=True)
class BlockCursor(Cursor):
    """``n`` consecutive statements starting at ``path``."""

    n: int = 1

    @property
    def count(self) -> int:
        return self.n


@dataclass(frozen=True)
class GapCursor(Cursor):
    """The gap just before or after an anchor statement."""

    after: bool = False

    def anchor(self) -> StmtCursor:
        return StmtCursor(self.proc, self.path)


@dataclass(frozen=True)
class ExprCursor(Cursor):
    """An expression at ``expr_path`` within the statement at ``path``."""

    expr_path: tuple = ()

    def expr(self) -> IR.Expr:
        return IR.get_expr(self._resolve_stmts()[0], self.expr_path)
