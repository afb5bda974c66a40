"""Search-scoped derivation reuse: a directive memo and check reuse.

A tuning search derives hundreds of revisions that share work.  A grid
re-derives the same tiling prefix for every point that starts with it,
and a beam reaches the same IR by different orders of commuting actions.
While :func:`derivation_table` is open (``autotune.search`` opens it
around its body, next to the refute verdict store) each distinct
revision is derived and checked once:

* **directive memo** -- a directive applied again to the same parent
  :class:`~repro.api.Procedure` object with equal arguments returns the
  revision it derived the first time, or re-raises the ``SchedulingError``
  it raised (see ``api._journaled``);
* **check reuse** -- a derived revision alpha-equivalent to one that
  already passed :func:`~repro.core.checks.check_proc` in this table skips
  its own check (:func:`check_derived`).  Only passes are kept: a failing
  revision is always checked afresh, so its error names its own ``Sym``\\ s.

The table is dropped when the block exits, on an exception too, so no
derivation outside a search ever sees it.
"""

from __future__ import annotations

from contextlib import contextmanager
from numbers import Number
from typing import Dict, List, Optional

from ..core import ast as IR
from ..core import checks as _checks
from ..core.prelude import Sym
from ..obs import trace as _obs
from .eqv import alpha_equiv_procs


class DerivationTable:
    """The two memos of one search.

    ``directives`` maps a :func:`directive_key` to the revision (or the
    ``SchedulingError``) the directive produced; ``checked`` maps a
    :func:`shape_hash` to the derived IR procs that passed their checks.
    ``hashes`` memoizes :func:`_node_hash` by node ``id``, next to the node
    it keeps alive (so the ``id`` is not reused): a revision shares every
    subtree its rewrite did not touch with its parent, so hashing it costs
    only the rebuilt spine."""

    __slots__ = ("directives", "checked", "hashes")

    def __init__(self):
        self.directives: Dict[tuple, object] = {}
        self.checked: Dict[int, List[IR.Proc]] = {}
        self.hashes: Dict[int, tuple] = {}


#: the open search-scoped table (see :func:`derivation_table`)
_table: Optional[DerivationTable] = None


def current() -> Optional[DerivationTable]:
    """The open table, or None outside a :func:`derivation_table` block."""
    return _table


@contextmanager
def derivation_table():
    """Open a :class:`DerivationTable` for the extent of the ``with``
    block; a nested open reuses the outer table.  The table is dropped on
    exit: it never outlives the block that opened it."""
    global _table
    if _table is not None:
        yield _table
        return
    _table = DerivationTable()
    try:
        yield _table
    finally:
        _table = None


# ---------------------------------------------------------------------------
# Directive memo keys
# ---------------------------------------------------------------------------

_LITERALS = (str, int, float, bool, type(None))


def _arg_key(v):
    """A key equal for two arguments exactly when the directive cannot
    tell them apart: a literal with its type (``4``, ``4.0`` and ``True``
    differ); a tuple element-wise; a frozen dataclass (a cursor, a
    journal ``PathRef``) as its class and fields; a class, or an object
    compared by identity (procedures, configs, scalar types), as itself.
    Anything else -- a list, a mutable dataclass -- has no key (None)."""
    cls = type(v)
    if cls in _LITERALS:
        return (cls, v)
    if cls is tuple:
        keys = tuple(map(_arg_key, v))
        return None if None in keys else (tuple, keys)
    params = getattr(cls, "__dataclass_params__", None)
    if params is not None:
        if not params.frozen:
            return None
        keys = tuple(_arg_key(getattr(v, f)) for f in cls.__dataclass_fields__)
        return None if None in keys else (cls, keys)
    if isinstance(v, type) or cls.__eq__ is object.__eq__:
        return v
    return None


def directive_key(parent, name: str, args: tuple, kwargs: dict):
    """The memo key of ``parent.name(*args, **kwargs)``, or None when an
    argument has no exact key (the call then bypasses the memo)."""
    key = _arg_key((args, tuple(sorted(kwargs.items()))))
    return None if key is None else (parent, name, key)


# ---------------------------------------------------------------------------
# Check reuse
# ---------------------------------------------------------------------------


def _node_hash(node, memo: Dict[int, tuple]) -> int:
    """A structural hash of an IR node in which a ``Sym`` counts by its
    display name, so renumbering ``Sym``\\ s (every duplicate a search
    reaches re-derives its binders under fresh ids) keeps it.  Callees,
    configs, memories and built-ins count by identity."""
    seen = memo.get(id(node))
    if seen is not None:
        return seen[0]
    parts = [type(node)]
    for _fld, v in IR.attrs(node):
        if type(v) is Sym:
            parts.append(v.name)
        elif isinstance(v, (str, Number)) or v is None:
            parts.append(v)
        else:
            parts.append(id(v))
    for _step, c in IR.children(node):
        if type(c) is tuple:
            parts.append(tuple(_node_hash(s, memo) for s in c))
        else:
            parts.append(_node_hash(c, memo))
    h = hash(tuple(parts))
    memo[id(node)] = (h, node)
    return h


def shape_hash(proc: IR.Proc, memo: Dict[int, tuple]) -> int:
    """The bucket :func:`check_derived` files ``proc`` under: equal for
    two procedures that :func:`~repro.scheduling.eqv.alpha_equiv_procs`
    relates and whose binders keep their names."""
    def type_hash(t):
        if not t.is_tensor_or_window():
            return hash(type(t))
        return hash((type(t.basetype()), t.is_win(),
                     tuple(_node_hash(e, memo) for e in t.hi)))

    return hash((
        tuple((a.name.name, type_hash(a.type), id(a.mem)) for a in proc.args),
        tuple(_node_hash(e, memo) for e in proc.preds),
        tuple(_node_hash(s, memo) for s in proc.body),
    ))


def check_derived(proc: IR.Proc, fwd):
    """``check_proc(proc, fwd)`` for a derived revision, skipped while a
    table is open and an alpha-equivalent revision already passed in it.
    The two have the same obligations up to renaming, so the earlier pass
    is this one's verdict.  A failure raises and is not recorded."""
    table = _table
    if table is None:
        return _checks.check_proc(proc, fwd)
    h = shape_hash(proc, table.hashes)
    if any(alpha_equiv_procs(seen, proc) for seen in table.checked.get(h, ())):
        _obs.incr("sched.memo.checked_reused")
        return
    _checks.check_proc(proc, fwd)
    table.checked.setdefault(h, []).append(proc)
