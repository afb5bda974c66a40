"""Cursor-targeted enumeration of legal primitive applications.

The autotuner's *action-space* mode searches over sequences of rewrite
directives instead of a hand-declared parameter grid.  This module
enumerates, for one procedure revision, every directive application the
grammar admits at each cursor target — each ``split`` factor at each
loop, each adjacent-loop ``reorder``, ``unroll`` of small constant loops,
``parallelize``, ``lift_alloc`` and ``set_memory`` of local buffers.

Enumeration is *syntactic* and deliberately over-approximate: an action
here may still be illegal (a split that cannot prove divisibility, a
parallelization with a race).  Legality is decided the only place it can
be — by applying the directive through the public ``Procedure`` API,
where typechecking and the safety checks run on every rewrite.  Callers
treat ``SchedulingError`` / check failures from :meth:`Action.apply` as
pruning, so illegal schedules are discarded, never emitted.

The enumeration order is a deterministic function of the procedure text
(pre-order walk, fixed per-node action order), which the seeded search
relies on for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core import ast as IR
from .cursors import StmtCursor

__all__ = ["Action", "enumerate_actions"]


@dataclass(frozen=True)
class Action:
    """One directive application at one cursor target.

    ``target`` is a statement path (as in :class:`Cursor.path`) or None
    for whole-procedure directives like ``set_memory``; ``args`` /
    ``kwargs`` are the remaining directive arguments.
    """

    op: str
    target: Optional[Tuple] = None
    args: Tuple = ()
    kwargs: Tuple = ()  # sorted (key, value) pairs

    def apply(self, procedure):
        """Apply to ``procedure`` (a `repro.api.Procedure`), returning the
        rewritten procedure.  Raises whatever the directive raises when
        the action is illegal — callers prune on that."""
        fn = getattr(procedure, self.op)
        kwargs = dict(self.kwargs)
        if self.target is not None:
            return fn(StmtCursor(procedure, self.target), *self.args, **kwargs)
        return fn(*self.args, **kwargs)

    def describe(self) -> str:
        parts = [repr(a) if not isinstance(a, type) else a.__name__
                 for a in self.args]
        parts += [f"{k}={v!r}" for k, v in self.kwargs]
        at = f" @ {list(self.target)}" if self.target is not None else ""
        return f"{self.op}({', '.join(parts)}){at}"

    def key(self) -> tuple:
        """Hashable identity used for dedup and deterministic sorting."""
        args = tuple(a.__name__ if isinstance(a, type) else a for a in self.args)
        return (self.op, self.target or (), args, self.kwargs)


def _const_extent(loop: IR.For) -> Optional[int]:
    lo, hi = loop.lo, loop.hi
    if isinstance(lo, IR.Const) and isinstance(hi, IR.Const):
        try:
            return int(hi.val) - int(lo.val)
        except (TypeError, ValueError):
            return None
    return None


def enumerate_actions(
    procedure,
    split_factors: Tuple[int, ...] = (2, 4, 8, 16),
    split_tails: Tuple[str, ...] = ("perfect", "cut"),
    unroll_max: int = 8,
    memories: Tuple = (),
    include: Tuple[str, ...] = (
        "split", "reorder", "unroll", "parallelize", "lift_alloc",
        "set_memory",
    ),
) -> list:
    """All syntactically-plausible actions on ``procedure``, in
    deterministic pre-order.  ``memories`` is a tuple of ``Memory``
    subclasses offered to ``set_memory`` for each local allocation."""
    ir = procedure._loopir_proc
    want = set(include)
    out: list[Action] = []
    for path, block, i in IR.walk_paths(ir.body):
        s = block[i]
        if isinstance(s, IR.For):
            it = str(s.iter)
            ext = _const_extent(s)
            if "split" in want:
                for f in split_factors:
                    if ext is not None and f >= ext:
                        continue  # split by >= extent is never useful
                    for tail in split_tails:
                        if tail == "perfect" and ext is not None and ext % f:
                            continue  # provably non-dividing: prune early
                        out.append(Action(
                            "split", path, (f, f"{it}o", f"{it}i"),
                            (("tail", tail),),
                        ))
            if "reorder" in want:
                # only a loop whose body is exactly one loop can swap inward
                if len(s.body) == 1 and isinstance(s.body[0], IR.For):
                    out.append(Action("reorder", path))
            if "unroll" in want:
                if ext is not None and 0 < ext <= unroll_max:
                    out.append(Action("unroll", path))
            if "parallelize" in want and s.kind == "seq":
                out.append(Action("parallelize", path))
        elif isinstance(s, IR.Alloc):
            if "lift_alloc" in want and len(path) > 1:
                out.append(Action("lift_alloc", path, (1,)))
            if "set_memory" in want:
                cur = s.mem
                for mem in memories:
                    if mem is not cur:
                        out.append(Action(
                            "set_memory", None, (str(s.name), mem)
                        ))
    return out
