"""Buffer views: resolving windows down to their root buffers.

Windows alias their underlying buffer (§3.1 item 4).  Every analysis that
reasons about *locations* (bounds checking, effect analysis, code
generation) needs accesses through windows rewritten into coordinates of a
*root* buffer -- a procedure argument or an allocation.  :class:`BufView`
records that mapping; :class:`TypeEnv` tracks types, memories, and views
while walking a procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..smt import terms as S
from .prelude import InternalError, Sym
from . import ast as IR
from . import types as T
from .ir2smt import lower_expr, stride_sym


@dataclass(frozen=True)
class VPoint:
    """This root dimension is pinned to a fixed coordinate."""

    pt: S.Term


@dataclass(frozen=True)
class VInterval:
    """This root dimension maps to output dimension ``out_pos``, offset by
    ``lo``."""

    lo: S.Term
    out_pos: int


@dataclass(frozen=True)
class BufView:
    """A view of a root buffer: one coordinate mapping per root dimension."""

    root: Sym
    coords: Tuple[Union[VPoint, VInterval], ...]

    @staticmethod
    def identity(root: Sym, rank: int) -> "BufView":
        return BufView(root, tuple(VInterval(S.IntC(0), d) for d in range(rank)))

    def out_rank(self) -> int:
        return sum(1 for c in self.coords if isinstance(c, VInterval))

    def compose_index(self, idx_terms: List[S.Term]) -> List[S.Term]:
        """Root-buffer coordinates of an access at view coordinates."""
        out = []
        for c in self.coords:
            if isinstance(c, VPoint):
                out.append(c.pt)
            else:
                out.append(S.add(c.lo, idx_terms[c.out_pos]))
        return out

    def compose_window(self, widx) -> "BufView":
        """The view resulting from windowing this view with ``widx``
        (a list of IR.Interval / IR.Point whose bounds are already lowered
        to SMT terms as ``(lo, hi)`` / ``pt``)."""
        out_coords = []
        out_pos = 0
        # widx entries are (kind, payload) aligned with this view's output dims
        by_out = {}
        for k, w in enumerate(widx):
            by_out[k] = w
        coords = []
        for c in self.coords:
            if isinstance(c, VPoint):
                coords.append(c)
                continue
            w = by_out[c.out_pos]
            if w[0] == "pt":
                coords.append(VPoint(S.add(c.lo, w[1])))
            else:
                lo, _hi = w[1]
                coords.append(VInterval(S.add(c.lo, lo), out_pos))
                out_pos += 1
        return BufView(self.root, tuple(coords))

    def root_dim_of_out(self, out_pos: int) -> int:
        for d, c in enumerate(self.coords):
            if isinstance(c, VInterval) and c.out_pos == out_pos:
                return d
        raise InternalError(f"view has no output dimension {out_pos}")


def lower_widx(widx) -> list:
    """Lower a WindowExpr's coordinate list to the tagged form BufView uses."""
    out = []
    for w in widx:
        if isinstance(w, IR.Interval):
            out.append(("iv", (lower_expr(w.lo), lower_expr(w.hi))))
        else:
            out.append(("pt", lower_expr(w.pt)))
    return out


class TypeEnv:
    """Types, memories, and views of every buffer in scope."""

    def __init__(self, proc: Optional[IR.Proc] = None):
        self.types = {}
        self.mems = {}
        self.views = {}
        if proc is not None:
            for a in proc.args:
                self.bind_root(a.name, a.type, a.mem)

    def bind_root(self, name: Sym, typ: T.Type, mem=None):
        self.types[name] = typ
        self.mems[name] = mem
        if typ.is_tensor_or_window():
            self.views[name] = BufView.identity(name, len(typ.shape()))
        else:
            self.views[name] = BufView.identity(name, 0)

    def bind_window(self, name: Sym, wexpr: IR.WindowExpr):
        base_view = self.view(wexpr.name)
        self.types[name] = wexpr.type
        self.mems[name] = self.mems.get(wexpr.name)
        self.views[name] = base_view.compose_window(lower_widx(wexpr.idx))

    def type_of(self, name: Sym) -> T.Type:
        return self.types[name]

    def view(self, name: Sym) -> BufView:
        if name not in self.views:
            raise InternalError(f"no view for {name}")
        return self.views[name]

    def enter_stmt(self, s: IR.Stmt):
        """Update the environment for a statement that binds a buffer."""
        if isinstance(s, IR.Alloc):
            self.bind_root(s.name, s.type, s.mem)
        elif isinstance(s, IR.WindowStmt):
            self.bind_window(s.name, s.rhs)

    def copy(self) -> "TypeEnv":
        out = TypeEnv()
        out.types = dict(self.types)
        out.mems = dict(self.mems)
        out.views = dict(self.views)
        return out

    # -- strides -----------------------------------------------------------

    def stride_term(self, name: Sym, dim: int) -> S.Term:
        """An SMT term for ``stride(name, dim)``.

        Dense root tensors have row-major strides (constant-foldable when
        trailing extents are literals); windows inherit the stride of the
        root dimension they map to; anything else gets an opaque variable.
        """
        typ = self.types.get(name)
        view = self.views.get(name)
        if typ is None or view is None:
            return S.Var(stride_sym(name, dim))
        if view.root is name and not typ.is_win():
            return self._dense_stride(name, typ, dim)
        root_dim = view.root_dim_of_out(dim)
        root_typ = self.types.get(view.root)
        if root_typ is not None and not root_typ.is_win():
            return self._dense_stride(view.root, root_typ, root_dim)
        return S.Var(stride_sym(view.root, root_dim))

    @staticmethod
    def _dense_stride(name: Sym, typ: T.Type, dim: int) -> S.Term:
        shape = typ.shape()
        stride = 1
        for h in shape[dim + 1 :]:
            h_t = lower_expr(h)
            if isinstance(h_t, S.IntC):
                stride *= h_t.val
            else:
                return S.Var(stride_sym(name, dim))
        return S.IntC(stride)
