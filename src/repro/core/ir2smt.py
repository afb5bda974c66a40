"""Lowering of LoopIR *control* expressions into SMT terms.

Control expressions are quasi-affine by construction (enforced by the type
checker), so every one of them maps onto the solver's LIA term language:

* control variables map to integer/boolean SMT variables (sharing the same
  :class:`Sym`),
* config fields map to one global SMT variable per ``(config, field)``,
* ``stride(x, d)`` maps to one SMT variable per ``(buffer, dim)`` unless the
  buffer's layout makes the stride statically known.

Booleans are encoded as integers 0/1 only where needed; boolean-sorted
control expressions lower directly to formulas.
"""

from __future__ import annotations

from ..smt import terms as S
from ..core.prelude import InternalError, Sym
from . import ast as IR
from . import types as T

_config_syms = {}
_stride_syms = {}


def config_sym(config, field: str) -> Sym:
    """The global SMT variable standing for ``config.field``."""
    key = (id(config), field)
    if key not in _config_syms:
        _config_syms[key] = Sym(f"{config.name()}_{field}")
    return _config_syms[key]


def stride_sym(buf: Sym, dim: int) -> Sym:
    """The SMT variable standing for ``stride(buf, dim)``."""
    key = (buf, dim)
    if key not in _stride_syms:
        _stride_syms[key] = Sym(f"{buf.name}_stride{dim}")
    return _stride_syms[key]


def lower_expr(e: IR.Expr, stride_env=None) -> S.Term:
    """Lower a control expression to an SMT term or formula.

    ``stride_env`` optionally maps ``(Sym, dim)`` to replacement terms (used
    when substituting call arguments through procedure boundaries).
    """
    if isinstance(e, IR.Read):
        if e.idx:
            raise InternalError("data reads cannot be lowered to control terms")
        sort = S.BOOL if e.type is not None and e.type.is_bool() else S.INT
        return S.Var(e.name, sort)
    if isinstance(e, IR.Const):
        if e.type.is_bool():
            return S.mk_bool(bool(e.val))
        return S.IntC(int(e.val))
    if isinstance(e, IR.USub):
        return S.neg(lower_expr(e.arg, stride_env))
    if isinstance(e, IR.BinOp):
        op = e.op
        if op in ("and", "or"):
            l = lower_expr(e.lhs, stride_env)
            r = lower_expr(e.rhs, stride_env)
            return S.conj(l, r) if op == "and" else S.disj(l, r)
        if op in ("==", "<", ">", "<=", ">="):
            l = lower_expr(e.lhs, stride_env)
            r = lower_expr(e.rhs, stride_env)
            if op == "==" and _is_bool_term(l):
                return S.iff(l, r)
            return S.cmp(op, l, r)
        l = lower_expr(e.lhs, stride_env)
        r = lower_expr(e.rhs, stride_env)
        if op == "+":
            return S.add(l, r)
        if op == "-":
            return S.sub(l, r)
        if op == "*":
            if isinstance(l, S.IntC):
                return S.scale(l.val, r)
            if isinstance(r, S.IntC):
                return S.scale(r.val, l)
            raise InternalError("non-affine multiplication reached lowering")
        if op == "/":
            if not isinstance(r, S.IntC):
                raise InternalError("non-literal divisor reached lowering")
            return S.floordiv(l, r.val)
        if op == "%":
            if not isinstance(r, S.IntC):
                raise InternalError("non-literal divisor reached lowering")
            return S.mod(l, r.val)
        raise InternalError(f"unknown control op {op}")
    if isinstance(e, IR.StrideExpr):
        if stride_env and (e.name, e.dim) in stride_env:
            return stride_env[(e.name, e.dim)]
        return S.Var(stride_sym(e.name, e.dim))
    if isinstance(e, IR.ReadConfig):
        sort = S.BOOL if e.config.field_type(e.field).is_bool() else S.INT
        return S.Var(config_sym(e.config, e.field), sort)
    raise InternalError(f"cannot lower {type(e).__name__} to a control term")


def _is_bool_term(t: S.Term) -> bool:
    if isinstance(t, S.BoolC):
        return True
    if isinstance(t, S.Var):
        return t.sort == S.BOOL
    return isinstance(t, (S.Cmp, S.Not, S.And, S.Or))


def proc_assumptions(proc: IR.Proc):
    """Facts the analysis may assume inside ``proc``, each once, in
    first-occurrence order (``n >= 1`` for a size ``n`` is also the
    positivity of every extent ``n``):

    * every ``size``-typed argument is strictly positive,
    * every declared predicate (static assertion) holds,
    * tensor extents are strictly positive.

    The :class:`~repro.core.dataflow.Walker` seeds every walk's facts with
    this list; nothing else adds it again.
    """
    facts = []
    for a in proc.args:
        if a.type.is_sizeable():
            facts.append(S.ge(S.Var(a.name), S.IntC(1)))
        if a.type.is_tensor_or_window():
            for h in a.type.shape():
                facts.append(S.ge(lower_expr(h), S.IntC(1)))
    for p in proc.preds:
        facts.append(lower_expr(p))
    return list(dict.fromkeys(facts))
