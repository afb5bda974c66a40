"""Front-end type checking (§3.1).

The checker enforces the control/data separation at the heart of Exo:

* loop bounds, branch conditions, indices, asserted predicates, and config
  values are *control* expressions;
* control arithmetic must be quasi-affine -- multiplication needs a literal
  on one side; division and modulo need a positive literal divisor;
* data expressions (scalar reads, arithmetic, externs) may be arbitrary, but
  may never flow into control positions;
* mutation of control variables other than config fields is prohibited.

The checker rebuilds the IR with every expression's ``type`` field filled in.
Integer literals are coerced to data constants where a data value is
expected (e.g. ``C[i, j] = 0.0`` and ``C[i, j] = 0`` both work).
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

from ..obs import trace as _obs
from . import ast as IR
from . import types as T
from .prelude import TypeCheckError


def typecheck_proc(proc: IR.Proc) -> IR.Proc:
    with _obs.span("typecheck.proc"):
        return _TypeChecker().check_proc(proc)


class _TypeChecker:
    def __init__(self):
        self.env = {}

    def err(self, node, msg):
        si = getattr(node, "srcinfo", None)
        raise TypeCheckError(f"{si}: {msg}" if si else msg)

    # -- procedures --------------------------------------------------------

    def check_proc(self, p: IR.Proc) -> IR.Proc:
        for a in p.args:
            if a.type.is_tensor_or_window():
                # extent expressions must be control expressions over
                # previously declared arguments
                hi = [self.check_control(h, "array extent") for h in a.type.shape()]
                for h in hi:
                    if not h.type.is_indexable():
                        self.err(a, f"array extent of {a.name} must be indexable")
                typ = IR.rebuild(a.type, hi=hi)
                self.env[a.name] = typ
                a = IR.rebuild(a, type=typ)
            else:
                self.env[a.name] = a.type
            if a.mem is not None and not a.type.is_numeric():
                self.err(a, f"only data buffers may carry memory annotations")
        args = [
            IR.rebuild(a, type=self.env[a.name]) if a.type.is_tensor_or_window() else a
            for a in p.args
        ]
        preds = []
        for pred in p.preds:
            pred = self.check_expr(pred)
            if not pred.type.is_bool():
                self.err(pred, "assertions must be boolean control expressions")
            self.check_is_control(pred)
            preds.append(pred)
        body = self.check_stmts(p.body)
        return IR.rebuild(p, args=args, preds=preds, body=body)

    # -- statements --------------------------------------------------------

    def check_stmts(self, stmts) -> list:
        return [self.check_stmt(s) for s in stmts]

    def check_stmt(self, s: IR.Stmt) -> IR.Stmt:
        if isinstance(s, (IR.Assign, IR.Reduce)):
            return self.check_write(s)
        if isinstance(s, IR.WriteConfig):
            rhs = self.check_control(s.rhs, "config value")
            ftyp = s.config.field_type(s.field)
            if not _control_compatible(ftyp, rhs.type):
                self.err(
                    s,
                    f"config field {s.config.name()}.{s.field} has type {ftyp}; "
                    f"cannot assign a {rhs.type}",
                )
            return IR.rebuild(s, rhs=rhs)
        if isinstance(s, IR.Pass):
            return s
        if isinstance(s, IR.If):
            cond = self.check_control(s.cond, "branch condition")
            if not cond.type.is_bool():
                self.err(s, "branch condition must be boolean")
            return IR.rebuild(
                s,
                cond=cond,
                body=self.check_stmts(s.body),
                orelse=self.check_stmts(s.orelse),
            )
        if isinstance(s, IR.For):
            lo = self.check_control(s.lo, "loop bound")
            hi = self.check_control(s.hi, "loop bound")
            for b in (lo, hi):
                if not b.type.is_indexable():
                    self.err(s, "loop bounds must be indexable control expressions")
            self.env[s.iter] = T.index_t
            body = self.check_stmts(s.body)
            return IR.rebuild(s, lo=lo, hi=hi, body=body)
        if isinstance(s, IR.Alloc):
            typ = s.type
            if typ.is_tensor_or_window():
                if typ.is_win():
                    self.err(s, "cannot allocate a window type")
                hi = [self.check_control(h, "array extent") for h in typ.shape()]
                typ = IR.rebuild(typ, hi=hi)
            self.env[s.name] = typ
            return IR.rebuild(s, type=typ)
        if isinstance(s, IR.Call):
            return self.check_call(s)
        if isinstance(s, IR.WindowStmt):
            rhs = self.check_expr(s.rhs)
            self.env[s.name] = rhs.type
            return IR.rebuild(s, rhs=rhs)
        self.err(s, f"unknown statement {type(s).__name__}")

    def check_write(self, s):
        typ = self.env.get(s.name)
        if typ is None:
            self.err(s, f"undefined variable {s.name}")
        if not typ.is_numeric():
            self.err(s, f"cannot write control variable {s.name}")
        idx = self.check_indices(s, typ, s.idx)
        rhs = self.check_expr(s.rhs)
        rhs = self.coerce_data(rhs)
        if not rhs.type.is_real_scalar():
            self.err(s, "right-hand side of a write must be a scalar data value")
        if T.join_precision(typ.basetype(), rhs.type) is None:
            self.err(
                s,
                f"cannot write a {rhs.type} value into {s.name} "
                f"of type {typ.basetype()}",
            )
        return IR.rebuild(s, idx=idx, rhs=rhs)

    def check_indices(self, node, typ, idx):
        rank = len(typ.shape())
        if len(idx) != rank:
            self.err(
                node,
                f"expected {rank} indices for {getattr(node, 'name', '?')}, "
                f"got {len(idx)}",
            )
        out = []
        for i in idx:
            i = self.check_control(i, "array index")
            if not i.type.is_indexable():
                self.err(node, "array indices must be indexable control values")
            out.append(i)
        return out

    def check_call(self, s: IR.Call) -> IR.Call:
        callee = s.proc
        if len(s.args) != len(callee.args):
            self.err(
                s,
                f"call to {callee.name}: expected {len(callee.args)} arguments, "
                f"got {len(s.args)}",
            )
        new_args = []
        for actual, formal in zip(s.args, callee.args):
            actual = self.check_expr(actual)
            ft = formal.type
            if ft.is_numeric():
                at = actual.type
                if not isinstance(actual, (IR.Read, IR.WindowExpr)):
                    if ft.is_real_scalar() and at is not None and at.is_real_scalar():
                        new_args.append(self.coerce_data(actual))
                        continue
                    self.err(s, f"call to {callee.name}: buffer arguments must be names or windows")
                if ft.is_real_scalar():
                    if not at.is_real_scalar():
                        self.err(s, f"call to {callee.name}: expected a scalar for {formal.name}")
                elif ft.is_tensor_or_window():
                    if not at.is_tensor_or_window():
                        self.err(s, f"call to {callee.name}: expected a tensor for {formal.name}")
                    # §3.1: a window carries its strides, a dense formal assumes its own
                    if at.is_win() and not ft.is_win():
                        self.err(s, f"call to {callee.name}: window passed to dense formal {formal.name}")
                    if len(at.shape()) != len(ft.shape()):
                        self.err(
                            s,
                            f"call to {callee.name}: rank mismatch for {formal.name} "
                            f"({len(at.shape())} vs {len(ft.shape())})",
                        )
                    if T.join_precision(at.basetype(), ft.basetype()) is None:
                        self.err(
                            s,
                            f"call to {callee.name}: precision mismatch for {formal.name}",
                        )
            else:
                self.check_is_control(actual)
                if not _control_compatible(ft, actual.type):
                    self.err(
                        s,
                        f"call to {callee.name}: argument {formal.name} expects "
                        f"{ft}, got {actual.type}",
                    )
            new_args.append(actual)
        return IR.rebuild(s, args=new_args)

    # -- expressions --------------------------------------------------------

    def check_control(self, e, what):
        e = self.check_expr(e)
        self.check_is_control(e, what)
        return e

    def check_is_control(self, e, what="control expression"):
        if e.type is None or e.type.is_numeric():
            self.err(e, f"{what} must not depend on data values")

    def coerce_data(self, e):
        """Turn an integer literal into a data constant where data is needed."""
        if isinstance(e, IR.Const) and e.type.is_indexable():
            return dc_replace(e, val=float(e.val), type=T.R)
        return e

    def check_expr(self, e: IR.Expr) -> IR.Expr:
        if isinstance(e, IR.Read):
            typ = self.env.get(e.name)
            if typ is None:
                self.err(e, f"undefined variable {e.name}")
            if e.idx:
                if not typ.is_tensor_or_window():
                    self.err(e, f"cannot index non-tensor {e.name}")
                idx = self.check_indices(e, typ, e.idx)
                return IR.rebuild(e, idx=idx, type=typ.basetype())
            return IR.rebuild(e, type=typ)
        if isinstance(e, IR.Const):
            return e
        if isinstance(e, IR.USub):
            arg = self.check_expr(e.arg)
            if arg.type.is_bool() or arg.type.is_stridable():
                self.err(e, "cannot negate this type")
            return IR.rebuild(e, arg=arg, type=arg.type)
        if isinstance(e, IR.BinOp):
            return self.check_binop(e)
        if isinstance(e, IR.Extern):
            args = [self.coerce_data(self.check_expr(a)) for a in e.args]
            out = e.f.typecheck([a.type for a in args])
            return IR.rebuild(e, args=args, type=out)
        if isinstance(e, IR.WindowExpr):
            return self.check_window(e)
        if isinstance(e, IR.StrideExpr):
            typ = self.env.get(e.name)
            if typ is None:
                self.err(e, f"undefined variable {e.name}")
            if not typ.is_tensor_or_window():
                self.err(e, f"stride() requires a tensor, got {e.name}")
            if not (0 <= e.dim < len(typ.shape())):
                self.err(e, f"stride dimension {e.dim} out of range for {e.name}")
            return IR.rebuild(e, type=T.stride_t)
        if isinstance(e, IR.ReadConfig):
            return IR.rebuild(e, type=e.config.field_type(e.field))
        self.err(e, f"unknown expression {type(e).__name__}")

    def check_binop(self, e: IR.BinOp) -> IR.BinOp:
        lhs = self.check_expr(e.lhs)
        rhs = self.check_expr(e.rhs)
        op = e.op

        if op in ("and", "or"):
            if not (lhs.type.is_bool() and rhs.type.is_bool()):
                self.err(e, f"'{op}' requires boolean operands")
            return IR.rebuild(e, lhs=lhs, rhs=rhs, type=T.bool_t)

        if op in ("==", "<", ">", "<=", ">="):
            if lhs.type.is_numeric() or rhs.type.is_numeric():
                self.err(e, "comparisons on data values are not allowed "
                            "(use select() for data predication)")
            if lhs.type.is_stridable() or rhs.type.is_stridable():
                if op != "==":
                    self.err(e, "strides may only be compared with ==")
                other = rhs.type if lhs.type.is_stridable() else lhs.type
                if not (other.is_stridable() or other.is_indexable()):
                    self.err(e, "strides compare with strides or integers")
            elif lhs.type.is_bool() or rhs.type.is_bool():
                if op != "==" or not (lhs.type.is_bool() and rhs.type.is_bool()):
                    self.err(e, "booleans may only be compared with ==")
            else:
                if not (lhs.type.is_indexable() and rhs.type.is_indexable()):
                    self.err(e, "comparison operands must be control values")
            return IR.rebuild(e, lhs=lhs, rhs=rhs, type=T.bool_t)

        # arithmetic
        lnum = lhs.type.is_numeric() or (
            isinstance(lhs, IR.Const) and rhs.type is not None and rhs.type.is_numeric()
        )
        if lhs.type.is_numeric() or rhs.type.is_numeric():
            lhs, rhs = self.coerce_data(lhs), self.coerce_data(rhs)
            if not (lhs.type.is_real_scalar() and rhs.type.is_real_scalar()):
                self.err(e, "cannot mix data and control values in arithmetic")
            if op == "%":
                self.err(e, "'%' is not defined on data values")
            out = T.join_precision(lhs.type, rhs.type)
            if out is None:
                self.err(e, "inconsistent precisions in arithmetic")
            return IR.rebuild(e, lhs=lhs, rhs=rhs, type=out)

        # control arithmetic: enforce quasi-affine restrictions
        if not (lhs.type.is_indexable() and rhs.type.is_indexable()):
            self.err(e, f"'{op}' requires indexable control operands")
        if op == "*":
            if not (_is_int_const(lhs) or _is_int_const(rhs)):
                self.err(
                    e,
                    "control multiplication must have an integer literal "
                    "on one side (quasi-affine restriction)",
                )
        if op in ("/", "%"):
            if not _is_int_const(rhs) or rhs.val <= 0:
                self.err(
                    e,
                    f"'{op}' on control values requires a positive integer "
                    "literal divisor (quasi-affine restriction)",
                )
        out = _join_control(lhs.type, rhs.type)
        return IR.rebuild(e, lhs=lhs, rhs=rhs, type=out)

    def check_window(self, e: IR.WindowExpr) -> IR.WindowExpr:
        typ = self.env.get(e.name)
        if typ is None:
            self.err(e, f"undefined variable {e.name}")
        if not typ.is_tensor_or_window():
            self.err(e, f"cannot window non-tensor {e.name}")
        shape = typ.shape()
        if len(e.idx) != len(shape):
            self.err(
                e,
                f"window of {e.name} must give all {len(shape)} coordinates",
            )
        coords = []
        out_dims = []
        for w, extent in zip(e.idx, shape):
            if isinstance(w, IR.Interval):
                lo = w.lo if w.lo is not None else IR.Const(0, T.int_t, e.srcinfo)
                hi = w.hi if w.hi is not None else extent
                lo = self.check_control(lo, "window bound")
                hi = self.check_control(hi, "window bound")
                coords.append(IR.rebuild(w, lo=lo, hi=hi))
                out_dims.append(
                    IR.BinOp("-", hi, lo, T.index_t, e.srcinfo)
                    if not _is_zero(lo)
                    else hi
                )
            else:
                pt = self.check_control(w.pt, "window coordinate")
                coords.append(IR.rebuild(w, pt=pt))
        if not out_dims:
            self.err(e, "window must keep at least one interval dimension")
        wtyp = T.Tensor(typ.basetype(), tuple(out_dims), True)
        if wtyp == e.type:
            wtyp = e.type  # an equal type is kept, so is the window
        return IR.rebuild(e, idx=coords, type=wtyp)


def _is_int_const(e):
    return isinstance(e, IR.Const) and isinstance(e.val, int) and not e.type.is_bool()


def _is_zero(e):
    return isinstance(e, IR.Const) and e.val == 0


def _join_control(a: T.Type, b: T.Type) -> T.Type:
    # size op size stays size only syntactically; be conservative: index
    if a.is_sizeable() and b.is_sizeable():
        return T.index_t
    return T.index_t


def _control_compatible(formal: T.Type, actual: T.Type) -> bool:
    if formal.is_bool():
        return actual.is_bool()
    if formal.is_stridable():
        return actual.is_stridable()
    # size/index/int params accept any indexable expression; positivity of
    # size arguments is established by the assertion checker, not here.
    return actual.is_indexable()
