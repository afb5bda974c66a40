"""Reference interpreter for LoopIR.

Executes a procedure on numpy buffers, following the denotational semantics
of §4 directly: stores map names to control values or buffers; windows are
aliasing numpy views; ``@instr`` procedures execute their Exo bodies (the
body *is* the semantic specification of the instruction, §3.2.2).

The interpreter is the ground truth that scheduled kernels are differential-
tested against, and the functional half of the machine simulators: a
simulator may register an ``instr_hook`` to intercept instruction calls
(e.g. to log a trace or to model the accelerator's own execution) while
everything else runs under the normal semantics.
"""

from __future__ import annotations

import numpy as np

from .prelude import ExoError, InternalError
from . import ast as IR
from . import types as T
from .pprint import expr_to_str


class InterpError(ExoError):
    pass


def dtype_of(typ: T.Type):
    return typ.basetype().dtype()


def run_proc(proc: IR.Proc, *args, config_state=None, instr_hook=None):
    """Execute ``proc`` on the given arguments.

    Tensor arguments must be numpy arrays (modified in place); control
    arguments are Python ints/bools; scalar data arguments may be 0-d numpy
    arrays (mutable) or Python floats (read-only).

    ``config_state`` is a mutable dict holding configuration fields, keyed
    by ``(config, field)``.  ``instr_hook(proc, env_args)`` is called for
    every ``@instr`` call; if it returns True the body is skipped.
    """
    config_state = config_state if config_state is not None else {}
    interp = _Interp(config_state, instr_hook)
    check_shapes(proc, bind_args(proc, list(args)))
    interp.call(proc, list(args))
    return config_state


def bind_args(proc: IR.Proc, arg_values) -> dict:
    """The environment binding ``proc``'s formals to ``arg_values``, each
    coerced as the formal's type requires."""
    if len(arg_values) != len(proc.args):
        raise InterpError(
            f"{proc.name}: expected {len(proc.args)} arguments, "
            f"got {len(arg_values)}"
        )
    return {formal.name: _coerce_arg(formal, val)
            for formal, val in zip(proc.args, arg_values)}


def _coerce_arg(formal: IR.FnArg, val):
    typ = formal.type
    if typ.is_numeric():
        if typ.is_real_scalar():
            if isinstance(val, (int, float)):
                return np.asarray(val, dtype=dtype_of(typ))
            return val
        if not isinstance(val, np.ndarray):
            raise InterpError(
                f"argument {formal.name} must be a numpy array"
            )
        return val
    if typ.is_bool():
        return bool(val)
    return int(val)


def check_shapes(proc: IR.Proc, env):
    """Raise :class:`InterpError` unless every tensor argument in ``env``
    has the shape its formal declares, evaluated from the control
    arguments (numpy would otherwise clamp or wrap out-of-shape slices)."""
    interp = _Interp({}, None)
    for formal in proc.args:
        if not formal.type.is_tensor_or_window():
            continue
        want = tuple(interp.eval(h, env) for h in formal.type.shape())
        got = env[formal.name].shape
        if got != want:
            raise InterpError(
                f"{proc.name}: argument {formal.name} has shape "
                f"{list(got)}, but its type declares {list(want)}"
            )


def check_call(proc: IR.Proc, arg_values) -> dict:
    """The bound environment of ``arg_values``, checked as :func:`run_proc`
    checks it (arity, coercion, shapes, ``assert`` preconditions)."""
    env = bind_args(proc, list(arg_values))
    check_shapes(proc, env)
    _Interp({}, None).check_preds(proc, env)
    return env


class _Interp:
    def __init__(self, config_state, instr_hook):
        self.config = config_state
        self.instr_hook = instr_hook

    # -- procedure calls ---------------------------------------------------

    def call(self, proc: IR.Proc, arg_values):
        env = bind_args(proc, arg_values)
        # the hook runs first: a timing-only tracer skips bodies (and hence
        # the dynamic precondition sanity checks, which need config state)
        if proc.instr is not None and self.instr_hook is not None:
            if self.instr_hook(proc, env):
                return
        self.check_preds(proc, env)
        self.exec_block(proc.body, env)

    def check_preds(self, proc: IR.Proc, env):
        for pred in proc.preds:
            if not self.eval(pred, env):
                raise InterpError(
                    f"{proc.name}: precondition failed: {expr_to_str(pred)}"
                )

    # -- statements ----------------------------------------------------------

    def exec_block(self, stmts, env):
        for s in stmts:
            self.exec_stmt(s, env)

    def exec_stmt(self, s: IR.Stmt, env):
        if isinstance(s, IR.Assign):
            buf = env[s.name]
            idx = tuple(self.eval(i, env) for i in s.idx)
            val = self.eval(s.rhs, env)
            if idx:
                buf[idx] = val
            else:
                buf[()] = val
        elif isinstance(s, IR.Reduce):
            buf = env[s.name]
            idx = tuple(self.eval(i, env) for i in s.idx)
            val = self.eval(s.rhs, env)
            if idx:
                buf[idx] += val
            else:
                buf[()] += val
        elif isinstance(s, IR.WriteConfig):
            self.config[(s.config, s.field)] = self.eval(s.rhs, env)
        elif isinstance(s, IR.Pass):
            pass
        elif isinstance(s, IR.If):
            if self.eval(s.cond, env):
                self.exec_block(s.body, env)
            else:
                self.exec_block(s.orelse, env)
        elif isinstance(s, IR.For):
            lo = self.eval(s.lo, env)
            hi = self.eval(s.hi, env)
            for i in range(lo, hi):
                env[s.iter] = i
                self.exec_block(s.body, env)
            env.pop(s.iter, None)
        elif isinstance(s, IR.Alloc):
            if s.type.is_real_scalar():
                env[s.name] = np.zeros((), dtype=dtype_of(s.type))
            else:
                shape = tuple(self.eval(h, env) for h in s.type.shape())
                env[s.name] = np.zeros(shape, dtype=dtype_of(s.type))
        elif isinstance(s, IR.Call):
            args = [self.eval_arg(a, env) for a in s.args]
            self.call(s.proc, args)
        elif isinstance(s, IR.WindowStmt):
            env[s.name] = self.eval(s.rhs, env)
        else:
            raise InternalError(f"unknown statement {type(s).__name__}")

    def eval_arg(self, e: IR.Expr, env):
        # buffer arguments pass by reference (views); others by value
        if isinstance(e, IR.Read) and not e.idx:
            return env[e.name]
        return self.eval(e, env)

    # -- expressions ---------------------------------------------------------

    def eval(self, e: IR.Expr, env):
        if isinstance(e, IR.Read):
            val = env[e.name]
            if e.idx:
                return val[tuple(self.eval(i, env) for i in e.idx)]
            if isinstance(val, np.ndarray) and val.ndim == 0:
                return val[()]
            return val
        if isinstance(e, IR.Const):
            return e.val
        if isinstance(e, IR.USub):
            return -self.eval(e.arg, env)
        if isinstance(e, IR.BinOp):
            return self.eval_binop(e, env)
        if isinstance(e, IR.Extern):
            return e.f.interpret([self.eval(a, env) for a in e.args])
        if isinstance(e, IR.WindowExpr):
            buf = env[e.name]
            index = []
            for w in e.idx:
                if isinstance(w, IR.Interval):
                    index.append(slice(self.eval(w.lo, env), self.eval(w.hi, env)))
                else:
                    index.append(self.eval(w.pt, env))
            return buf[tuple(index)]
        if isinstance(e, IR.StrideExpr):
            buf = env[e.name]
            return buf.strides[e.dim] // buf.itemsize
        if isinstance(e, IR.ReadConfig):
            key = (e.config, e.field)
            if key not in self.config:
                raise InterpError(
                    f"read of uninitialized config {e.config.name()}.{e.field}"
                )
            return self.config[key]
        raise InternalError(f"unknown expression {type(e).__name__}")

    def eval_binop(self, e: IR.BinOp, env):
        op = e.op
        l = self.eval(e.lhs, env)
        if op == "and":
            return bool(l) and bool(self.eval(e.rhs, env))
        if op == "or":
            return bool(l) or bool(self.eval(e.rhs, env))
        r = self.eval(e.rhs, env)
        is_ctrl = e.type is not None and not e.type.is_numeric()
        if op == "+":
            return l + r
        if op == "-":
            return l - r
        if op == "*":
            return l * r
        if op == "/":
            if e.lhs.type is not None and e.lhs.type.is_indexable():
                return l // r
            return l / r
        if op == "%":
            return l % r
        if op == "==":
            return l == r
        if op == "<":
            return l < r
        if op == ">":
            return l > r
        if op == "<=":
            return l <= r
        if op == ">=":
            return l >= r
        raise InternalError(f"unknown operator {op}")
