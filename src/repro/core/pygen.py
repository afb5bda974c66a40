"""Python code generation for timing traces.

Exo programs are static-control (§3.1): the ``@instr`` calls a procedure
issues depend only on its control arguments.  :func:`lower` translates a
LoopIR procedure -- and, recursively, its non-instruction callees -- once
into Python source, compiles it, and caches the function on the IR node.
Running it appends one :class:`~repro.machine.trace.Event` per instruction
call without executing instruction bodies: the timing-mode trace of
``machine/trace.py``, at a fraction of the tree-walking interpreter's cost.

Values in the generated code:

* control values are Python ints and bools; ``for`` loops are ``range``
  loops and control expressions are int arithmetic;
* a tensor or window is a *buffer* ``(id, flat, byte0, itemsize)`` plus an
  element offset, a shape and element strides -- the tuple
  ``(buffer, offset, shape, strides)`` at call boundaries, unpacked into
  locals inside a body.  ``flat`` is a 1-D numpy array aliasing the root
  storage, so a data statement indexes ``flat[off + i*s0 + j*s1]``;
* ``id`` is the buffer identity, numbered per trace: a fresh number for
  every executed ``Alloc``, and one per distinct root array among the
  tensor arguments, so a freed buffer is never confused with a later one;
* a scalar data value is a ``(flat, offset)`` pair, so callees can write
  through it.

Per event, the generated code does only the work that depends on the
event:

* *folded operand geometry.*  An instruction operand's
  :class:`~repro.machine.trace.Region` is built at the call site from its
  byte start ``lo`` and six geometry values (:func:`_geometry`: span,
  payload size, pitch, and the column test of the rows model).  When the
  window's item size, shape and strides are constants -- every
  fixed-size allocation -- they are literals in the source; when they are
  an argument's shape and stride locals, they are computed once at
  function entry.  Only ``lo`` and the ``lo % pitch`` test of a
  degenerate row run per event; other windows fall back to
  :func:`_region`, which computes the same rectangle at run time.  No
  numpy view is built;
* *storage only where data flows.*  An allocation gets ``flat`` storage
  only when a data statement, an instruction's scalar data operand or a
  non-instr callee can reach it (:func:`_observed_buffers`, which counts
  every name read anywhere but as an instruction's tensor operand); a
  buffer that only instructions touch is just a fresh identity;
* *shared control dicts.*  A call site whose control arguments are all
  integer literals passes one module-level dict to every event it emits,
  so ``Event.ctrl`` (like ``Event.operands``) is read-only.

Statements outside instruction bodies keep the interpreter's semantics:
data writes, config writes, preconditions.  The interpreter
(:mod:`repro.core.interp`) stays the reference that these traces are
differential-tested against.
"""

from __future__ import annotations

import itertools
from typing import List

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .prelude import InternalError
from . import ast as IR
from .interp import InterpError, bind_args, check_shapes, dtype_of
from ..machine.trace import Event, Region, root_of


def trace(proc: IR.Proc, args) -> List[Event]:
    """The timing-mode instruction trace of ``proc`` on ``args``."""
    fn = lower(proc)
    env = bind_args(proc, args)
    check_shapes(proc, env)
    new_id = itertools.count(1).__next__
    roots = {}
    params = []
    for formal in proc.args:
        val = env[formal.name]
        if formal.type.is_tensor_or_window():
            val = _tensor_arg(formal, val, roots, new_id)
        elif formal.type.is_numeric():
            val = _scalar_arg(val, dtype_of(formal.type))
        params.append(val)
    events: List[Event] = []
    fn(events.append, {}, new_id, *params)
    return events


def _tensor_arg(formal, arr: np.ndarray, roots: dict, new_id):
    """The window tuple of a tensor argument; aliasing arguments share the
    identity of their root array."""
    root = root_of(arr)
    bid = roots.get(id(root))
    if bid is None:
        bid = roots[id(root)] = new_id()
    sz = arr.itemsize
    if any(s < 0 or s % sz for s in arr.strides):
        raise InterpError(
            f"argument {formal.name}: strides {arr.strides} are not "
            f"non-negative multiples of the item size {sz}"
        )
    strides = tuple(s // sz for s in arr.strides)
    span = 0
    if arr.size:
        span = 1 + sum((n - 1) * s for n, s in zip(arr.shape, strides))
    flat = as_strided(arr, shape=(span,), strides=(sz,))
    byte0 = (arr.__array_interface__["data"][0]
             - root.__array_interface__["data"][0])
    return (bid, flat, byte0, sz), 0, arr.shape, strides


def lower(proc: IR.Proc):
    """The compiled trace function of ``proc``, lowered on first use.

    Its signature is ``fn(append, config, new_id, *args)``: ``append``
    receives each Event, ``config`` maps ``(config, field)`` to values,
    ``new_id()`` numbers buffers, and each argument is a control value, a
    window tuple or a scalar pair.  The generated source is kept as
    ``fn.source``."""
    fn = proc.__dict__.get("_pygen")
    if fn is None:
        body = proc
        if proc.instr is not None:  # traced on its own: one event
            call = IR.Call(proc, tuple(IR.Read(a.name, (), a.type)
                                       for a in proc.args))
            body = IR.Proc(proc.name, proc.args, (), (call,))
        fn = _Lowering(body).compile()
        proc.__dict__["_pygen"] = fn
    return fn


# ---------------------------------------------------------------------------
# Run-time helpers of the generated code
# ---------------------------------------------------------------------------


def _geometry(sz, shape, strides):
    """``(span, size, pitch, modulus, limit, width)`` of a window with
    element ``shape`` and ``strides`` and item size ``sz``, in bytes: the
    rectangle of ``machine.trace._region_of`` up to its start ``lo``.  The
    rows model applies to a start when ``lo % modulus <= limit``; ``limit``
    is -1 when it applies to none (no unit last stride, a zero pitch, or
    rows wider than the pitch)."""
    span = sz
    size = sz
    for n, s in zip(shape, strides):
        size *= n
        if n > 0:
            span += (n - 1) * s * sz
    pitch = width = 0
    if len(shape) >= 2 and strides[-1] == 1:
        pitch = strides[-2] * sz
        width = shape[-1] * sz
    if pitch > 0 and width <= pitch:
        return span, size, pitch, pitch, pitch - width, width
    return span, size, 0, 1, -1, 0


def _region(bid, b0, sz, space, off, shape, strides):
    """The Region of a window whose geometry is known only at run time."""
    span, size, pitch, modulus, limit, width = _geometry(sz, shape, strides)
    lo = b0 + off * sz
    col = lo % modulus
    if col <= limit:
        return Region(bid, lo, lo + span, size, space, pitch, col, col + width)
    return Region(bid, lo, lo + span, size, space)


def _read_config(cfg, key):
    try:
        return cfg[key]
    except KeyError:
        raise InterpError(
            f"read of uninitialized config {key[0].name()}.{key[1]}"
        ) from None


def _scalar_ctrl(val, dtype):
    """An instruction's scalar data operand as the interpreter records it."""
    if isinstance(val, (int, float)):
        return float(dtype(val))
    return val


def _scalar_arg(val, dtype):
    """A scalar data argument passed by value, as a ``(flat, off)`` pair."""
    if isinstance(val, (int, float)):
        val = np.asarray(val, dtype=dtype)
    return np.asarray(val).reshape(1), 0


_HELPERS = {
    "_np_zeros": np.zeros,
    "_Event": Event,
    "_Region": Region,
    "_geometry": _geometry,
    "_region": _region,
    "_read_config": _read_config,
    "_scalar_ctrl": _scalar_ctrl,
    "_scalar_arg": _scalar_arg,
    "_InterpError": InterpError,
}


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def _int(s: str):
    try:
        return int(s)
    except ValueError:
        return None


def _mul(a: str, b: str) -> str:
    ia, ib = _int(a), _int(b)
    if ia is not None and ib is not None:
        return str(ia * ib)
    if ia == 0 or ib == 0:
        return "0"
    if ia == 1:
        return b
    if ib == 1:
        return a
    return f"{a} * {b}"


def _sum(terms) -> str:
    const = 0
    parts = []
    for t in terms:
        i = _int(t)
        if i is None:
            parts.append(t)
        else:
            const += i
    if const or not parts:
        parts.append(str(const))
    return parts[0] if len(parts) == 1 else "(" + " + ".join(parts) + ")"


def _tup(xs) -> str:
    return f"({xs[0]},)" if len(xs) == 1 else f"({', '.join(xs)})"


class _Tensor:
    """Compile-time view of a tensor/window variable: the prefix of its
    buffer locals, expressions for its buffer's byte start and item size,
    and expressions for its offset, shape and strides.  An allocation that
    is not ``stored`` has an identity but no ``flat`` storage."""

    def __init__(self, buf: str, b0: str, sz: str, off: str, shape, strides,
                 stored: bool = True):
        self.buf = buf
        self.b0 = b0
        self.sz = sz
        self.off = off
        self.shape = list(shape)
        self.strides = list(strides)
        self.stored = stored

    def view(self, off: str, shape, strides) -> "_Tensor":
        """A window of the same buffer."""
        return _Tensor(self.buf, self.b0, self.sz, off, shape, strides,
                       self.stored)

    def flat(self) -> str:
        if not self.stored:
            raise InternalError(f"{self.buf}: no storage was allocated")
        return f"{self.buf}_fl"

    def window(self) -> str:
        self.flat()
        return (f"({self.buf}_b, {self.off}, {_tup(self.shape)}, "
                f"{_tup(self.strides)})")


class _Scalar:
    """Compile-time view of a scalar data variable: ``flat[off]``."""

    def __init__(self, prefix: str):
        self.fl = f"{prefix}_fl"
        self.off = f"{prefix}_o"

    def ref(self) -> str:
        return f"{self.fl}[{self.off}]"


class _Lowering:
    """Translates one procedure body to the source of one function."""

    def __init__(self, proc: IR.Proc):
        self.proc = proc
        self.env = {}  # Sym -> local name (control), _Tensor or _Scalar
        self.globals = dict(_HELPERS)
        self.consts = {}  # id(obj) or a value key -> global name
        self.lines: List[str] = []
        self.fresh = itertools.count()
        self.stored = _observed_buffers(proc.body)
        self.entry = set()  # locals bound before the body runs
        self.geoms = {}  # (sz, shape, strides) -> hoisted geometry locals
        self.hoisted: List[str] = []

    def compile(self):
        p = self.proc
        params = []
        head = []
        for a in p.args:
            name = self.local(a.name)
            params.append(name)
            typ = a.type
            if typ.is_tensor_or_window():
                rank = len(typ.shape())
                shape = [f"{name}_n{d}" for d in range(rank)]
                strides = [f"{name}_s{d}" for d in range(rank)]
                head.append(f"{name}_b, {name}_o, {_tup(shape)}, "
                            f"{_tup(strides)} = {name}")
                head.append(f"{name}_id, {name}_fl, {name}_b0, {name}_sz = {name}_b")
                self.env[a.name] = _Tensor(name, f"{name}_b0", f"{name}_sz",
                                           f"{name}_o", shape, strides)
                self.entry.update([*shape, *strides, f"{name}_sz"])
            elif typ.is_numeric():
                head.append(f"{name}_fl, {name}_o = {name}")
                self.env[a.name] = _Scalar(name)
            else:
                self.env[a.name] = name
                self.entry.add(name)
        fname = f"trace_{p.name}"
        self.lines.append(
            f"def {fname}(_append, _cfg, _new_id, {', '.join(params)}):")
        for h in head:
            self.emit(1, h)
        hoist_at = len(self.lines)
        for pred in p.preds:
            msg = self.const(f"{p.name}: precondition failed: {pred}")
            self.emit(1, f"if not ({self.ex(pred)}):")
            self.emit(2, f"raise _InterpError({msg})")
        self.block(p.body, 1)
        self.emit(1, "return")
        self.lines[hoist_at:hoist_at] = ["    " + h for h in self.hoisted]
        src = "\n".join(self.lines) + "\n"
        code = compile(src, f"<pygen {p.name}>", "exec")
        ns = self.globals
        exec(code, ns)
        fn = ns[fname]
        fn.source = src
        return fn

    # -- helpers -------------------------------------------------------------

    def emit(self, depth: int, line: str):
        self.lines.append("    " * depth + line)

    def local(self, sym) -> str:
        return f"{sym.name}_{next(self.fresh)}"

    def const(self, obj, key=None) -> str:
        """A global name bound to ``obj`` in the generated module; one per
        ``key`` (by default the value of a str or tuple, else the object)."""
        if key is None:
            key = ((type(obj).__name__, obj) if isinstance(obj, (str, tuple))
                   else id(obj))
        name = self.consts.get(key)
        if name is None:
            name = f"_K{len(self.consts)}"
            self.consts[key] = name
            self.globals[name] = obj
        return name

    # -- statements ----------------------------------------------------------

    def block(self, stmts, depth: int):
        n = len(self.lines)
        for s in stmts:
            self.stmt(s, depth)
        if len(self.lines) == n:
            self.emit(depth, "pass")

    def stmt(self, s: IR.Stmt, d: int):
        if isinstance(s, (IR.Assign, IR.Reduce)):
            op = "=" if isinstance(s, IR.Assign) else "+="
            self.emit(d, f"{self.access(s.name, s.idx)} {op} {self.ex(s.rhs)}")
        elif isinstance(s, IR.WriteConfig):
            key = self.const((s.config, s.field))
            self.emit(d, f"_cfg[{key}] = {self.ex(s.rhs)}")
        elif isinstance(s, IR.Pass):
            pass
        elif isinstance(s, IR.If):
            self.emit(d, f"if {self.ex(s.cond)}:")
            self.block(s.body, d + 1)
            if s.orelse:
                self.emit(d, "else:")
                self.block(s.orelse, d + 1)
        elif isinstance(s, IR.For):
            it = self.local(s.iter)
            self.env[s.iter] = it
            self.emit(d, f"for {it} in range({self.ex(s.lo)}, {self.ex(s.hi)}):")
            self.block(s.body, d + 1)
        elif isinstance(s, IR.Alloc):
            self.alloc(s, d)
        elif isinstance(s, IR.Call):
            if s.proc.instr is not None:
                self.instr_call(s, d)
            else:
                self.proc_call(s, d)
        elif isinstance(s, IR.WindowStmt):
            src = self.env[s.rhs.name]
            off, shape, strides = self.window(s.rhs)
            name = self.local(s.name)
            self.emit(d, f"{name}_o = {off}")
            for k, n in enumerate(shape):
                if _int(n) is None:
                    self.emit(d, f"{name}_n{k} = {n}")
                    shape[k] = f"{name}_n{k}"
            self.env[s.name] = src.view(f"{name}_o", shape, strides)
        else:
            raise InternalError(f"unknown statement {type(s).__name__}")

    def alloc(self, s: IR.Alloc, d: int):
        name = self.local(s.name)
        if s.type.is_real_scalar():
            dt = self.const(dtype_of(s.type))
            self.emit(d, f"{name}_fl = _np_zeros(1, {dt})")
            self.emit(d, f"{name}_o = 0")
            self.env[s.name] = _Scalar(name)
            return
        shape = []
        for k, h in enumerate(s.type.shape()):
            e = self.ex(h)
            if _int(e) is None:
                self.emit(d, f"{name}_n{k} = {e}")
                e = f"{name}_n{k}"
            shape.append(e)
        # C-order strides as numpy computes them (a zero extent counts as 1)
        strides = ["1"] * len(shape)
        for k in range(len(shape) - 2, -1, -1):
            n = shape[k + 1]
            ext = n if _int(n) is not None else f"max({n}, 1)"
            if _int(ext) is not None:
                ext = str(max(int(ext), 1))
            stride = _mul(strides[k + 1], ext)
            if _int(stride) is None:
                self.emit(d, f"{name}_s{k} = {stride}")
                stride = f"{name}_s{k}"
            strides[k] = stride
        sz = np.dtype(dtype_of(s.type)).itemsize
        stored = s.name in self.stored
        self.emit(d, f"{name}_id = _new_id()")
        if stored:
            total = "1"
            for n in shape:
                total = _mul(total, n)
            dt = self.const(dtype_of(s.type))
            self.emit(d, f"{name}_fl = _np_zeros({total}, {dt})")
            self.emit(d, f"{name}_b = ({name}_id, {name}_fl, 0, {sz})")
        self.env[s.name] = _Tensor(name, "0", str(sz), "0", shape, strides,
                                   stored)

    def instr_call(self, s: IR.Call, d: int):
        ctrl = []  # (key, source)
        operands = []
        for formal, actual in zip(s.proc.args, s.args):
            key = str(formal.name)
            typ = formal.type
            if typ.is_tensor_or_window():
                space = formal.mem.name() if formal.mem is not None else "dram"
                operands.append(f"{key!r}: {self.region(actual, space)}")
            elif typ.is_numeric():
                var = (self.env.get(actual.name)
                       if isinstance(actual, IR.Read) and not actual.idx
                       else None)
                if isinstance(var, _Scalar):
                    ctrl.append((key, f"float({var.ref()})"))
                else:
                    dt = self.const(dtype_of(typ))
                    ctrl.append((key, f"_scalar_ctrl({self.ex(actual)}, {dt})"))
            else:
                ctrl.append((key, self.ctrl_arg(typ, actual)))
        if all(_int(v) is not None for _k, v in ctrl):
            # one dict shared by every event of this call site
            fixed = tuple((k, int(v)) for k, v in ctrl)
            ctrl_src = self.const(dict(fixed), key=("ctrl", fixed))
        else:
            ctrl_src = "{" + ", ".join(f"{k!r}: {v}" for k, v in ctrl) + "}"
        name = repr(s.proc.name)
        self.emit(d, f"_append(_Event({name}, {ctrl_src}, "
                     f"{{{', '.join(operands)}}}))")

    def proc_call(self, s: IR.Call, d: int):
        callee = self.const(lower(s.proc))
        args = []
        for formal, actual in zip(s.proc.args, s.args):
            typ = formal.type
            if typ.is_tensor_or_window():
                if isinstance(actual, IR.WindowExpr):
                    src = self.env[actual.name]
                    args.append(src.view(*self.window(actual)).window())
                else:
                    args.append(self.env[actual.name].window())
            elif typ.is_numeric():
                var = (self.env.get(actual.name)
                       if isinstance(actual, IR.Read) and not actual.idx
                       else None)
                if isinstance(var, _Scalar):
                    args.append(f"({var.fl}, {var.off})")
                else:
                    dt = self.const(dtype_of(typ))
                    args.append(f"_scalar_arg({self.ex(actual)}, {dt})")
            else:
                args.append(self.ctrl_arg(typ, actual))
        self.emit(d, f"{callee}(_append, _cfg, _new_id, {', '.join(args)})")

    def ctrl_arg(self, typ, e: IR.Expr) -> str:
        """A control argument, coerced as the interpreter coerces it."""
        src = self.ex(e)
        if typ.is_bool():
            return src if _is_bool(e) else f"bool({src})"
        return src if _is_int(e) else f"int({src})"

    def region(self, actual: IR.Expr, space: str) -> str:
        """The Region of an instruction operand.  Its geometry is folded
        to literals when shape, strides and item size are constants, read
        from locals computed once at entry when they are the arguments',
        and computed by ``_region`` at run time otherwise."""
        src = self.env[actual.name]
        if isinstance(actual, IR.WindowExpr):
            off, shape, strides = self.window(actual)
        else:
            off, shape, strides = src.off, src.shape, src.strides
        bid = f"{src.buf}_id"
        geom = self.geometry(src.sz, shape, strides)
        if geom is None:
            return (f"_region({bid}, {src.b0}, {src.sz}, {space!r}, {off}, "
                    f"{_tup(shape)}, {_tup(strides)})")
        return _region_src(bid, _sum([src.b0, _mul(off, src.sz)]), space, geom)

    def geometry(self, sz: str, shape, strides):
        """The six ``_geometry`` values of a window, as literals or as
        locals hoisted to the function entry; None when they depend on
        values bound inside the body."""
        parts = [sz, *shape, *strides]
        if all(_int(x) is not None for x in parts):
            return tuple(map(str, _geometry(int(sz), [int(n) for n in shape],
                                            [int(x) for x in strides])))
        if not all(_int(x) is not None or x in self.entry for x in parts):
            return None
        key = (sz, tuple(shape), tuple(strides))
        names = self.geoms.get(key)
        if names is None:
            g = f"_g{len(self.geoms)}"
            names = self.geoms[key] = tuple(
                f"{g}_{f}" for f in ("span", "size", "pitch", "mod", "lim", "w"))
            self.hoisted.append(f"{', '.join(names)} = _geometry({sz}, "
                                f"{_tup(shape)}, {_tup(strides)})")
        return names

    def window(self, w: IR.WindowExpr):
        """(offset, shape, strides) expressions of a window expression."""
        src = self.env[w.name]
        terms = [src.off]
        shape = []
        strides = []
        for acc, stride in zip(w.idx, src.strides):
            if isinstance(acc, IR.Interval):
                lo = self.ex(acc.lo)
                terms.append(_mul(lo, stride))
                shape.append(self.extent(acc.lo, acc.hi))
                strides.append(stride)
            else:
                terms.append(_mul(self.ex(acc.pt), stride))
        return _sum(terms), shape, strides

    def extent(self, lo: IR.Expr, hi: IR.Expr) -> str:
        l, h = self.ex(lo), self.ex(hi)
        if _int(l) is not None and _int(h) is not None:
            return str(int(h) - int(l))
        if (isinstance(hi, IR.BinOp) and hi.op == "+"
                and isinstance(hi.rhs, IR.Const) and type(hi.rhs.val) is int
                and self.ex(hi.lhs) == l):
            return str(hi.rhs.val)
        return f"({h} - {l})"

    def access(self, name, idx) -> str:
        var = self.env[name]
        if isinstance(var, _Scalar):
            return var.ref()
        terms = [var.off]
        for i, stride in zip(idx, var.strides):
            terms.append(_mul(self.ex(i), stride))
        return f"{var.flat()}[{_sum(terms)}]"

    # -- expressions ---------------------------------------------------------

    def ex(self, e: IR.Expr) -> str:
        if isinstance(e, IR.Read):
            var = self.env[e.name]
            if isinstance(var, str):
                return var
            return self.access(e.name, e.idx)
        if isinstance(e, IR.Const):
            v = e.val
            if type(v) is int and v >= 0:
                return str(v)
            return f"({v!r})"
        if isinstance(e, IR.USub):
            return f"(-{self.ex(e.arg)})"
        if isinstance(e, IR.BinOp):
            l, r = self.ex(e.lhs), self.ex(e.rhs)
            op = e.op
            if op in ("and", "or"):
                return f"(bool({l}) {op} bool({r}))"
            if op == "/" and e.lhs.type is not None and e.lhs.type.is_indexable():
                op = "//"
            return f"({l} {op} {r})"
        if isinstance(e, IR.Extern):
            f = self.const(e.f)
            return f"{f}.interpret([{', '.join(self.ex(a) for a in e.args)}])"
        if isinstance(e, IR.StrideExpr):
            return self.env[e.name].strides[e.dim]
        if isinstance(e, IR.ReadConfig):
            return f"_read_config(_cfg, {self.const((e.config, e.field))})"
        raise InternalError(f"unknown expression {type(e).__name__}")


def _observed_buffers(body) -> set:
    """The buffers of ``body`` whose element values a trace can observe:
    those a data statement reads or writes, an instruction takes as a
    scalar data operand, or a non-instr callee receives -- through any
    chain of window statements.  Conservatively, every name read anywhere
    but as an instruction's tensor operand counts."""
    alias = {}
    used = set()
    for s in IR.walk_stmts(body):
        exprs = IR.stmt_exprs(s)
        if isinstance(s, (IR.Assign, IR.Reduce)):
            used.add(s.name)
        elif isinstance(s, IR.WindowStmt):
            alias[s.name] = s.rhs.name
            exprs = IR.sub_exprs(s.rhs)
        elif isinstance(s, IR.Call) and s.proc.instr is not None:
            exprs = []
            for formal, actual in zip(s.proc.args, s.args):
                if formal.type.is_tensor_or_window():
                    exprs += IR.sub_exprs(actual)  # window bounds only
                else:
                    exprs.append(actual)
        for e in exprs:
            for x in IR.walk_exprs(e):
                if isinstance(x, (IR.Read, IR.WindowExpr)):
                    used.add(x.name)
    roots = set()
    for name in used:
        while name in alias:
            name = alias[name]
        roots.add(name)
    return roots


def _region_src(bid: str, lo: str, space: str, geom) -> str:
    """Source of the Region at byte start ``lo`` of buffer ``bid`` with the
    six ``_geometry`` values ``geom`` (literals or locals): every field is
    a literal when ``lo`` and ``geom`` are; otherwise only ``lo`` and its
    column ``lo % modulus`` are computed, into the locals ``_l``, ``_c``."""
    if all(_int(x) is not None for x in (lo, *geom)):
        lo, span, size, pitch, modulus, limit, width = map(int, (lo, *geom))
        col = lo % modulus
        if col <= limit:
            return (f"_Region({bid}, {lo}, {lo + span}, {size}, {space!r}, "
                    f"{pitch}, {col}, {col + width})")
        return f"_Region({bid}, {lo}, {lo + span}, {size}, {space!r})"
    span, size, pitch, modulus, limit, width = geom
    if _int(limit) is not None and int(limit) < 0:
        return f"_Region({bid}, (_l := {lo}), _l + {span}, {size}, {space!r})"
    return (f"(_Region({bid}, _l, _l + {span}, {size}, {space!r}, {pitch}, "
            f"_c, _c + {width}) if (_c := (_l := {lo}) % {modulus}) <= {limit} "
            f"else _Region({bid}, _l, _l + {span}, {size}, {space!r}))")


def _is_int(e: IR.Expr) -> bool:
    """Whether ``e`` certainly evaluates to a Python int."""
    if isinstance(e, IR.Const):
        return type(e.val) is int
    if isinstance(e, IR.Read):
        return not e.idx and e.type is not None and e.type.is_indexable()
    if isinstance(e, IR.StrideExpr):
        return True
    if isinstance(e, IR.USub):
        return _is_int(e.arg)
    if isinstance(e, IR.BinOp) and e.op in ("+", "-", "*", "%", "/"):
        if e.op == "/" and not (e.lhs.type is not None and e.lhs.type.is_indexable()):
            return False
        return _is_int(e.lhs) and _is_int(e.rhs)
    return False


def _is_bool(e: IR.Expr) -> bool:
    if isinstance(e, IR.Const):
        return type(e.val) is bool
    return isinstance(e, IR.BinOp) and e.op in (
        "==", "<", ">", "<=", ">=", "and", "or")
