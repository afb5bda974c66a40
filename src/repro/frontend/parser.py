"""Parser for the Python-embedded Exo DSL.

``@proc`` / ``@instr`` functions are never executed as Python.  Instead we
recover their source with :mod:`inspect`, parse it with :mod:`ast`, and
translate the (restricted) Python syntax into LoopIR.  Name resolution for
memories, configs, called procedures, builtins, and meta-level constants goes
through the decorated function's globals and closure.

User files should start with ``from __future__ import annotations`` so that
dependent type annotations such as ``f32[M, K] @ DRAM`` (which reference
other parameters) are not eagerly evaluated by Python itself.
"""

from __future__ import annotations

import ast as pyast
import inspect
import textwrap

from ..core import ast as IR
from ..core import types as T
from ..core.builtins import BUILTINS, BuiltIn
from ..core.configs import Config
from ..core.memory import Memory
from ..core.prelude import ParseError, SrcInfo, Sym


def get_src_locals_globals(fn):
    """The name-resolution environment of a decorated function."""
    env = dict(fn.__globals__)
    if fn.__closure__:
        for name, cell in zip(fn.__code__.co_freevars, fn.__closure__):
            try:
                env[name] = cell.cell_contents
            except ValueError:
                pass
    return env


def parse_function(fn, instr_info=None) -> IR.Proc:
    """Parse a decorated Python function into a LoopIR procedure."""
    from ..obs import trace as _obs

    with _obs.span("parse.function"):
        return _parse_function(fn, instr_info)


def _parse_function(fn, instr_info=None) -> IR.Proc:
    try:
        raw = inspect.getsource(fn)
    except (OSError, TypeError) as exc:
        raise ParseError(f"could not retrieve source for {fn!r}: {exc}") from exc
    src = textwrap.dedent(raw)
    tree = pyast.parse(src)
    fdef = tree.body[0]
    if not isinstance(fdef, pyast.FunctionDef):
        raise ParseError("@proc must decorate a plain function definition")
    filename = getattr(fn.__code__, "co_filename", "<unknown>")
    line0 = fn.__code__.co_firstlineno
    parser = _Parser(get_src_locals_globals(fn), filename, line0 - fdef.lineno)
    return parser.parse_proc(fdef, instr_info)


def parse_fragment(src: str, env: dict | None = None):
    """Parse an expression or statement fragment (used by pattern matching).

    Returns a list of statements, or a single expression.  The wildcard ``_``
    parses to a hole marker.
    """
    src = textwrap.dedent(src).strip()
    parser = _Parser(env or {}, "<pattern>", 0, allow_holes=True)
    try:
        etree = pyast.parse(src, mode="eval")
        # top-level calls are statement patterns (procedure calls), except
        # for expression-level built-ins like stride()/relu()/select()
        top = etree.body
        is_proc_call = isinstance(top, pyast.Call) and not (
            isinstance(top.func, pyast.Name)
            and (top.func.id == "stride" or top.func.id in BUILTINS)
        )
        if not is_proc_call:
            return parser.parse_expr(top, _PatternEnv())
    except SyntaxError:
        pass
    tree = pyast.parse(src)
    return parser.parse_stmts(tree.body, _PatternEnv())


class _Hole:
    """Wildcard marker used only inside patterns."""

    def __repr__(self):
        return "_"


HOLE = _Hole()


class ConfigByName:
    """Pattern-mode stand-in for a config resolved only by display name."""

    def __init__(self, name):
        self._name = name

    def name(self):
        return self._name

    def has_field(self, _fname):
        return True

    def field_type(self, _fname):
        return T.int_t

    def matches(self, other) -> bool:
        return getattr(other, "name", lambda: None)() == self._name


class _PatternEnv(dict):
    """In patterns, undefined names bind themselves as fresh symbols."""

    pattern_mode = True


class _Env(dict):
    pattern_mode = False


_BIN_OPS = {
    pyast.Add: "+",
    pyast.Sub: "-",
    pyast.Mult: "*",
    pyast.Div: "/",
    pyast.FloorDiv: "/",
    pyast.Mod: "%",
}

_CMP_OPS = {
    pyast.Eq: "==",
    pyast.Lt: "<",
    pyast.Gt: ">",
    pyast.LtE: "<=",
    pyast.GtE: ">=",
}


class _Parser:
    def __init__(self, globals_env, filename, line_offset, allow_holes=False):
        self.globals = globals_env
        self.filename = filename
        self.line_offset = line_offset
        self.allow_holes = allow_holes

    # -- misc helpers ------------------------------------------------------

    def srcinfo(self, node) -> SrcInfo:
        return SrcInfo(
            self.filename,
            getattr(node, "lineno", 0) + self.line_offset,
            getattr(node, "col_offset", 0),
        )

    def err(self, node, msg):
        raise ParseError(f"{self.srcinfo(node)}: {msg}")

    def lookup_global(self, name):
        return self.globals.get(name)

    # -- procedures --------------------------------------------------------

    def parse_proc(self, fdef: pyast.FunctionDef, instr_info) -> IR.Proc:
        env = _Env()
        args = []
        a = fdef.args
        if a.vararg or a.kwarg or a.kwonlyargs or a.posonlyargs or a.defaults:
            self.err(fdef, "procedures take simple positional arguments only")
        for arg in a.args:
            if arg.annotation is None:
                self.err(arg, f"argument {arg.arg!r} needs a type annotation")
            typ, mem = self.parse_type_annotation(arg.annotation, env)
            sym = Sym(arg.arg)
            env[arg.arg] = sym
            args.append(IR.FnArg(sym, typ, mem, self.srcinfo(arg)))

        body = list(fdef.body)
        # skip a leading docstring
        if (
            body
            and isinstance(body[0], pyast.Expr)
            and isinstance(body[0].value, pyast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            body = body[1:]
        preds = []
        while body and isinstance(body[0], pyast.Assert):
            preds.append(self.parse_expr(body[0].test, env))
            body = body[1:]
        stmts = self.parse_stmts(body, env)
        if not stmts:
            self.err(fdef, "procedure body is empty")
        return IR.Proc(
            name=fdef.name,
            args=tuple(args),
            preds=tuple(preds),
            body=tuple(stmts),
            instr=instr_info,
            srcinfo=self.srcinfo(fdef),
        )

    # -- types -------------------------------------------------------------

    def parse_type_annotation(self, node, env):
        """Parse ``typ`` or ``typ @ MEM`` annotations."""
        if isinstance(node, pyast.Constant) and isinstance(node.value, str):
            node = pyast.parse(node.value, mode="eval").body
        mem = None
        if isinstance(node, pyast.BinOp) and isinstance(node.op, pyast.MatMult):
            mem = self.parse_memory(node.right)
            node = node.left
        return self.parse_type(node, env), mem

    def parse_memory(self, node):
        if not isinstance(node, pyast.Name):
            self.err(node, "memory annotation must be a simple name")
        val = self.lookup_global(node.id)
        if not (isinstance(val, type) and issubclass(val, Memory)):
            self.err(node, f"{node.id!r} is not a Memory")
        return val

    def parse_type(self, node, env) -> T.Type:
        if isinstance(node, pyast.Name):
            typ = self.resolve_scalar_or_control(node.id)
            if typ is None:
                self.err(node, f"unknown type {node.id!r}")
            return typ
        if isinstance(node, pyast.Subscript):
            base, is_window = self.parse_tensor_base(node.value)
            dims_node = node.slice
            dims = (
                list(dims_node.elts)
                if isinstance(dims_node, pyast.Tuple)
                else [dims_node]
            )
            hi = tuple(self.parse_expr(d, env) for d in dims)
            return T.Tensor(base, hi, is_window)
        self.err(node, "malformed type annotation")

    def parse_tensor_base(self, node):
        if isinstance(node, pyast.Name):
            typ = T.scalar_by_name(node.id) or self.resolve_scalar_alias(node.id)
            if typ is None:
                self.err(node, f"unknown scalar type {node.id!r}")
            return typ, False
        if isinstance(node, pyast.List) and len(node.elts) == 1:
            inner, _win = self.parse_tensor_base(node.elts[0])
            return inner, True
        self.err(node, "malformed tensor type")

    def resolve_scalar_alias(self, name):
        val = self.lookup_global(name)
        if isinstance(val, T.Type) and val.is_real_scalar():
            return val
        return None

    def resolve_scalar_or_control(self, name):
        typ = T.scalar_by_name(name) or T.control_by_name(name)
        if typ is not None:
            return typ
        val = self.lookup_global(name)
        if isinstance(val, T.Type):
            return val
        return None

    # -- statements ----------------------------------------------------------

    def parse_stmts(self, nodes, env) -> tuple:
        out = []
        for node in nodes:
            out.extend(self.parse_stmt(node, env))
        return tuple(out)

    def parse_stmt(self, node, env):
        si = self.srcinfo(node)
        if isinstance(node, pyast.AnnAssign):
            return self.parse_alloc(node, env)
        if isinstance(node, pyast.Assign):
            return self.parse_assign(node, env)
        if isinstance(node, pyast.AugAssign):
            return self.parse_reduce(node, env)
        if isinstance(node, pyast.For):
            return self.parse_for(node, env)
        if isinstance(node, pyast.If):
            return self.parse_if(node, env)
        if isinstance(node, pyast.Pass):
            return [IR.Pass(si)]
        if isinstance(node, pyast.Expr):
            val = node.value
            if isinstance(val, pyast.Constant) and val.value is Ellipsis:
                if self.allow_holes:
                    return [HOLE]
                self.err(node, "'...' only allowed in patterns")
            if isinstance(val, pyast.Name) and val.id == "_" and self.allow_holes:
                return [HOLE]
            if isinstance(val, pyast.Call):
                return self.parse_call(val, env)
            self.err(node, "expression statements must be procedure calls")
        if isinstance(node, pyast.Assert):
            self.err(node, "assertions are only allowed at the start of a procedure")
        self.err(node, f"unsupported statement {type(node).__name__}")

    def parse_alloc(self, node, env):
        si = self.srcinfo(node)
        if node.value is not None:
            self.err(node, "allocations cannot have an initializer")
        if not isinstance(node.target, pyast.Name):
            self.err(node, "allocation target must be a simple name")
        typ, mem = self.parse_type_annotation(node.annotation, env)
        if not typ.is_numeric():
            self.err(node, "only data buffers may be allocated")
        sym = Sym(node.target.id)
        env[node.target.id] = sym
        return [IR.Alloc(sym, typ, mem, si)]

    def parse_assign(self, node, env):
        si = self.srcinfo(node)
        if len(node.targets) != 1:
            self.err(node, "chained assignment is not supported")
        target = node.targets[0]
        if isinstance(target, pyast.Attribute):
            cfg, fld = self.parse_config_target(target)
            return [IR.WriteConfig(cfg, fld, self.parse_expr(node.value, env), si)]
        if isinstance(target, pyast.Name):
            rhs = self.parse_expr(node.value, env)
            if isinstance(rhs, IR.WindowExpr):
                sym = Sym(target.id)
                env[target.id] = sym
                return [IR.WindowStmt(sym, rhs, si)]
            sym = self.lookup_var(target, env)
            return [IR.Assign(sym, (), rhs, si)]
        if isinstance(target, pyast.Subscript):
            sym, idx = self.parse_access_target(target, env)
            return [IR.Assign(sym, idx, self.parse_expr(node.value, env), si)]
        self.err(node, "unsupported assignment target")

    def parse_reduce(self, node, env):
        si = self.srcinfo(node)
        if not isinstance(node.op, pyast.Add):
            self.err(node, "only '+=' reduction is supported")
        target = node.target
        if isinstance(target, pyast.Name):
            sym = self.lookup_var(target, env)
            return [IR.Reduce(sym, (), self.parse_expr(node.value, env), si)]
        if isinstance(target, pyast.Subscript):
            sym, idx = self.parse_access_target(target, env)
            return [IR.Reduce(sym, idx, self.parse_expr(node.value, env), si)]
        self.err(node, "unsupported reduction target")

    def parse_access_target(self, node, env):
        if not isinstance(node.value, pyast.Name):
            self.err(node, "subscripted target must be a simple name")
        sym = self.lookup_var(node.value, env)
        idx_node = node.slice
        idxs = (
            list(idx_node.elts) if isinstance(idx_node, pyast.Tuple) else [idx_node]
        )
        if any(isinstance(i, pyast.Slice) for i in idxs):
            self.err(node, "cannot assign to a window; assign elementwise")
        return sym, tuple(self.parse_expr(i, env) for i in idxs)

    def parse_config_target(self, node):
        if not isinstance(node.value, pyast.Name):
            self.err(node, "config writes look like Config.field = e")
        cfg = self.lookup_global(node.value.id)
        if not isinstance(cfg, Config):
            if self.allow_holes:
                return ConfigByName(node.value.id), node.attr
            self.err(node, f"{node.value.id!r} is not a config")
        if not cfg.has_field(node.attr):
            self.err(node, f"config {cfg.name()} has no field {node.attr!r}")
        return cfg, node.attr

    def parse_for(self, node, env):
        si = self.srcinfo(node)
        if node.orelse:
            self.err(node, "for/else is not supported")
        if not isinstance(node.target, pyast.Name):
            self.err(node, "loop variable must be a simple name")
        it = node.iter
        kind = "seq"
        if (
            self.allow_holes
            and isinstance(it, pyast.Name)
            and it.id == "_"
        ):
            lo = hi = HOLE
        elif (
            isinstance(it, pyast.Call)
            and isinstance(it.func, pyast.Name)
            and it.func.id in ("seq", "par")
            and len(it.args) == 2
        ):
            lo = self.parse_expr(it.args[0], env)
            hi = self.parse_expr(it.args[1], env)
            kind = "par" if it.func.id == "par" else "seq"
        else:
            self.err(node, "loops must have the form: for i in seq(lo, hi)")
        body_env = type(env)(env)
        sym = Sym(node.target.id)
        body_env[node.target.id] = sym
        body = self.parse_stmts(node.body, body_env)
        return [IR.For(sym, lo, hi, body, si, kind)]

    def parse_if(self, node, env):
        si = self.srcinfo(node)
        cond = self.parse_expr(node.test, env)
        body = self.parse_stmts(node.body, type(env)(env))
        orelse = self.parse_stmts(node.orelse, type(env)(env))
        return [IR.If(cond, body, orelse, si)]

    def parse_call(self, node, env):
        si = self.srcinfo(node)
        if not isinstance(node.func, pyast.Name):
            self.err(node, "call target must be a simple name")
        if node.keywords:
            self.err(node, "keyword arguments are not supported in procedure calls")
        callee = self.lookup_global(node.func.id)
        ir_proc = _as_ir_proc(callee)
        if ir_proc is None:
            if self.allow_holes:
                # in patterns, calls match by procedure name
                ir_proc = IR.Proc(
                    name=node.func.id, args=(), preds=(), body=(IR.Pass(),)
                )
            else:
                self.err(node, f"{node.func.id!r} is not a procedure")
        args = tuple(self.parse_expr(a, env) for a in node.args)
        return [IR.Call(ir_proc, args, si)]

    # -- expressions ---------------------------------------------------------

    def lookup_var(self, node, env) -> Sym:
        name = node.id
        if name in env:
            return env[name]
        if env.pattern_mode:
            sym = Sym(name)
            env[name] = sym
            return sym
        self.err(node, f"variable {name!r} is not defined")

    def parse_expr(self, node, env) -> IR.Expr:
        si = self.srcinfo(node)
        if isinstance(node, pyast.Name):
            if node.id == "_" and self.allow_holes:
                return HOLE
            if node.id in env:
                return IR.Read(env[node.id], (), None, si)
            val = self.lookup_global(node.id)
            if isinstance(val, bool):
                return IR.Const(val, T.bool_t, si)
            if isinstance(val, int):
                return IR.Const(val, T.int_t, si)
            if isinstance(val, float):
                return IR.Const(val, T.R, si)
            if env.pattern_mode:
                return IR.Read(self.lookup_var(node, env), (), None, si)
            self.err(node, f"variable {node.id!r} is not defined")
        if isinstance(node, pyast.Constant):
            v = node.value
            if isinstance(v, bool):
                return IR.Const(v, T.bool_t, si)
            if isinstance(v, int):
                return IR.Const(v, T.int_t, si)
            if isinstance(v, float):
                return IR.Const(v, T.R, si)
            self.err(node, f"unsupported literal {v!r}")
        if isinstance(node, pyast.UnaryOp):
            if isinstance(node.op, pyast.USub):
                arg = self.parse_expr(node.operand, env)
                if isinstance(arg, IR.Const) and not arg.type.is_bool():
                    return IR.Const(-arg.val, arg.type, si)
                return IR.USub(arg, None, si)
            self.err(node, "unsupported unary operator")
        if isinstance(node, pyast.BinOp):
            op = _BIN_OPS.get(type(node.op))
            if op is None:
                self.err(node, f"unsupported operator {type(node.op).__name__}")
            return IR.BinOp(
                op,
                self.parse_expr(node.left, env),
                self.parse_expr(node.right, env),
                None,
                si,
            )
        if isinstance(node, pyast.Compare):
            if len(node.ops) != 1:
                self.err(node, "chained comparisons are not supported")
            op = _CMP_OPS.get(type(node.ops[0]))
            if op is None:
                self.err(node, "unsupported comparison operator")
            return IR.BinOp(
                op,
                self.parse_expr(node.left, env),
                self.parse_expr(node.comparators[0], env),
                T.bool_t,
                si,
            )
        if isinstance(node, pyast.BoolOp):
            op = "and" if isinstance(node.op, pyast.And) else "or"
            vals = [self.parse_expr(v, env) for v in node.values]
            out = vals[0]
            for v in vals[1:]:
                out = IR.BinOp(op, out, v, T.bool_t, si)
            return out
        if isinstance(node, pyast.Subscript):
            return self.parse_subscript(node, env)
        if isinstance(node, pyast.Call):
            return self.parse_expr_call(node, env)
        if isinstance(node, pyast.Attribute):
            cfg, fld = self.parse_config_target(node)
            return IR.ReadConfig(cfg, fld, cfg.field_type(fld), si)
        self.err(node, f"unsupported expression {type(node).__name__}")

    def parse_subscript(self, node, env) -> IR.Expr:
        si = self.srcinfo(node)
        if not isinstance(node.value, pyast.Name):
            self.err(node, "only simple names may be subscripted")
        sym = self.lookup_var(node.value, env)
        idx_node = node.slice
        idxs = (
            list(idx_node.elts) if isinstance(idx_node, pyast.Tuple) else [idx_node]
        )
        if any(isinstance(i, pyast.Slice) for i in idxs):
            coords = []
            for i in idxs:
                if isinstance(i, pyast.Slice):
                    if i.step is not None:
                        self.err(node, "strided slices are not supported")
                    lo = self.parse_expr(i.lower, env) if i.lower else None
                    hi = self.parse_expr(i.upper, env) if i.upper else None
                    coords.append(IR.Interval(lo, hi))
                else:
                    coords.append(IR.Point(self.parse_expr(i, env)))
            return IR.WindowExpr(sym, tuple(coords), None, si)
        return IR.Read(sym, tuple(self.parse_expr(i, env) for i in idxs), None, si)

    def parse_expr_call(self, node, env) -> IR.Expr:
        si = self.srcinfo(node)
        if not isinstance(node.func, pyast.Name):
            self.err(node, "call target must be a simple name")
        fname = node.func.id
        if fname == "stride":
            if len(node.args) != 2:
                self.err(node, "stride(buffer, dim) takes two arguments")
            buf = node.args[0]
            if not isinstance(buf, pyast.Name):
                self.err(node, "stride's first argument must be a buffer name")
            dim = node.args[1]
            if not (isinstance(dim, pyast.Constant) and isinstance(dim.value, int)):
                self.err(node, "stride's dimension must be an integer literal")
            return IR.StrideExpr(self.lookup_var(buf, env), dim.value, T.stride_t, si)
        builtin = None
        val = self.lookup_global(fname)
        if isinstance(val, BuiltIn):
            builtin = val
        elif fname in BUILTINS:
            builtin = BUILTINS[fname]
        if builtin is not None:
            args = tuple(self.parse_expr(a, env) for a in node.args)
            return IR.Extern(builtin, args, None, si)
        self.err(node, f"unknown function {fname!r} in expression")


def _as_ir_proc(obj):
    """Accept both raw IR procs and public Procedure wrappers as callees."""
    if isinstance(obj, IR.Proc):
        return obj
    inner = getattr(obj, "_loopir_proc", None)
    if isinstance(inner, IR.Proc):
        return inner
    return None
