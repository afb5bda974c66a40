"""C code generation (§3.1.2).

Exo compiles to human-readable C that is "more or less a syntactic
translation" of the IR:

* all data values (scalars included) pass by pointer, so callees can write
  through them;
* windows compile to structs carrying a data pointer plus runtime strides;
* ``@instr`` calls emit the instruction's C template with arguments
  interpolated instead of a function call (§3.2.2);
* custom memories control allocation/free/addressing codegen and may refuse
  plain addressing entirely (scratchpads);
* static assertions become compiler hints.

Back-end checks (§3.1.1) run first: memory addressability and call-memory
consistency are validated immediately before code generation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .prelude import BackendError, InternalError, Sym, _FreshNamer
from . import ast as IR
from . import types as T
from .memory import DRAM


# ---------------------------------------------------------------------------
# Back-end checks
# ---------------------------------------------------------------------------


def backend_check(proc: IR.Proc):
    """Memory addressability and call-memory consistency (§3.1.1).

    Precision consistency is the typechecker's (``check_binop`` and
    ``check_write``), which every ``@proc``, ``@instr`` and derived
    revision passes before it exists."""
    mems = {}
    for a in proc.args:
        mems[a.name] = a.mem or DRAM

    def check_addressable(name, srcinfo):
        mem = mems.get(name, DRAM)
        if not mem.addressable:
            raise BackendError(
                f"{srcinfo}: buffer {name} in non-addressable memory "
                f"{mem.name()} may only be accessed via instructions"
            )

    def walk_expr(e, in_instr):
        if isinstance(e, IR.Read) and e.idx and not in_instr:
            check_addressable(e.name, e.srcinfo)
        for sub in IR.sub_exprs(e):
            walk_expr(sub, in_instr)

    def walk(block, in_instr):
        for s in block:
            if isinstance(s, (IR.Assign, IR.Reduce)):
                if not in_instr:
                    check_addressable(s.name, s.srcinfo)
                for e in s.idx:
                    walk_expr(e, in_instr)
                walk_expr(s.rhs, in_instr)
            elif isinstance(s, IR.If):
                walk(s.body, in_instr)
                walk(s.orelse, in_instr)
            elif isinstance(s, IR.For):
                walk(s.body, in_instr)
            elif isinstance(s, IR.Alloc):
                mems[s.name] = s.mem or DRAM
            elif isinstance(s, IR.WindowStmt):
                mems[s.name] = mems.get(s.rhs.name, DRAM)
            elif isinstance(s, IR.Call):
                for formal, actual in zip(s.proc.args, s.args):
                    if formal.type.is_numeric() and formal.mem is not None:
                        aname = getattr(actual, "name", None)
                        amem = mems.get(aname, DRAM)
                        if amem is not formal.mem and not (
                            formal.mem is DRAM and amem is DRAM
                        ):
                            raise BackendError(
                                f"{s.srcinfo}: call to {s.proc.name}: argument "
                                f"{formal.name} expects memory "
                                f"{formal.mem.name()}, got {amem.name()}"
                            )

    walk(proc.body, proc.instr is not None)


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------

_PRELUDE = """\
#include <stdint.h>
#include <stdbool.h>
#include <stdlib.h>
#include <math.h>

// window structs carry a data pointer plus runtime strides
"""


@dataclass
class CompiledProc:
    name: str
    signature: str
    definition: str


def window_struct_name(base: T.Type, rank: int) -> str:
    return f"exo_win_{rank}{base.ctype().replace(' ', '_').replace('*', 'p')}"


class Compiler:
    """Compiles a set of procedures (plus everything they call) to C."""

    def __init__(self):
        self.global_lines = []
        self.struct_defs = {}
        self.compiled = {}
        self.order = []
        self.seen_globals = set()

    def add_proc(self, proc: IR.Proc):
        self._compile(proc)

    def source(self, header_comment="") -> str:
        parts = [_PRELUDE]
        if header_comment:
            parts.insert(0, f"// {header_comment}\n")
        parts += list(self.struct_defs.values())
        parts += self.global_lines
        # prototypes then definitions, callees first
        for name in self.order:
            parts.append(self.compiled[name].signature + ";")
        for name in self.order:
            parts.append(self.compiled[name].definition)
        return "\n".join(parts) + "\n"

    # -- internals -----------------------------------------------------------

    def _compile(self, proc: IR.Proc):
        if proc.name in self.compiled:
            return
        backend_check(proc)
        # compile callees first (instr callees emit templates, not functions)
        for s in IR.walk_stmts(proc.body):
            if isinstance(s, IR.Call) and s.proc.instr is None:
                self._compile(s.proc)
            elif isinstance(s, IR.Call) and s.proc.instr is not None:
                gl = s.proc.instr.c_global
                if gl and gl not in self.seen_globals:
                    self.seen_globals.add(gl)
                    self.global_lines.append(gl)
        fn = _ProcCompiler(self, proc)
        compiled = fn.compile()
        self.compiled[proc.name] = compiled
        self.order.append(proc.name)

    def window_struct(self, base: T.Type, rank: int) -> str:
        name = window_struct_name(base, rank)
        if name not in self.struct_defs:
            dims = ", ".join(f"strides[{rank}]" for _ in range(1))
            self.struct_defs[name] = (
                f"struct {name} {{\n"
                f"    {base.ctype()} * const data;\n"
                f"    const int_fast32_t strides[{rank}];\n"
                f"}};"
            )
        return name

    def add_global(self, text: str):
        if text and text not in self.seen_globals:
            self.seen_globals.add(text)
            self.global_lines.append(text)


class _ProcCompiler:
    def __init__(self, parent: Compiler, proc: IR.Proc):
        self.parent = parent
        self.proc = proc
        self.namer = _FreshNamer()
        self.names = {}
        self.tenv = {}  # Sym -> (type, mem, is_window)
        self.lines = []
        self.indent = 1

    def nm(self, sym: Sym) -> str:
        if sym not in self.names:
            self.names[sym] = self.namer.name(sym)
        return self.names[sym]

    def emit(self, line: str):
        self.lines.append("    " * self.indent + line)

    def compile(self) -> CompiledProc:
        args = []
        for a in self.proc.args:
            cname = self.nm(a.name)
            typ = a.type
            mem = a.mem or DRAM
            if typ.is_numeric():
                if typ.is_real_scalar():
                    args.append(f"{typ.ctype()}* {cname}")
                    self.tenv[a.name] = (typ, mem, False)
                elif typ.is_win():
                    sname = self.parent.window_struct(
                        typ.basetype(), len(typ.shape())
                    )
                    args.append(f"struct {sname} {cname}")
                    self.tenv[a.name] = (typ, mem, True)
                else:
                    args.append(f"{typ.basetype().ctype()}* {cname}")
                    self.tenv[a.name] = (typ, mem, False)
            else:
                args.append(f"{typ.ctype()} {cname}")
                self.tenv[a.name] = (typ, None, False)
        sig = f"void {self.proc.name}({', '.join(args)})"
        for pred in self.proc.preds:
            self.emit(f"// assert {pred_comment(pred)}")
        self.compile_block(self.proc.body)
        body = "\n".join(self.lines)
        definition = f"{sig} {{\n{body}\n}}"
        return CompiledProc(self.proc.name, sig, definition)

    # -- statements ----------------------------------------------------------

    def compile_block(self, stmts):
        for s in stmts:
            self.compile_stmt(s)

    def compile_stmt(self, s: IR.Stmt):
        if isinstance(s, IR.Assign):
            lhs = self.access(s.name, s.idx)
            self.emit(f"{lhs} = {self.expr(s.rhs)};")
        elif isinstance(s, IR.Reduce):
            lhs = self.access(s.name, s.idx)
            self.emit(f"{lhs} += {self.expr(s.rhs)};")
        elif isinstance(s, IR.WriteConfig):
            self.emit(
                f"{s.config.c_struct_name()}.{s.field} = {self.expr(s.rhs)};"
            )
            self.parent.add_global(s.config.c_globl_def())
        elif isinstance(s, IR.Pass):
            self.emit(";")
        elif isinstance(s, IR.If):
            self.emit(f"if ({self.expr(s.cond)}) {{")
            self.indent += 1
            self.compile_block(s.body)
            self.indent -= 1
            if s.orelse:
                self.emit("} else {")
                self.indent += 1
                self.compile_block(s.orelse)
                self.indent -= 1
            self.emit("}")
        elif isinstance(s, IR.For):
            it = self.nm(s.iter)
            self.tenv[s.iter] = (T.index_t, None, False)
            if getattr(s, "kind", "seq") == "par":
                # proven race-free by repro.analysis.parallel; the loop
                # variable is private via the for-init declaration, and
                # loop-local allocations compile to block-scoped (hence
                # thread-private) C declarations inside the braces.
                self.emit("#ifdef _OPENMP")
                self.emit("#pragma omp parallel for")
                self.emit("#endif")
            self.emit(
                f"for (int_fast32_t {it} = {self.expr(s.lo)}; "
                f"{it} < {self.expr(s.hi)}; {it}++) {{"
            )
            self.indent += 1
            self.compile_block(s.body)
            self.indent -= 1
            self.emit("}")
        elif isinstance(s, IR.Alloc):
            self.compile_alloc(s)
        elif isinstance(s, IR.Call):
            self.compile_call(s)
        elif isinstance(s, IR.WindowStmt):
            self.compile_window_stmt(s)
        else:
            raise InternalError(f"cgen: unknown stmt {type(s).__name__}")

    def compile_alloc(self, s: IR.Alloc):
        mem = s.mem or DRAM
        cname = self.nm(s.name)
        typ = s.type
        self.tenv[s.name] = (typ, mem, False)
        prim = typ.basetype().ctype()
        shape = [self.expr(h) for h in typ.shape()]
        code = mem.alloc(cname, prim, shape, s.srcinfo)
        for line in code.splitlines():
            self.emit(line)

    def compile_call(self, s: IR.Call):
        callee = s.proc
        if callee.instr is not None:
            self.emit_instr(s)
            return
        args = []
        for formal, actual in zip(callee.args, s.args):
            args.append(self.call_arg(formal, actual))
        self.emit(f"{callee.name}({', '.join(args)});")

    def call_arg(self, formal: IR.FnArg, actual: IR.Expr) -> str:
        ftyp = formal.type
        if not ftyp.is_numeric():
            return self.expr(actual)
        if ftyp.is_real_scalar():
            if isinstance(actual, IR.Read) and not actual.idx:
                cname = self.nm(actual.name)
                return cname if self._is_ptr_scalar(actual.name) else f"&{cname}"
            if isinstance(actual, IR.Read):
                return f"&{self.access(actual.name, actual.idx)}"
            raise InternalError("scalar arguments must be names or elements")
        # tensor / window argument
        if isinstance(actual, IR.Read):
            if ftyp.is_win():
                return self.make_window_struct(
                    actual.name,
                    [IR.Interval(None, None)] * len(ftyp.shape()),
                    ftyp,
                )
            return self.buffer_ptr(actual.name)
        if isinstance(actual, IR.WindowExpr):
            return self.make_window_struct(actual.name, actual.idx, ftyp)
        raise InternalError("buffer arguments must be names or windows")

    def buffer_ptr(self, name: Sym) -> str:
        return self.nm(name)

    def emit_instr(self, s: IR.Call):
        callee = s.proc
        fmt = {}
        for formal, actual in zip(callee.args, s.args):
            key = str(formal.name)
            if formal.type.is_numeric() and not formal.type.is_real_scalar():
                rank = len(formal.type.shape())
                if isinstance(actual, IR.Read):
                    fmt[key] = self.window_data_expr(actual.name, None)
                    fmt[key + "_data"] = fmt[key]
                    strides = self.stride_exprs(actual.name)
                    for d in range(min(rank, len(strides))):
                        fmt[f"{key}.strides[{d}]"] = strides[d]
                elif isinstance(actual, IR.WindowExpr):
                    fmt[key] = self.window_data_expr(actual.name, actual.idx)
                    fmt[key + "_data"] = fmt[key]
                    strides = self.stride_exprs(actual.name)
                    kept = [
                        st
                        for w, st in zip(actual.idx, strides)
                        if isinstance(w, IR.Interval)
                    ]
                    for d, st in enumerate(kept):
                        fmt[f"{key}.strides[{d}]"] = st
            elif formal.type.is_real_scalar():
                if isinstance(actual, IR.Read):
                    fmt[key] = self.access(actual.name, actual.idx)
                else:
                    fmt[key] = self.expr(actual)
            else:
                fmt[key] = self.expr(actual)
        text = callee.instr.c_instr
        for key, val in sorted(fmt.items(), key=lambda kv: -len(kv[0])):
            text = text.replace("{" + key + "}", val)
        for line in text.replace("\\n", "\n").split("\n"):
            self.emit(line)

    def window_data_expr(self, name: Sym, widx) -> str:
        """Address-of expression for the start of a window."""
        typ, mem, is_win = self.tenv[name]
        if widx is None:
            if is_win:
                return f"{self.nm(name)}.data"
            return self.nm(name)
        strides = self.stride_exprs(name)
        offset_terms = []
        for w, st in zip(widx, strides):
            lo = w.lo if isinstance(w, IR.Interval) else w.pt
            if lo is None:
                continue
            lo_s = self.expr(lo)
            if lo_s != "0":
                offset_terms.append(f"({lo_s}) * ({st})")
        base = f"{self.nm(name)}.data" if is_win else self.nm(name)
        if not offset_terms:
            return f"&{base}[0]"
        return f"&{base}[{' + '.join(offset_terms)}]"

    def stride_exprs(self, name: Sym):
        typ, _mem, is_win = self.tenv[name]
        rank = len(typ.shape())
        if is_win:
            return [f"{self.nm(name)}.strides[{d}]" for d in range(rank)]
        out = []
        for d in range(rank):
            terms = [_factor(self.expr(h)) for h in typ.shape()[d + 1 :]]
            out.append(" * ".join(terms) if terms else "1")
        return out

    def make_window_struct(self, name: Sym, widx, ftyp: T.Type) -> str:
        typ, _mem, is_win = self.tenv[name]
        sname = self.parent.window_struct(
            ftyp.basetype(), len(ftyp.shape())
        )
        data = self.window_data_expr(
            name, None if all(isinstance(w, IR.Interval) and w.lo is None
                              for w in widx) else widx
        )
        if not data.startswith("&") and not is_win:
            data = f"{data}"
        strides = self.stride_exprs(name)
        kept = [
            st
            for w, st in zip(widx, strides)
            if isinstance(w, IR.Interval)
        ]
        return (
            f"(struct {sname}){{ .data = {data}, .strides = "
            f"{{ {', '.join(kept)} }} }}"
        )

    def compile_window_stmt(self, s: IR.WindowStmt):
        wtyp = s.rhs.type
        sname = self.parent.window_struct(wtyp.basetype(), len(wtyp.shape()))
        val = self.make_window_struct(s.rhs.name, s.rhs.idx, wtyp)
        cname = self.nm(s.name)
        base_mem = self.tenv[s.rhs.name][1]
        self.tenv[s.name] = (wtyp, base_mem, True)
        self.emit(f"struct {sname} {cname} = {val};")

    # -- expressions ---------------------------------------------------------

    def access(self, name: Sym, idx) -> str:
        typ, mem, is_win = self.tenv[name]
        if not idx:
            if typ.is_real_scalar():
                return f"*{self.nm(name)}" if self._is_ptr_scalar(name) else self.nm(name)
            if not typ.is_numeric():
                return self.nm(name)  # control variable
            raise InternalError("unindexed tensor access")
        strides = self.stride_exprs(name)
        indices = [self.expr(i) for i in idx]
        base = f"{self.nm(name)}.data" if is_win else self.nm(name)
        return (mem or DRAM).window(typ.basetype(), base, indices, strides, None)

    def _is_ptr_scalar(self, name: Sym) -> bool:
        # scalar proc arguments come in by pointer; local scalars do not
        return any(a.name is name for a in self.proc.args)

    def expr(self, e: IR.Expr, prec: int = 0) -> str:
        if isinstance(e, IR.Read):
            return self.access(e.name, e.idx)
        if isinstance(e, IR.Const):
            if e.type.is_bool():
                return "true" if e.val else "false"
            if isinstance(e.val, float):
                return f"{e.val}f" if not e.val == int(e.val) else f"{e.val:.1f}f"
            return str(e.val)
        if isinstance(e, IR.USub):
            return f"-{self.expr(e.arg, 99)}"
        if isinstance(e, IR.BinOp):
            return self.binop(e, prec)
        if isinstance(e, IR.Extern):
            prim = "float"
            args = [self.expr(a) for a in e.args]
            self.parent.add_global(e.f.globl(prim))
            return e.f.compile(args, prim)
        if isinstance(e, IR.StrideExpr):
            return self.stride_exprs(e.name)[e.dim]
        if isinstance(e, IR.ReadConfig):
            self.parent.add_global(e.config.c_globl_def())
            return f"{e.config.c_struct_name()}.{e.field}"
        if isinstance(e, IR.WindowExpr):
            raise InternalError("window expressions only appear as arguments")
        raise InternalError(f"cgen: unknown expr {type(e).__name__}")

    def binop(self, e: IR.BinOp, prec: int) -> str:
        is_ctrl = e.type is not None and not e.type.is_numeric()
        op = {"and": "&&", "or": "||"}.get(e.op, e.op)
        if e.op == "/" and is_ctrl:
            # C integer division truncates; Exo's is floor division.  All
            # bounds-checked indices are non-negative, so they coincide.
            return f"({self.expr(e.lhs, 0)}) / ({self.expr(e.rhs, 0)})"
        if e.op == "%" and is_ctrl:
            return f"({self.expr(e.lhs, 0)}) % ({self.expr(e.rhs, 0)})"
        l = self.expr(e.lhs, 1)
        r = self.expr(e.rhs, 1)
        s = f"{l} {op} {r}"
        return f"({s})" if prec > 0 else s


def _factor(c: str) -> str:
    """``c`` as an operand of ``*``: a shape extent such as ``OY + 2`` or
    ``(n) / (4)`` is parenthesized, a name or literal is left bare."""
    return c if re.fullmatch(r"[\w.]+", c) else f"({c})"


def pred_comment(pred: IR.Expr) -> str:
    from .pprint import expr_to_str

    return expr_to_str(pred)


def compile_procs(procs, header_comment="") -> str:
    """Compile a list of procedures into one C translation unit.

    Accepts raw IR procs or public ``Procedure`` wrappers."""
    from ..obs import trace as _obs

    with _obs.span("codegen.compile"):
        comp = Compiler()
        for p in procs:
            ir = getattr(p, "_loopir_proc", p)
            comp.add_proc(ir)
        return comp.source(header_comment)
