"""Pretty printer: LoopIR back to Exo surface syntax.

The printed form round-trips conceptually (it is what a user would have
written), and is what tests assert against and what ``Procedure.__str__``
shows when inspecting the result of a schedule.
"""

from __future__ import annotations

from . import ast as IR
from . import types as T

_PREC = {
    "or": 10,
    "and": 20,
    "==": 30,
    "<": 30,
    ">": 30,
    "<=": 30,
    ">=": 30,
    "+": 40,
    "-": 40,
    "*": 50,
    "/": 50,
    "%": 50,
}


def expr_to_str(e: IR.Expr, prec: int = 0) -> str:
    if isinstance(e, IR.Read):
        if e.idx:
            return f"{e.name}[{', '.join(expr_to_str(i) for i in e.idx)}]"
        return str(e.name)
    if isinstance(e, IR.Const):
        if e.type.is_bool():
            return "True" if e.val else "False"
        return repr(e.val)
    if isinstance(e, IR.USub):
        s = f"-{expr_to_str(e.arg, 60)}"
        return f"({s})" if prec > 55 else s
    if isinstance(e, IR.BinOp):
        p = _PREC[e.op]
        lhs = expr_to_str(e.lhs, p)
        rhs = expr_to_str(e.rhs, p + 1)
        s = f"{lhs} {e.op} {rhs}"
        return f"({s})" if p < prec else s
    if isinstance(e, IR.Extern):
        return f"{e.f.name}({', '.join(expr_to_str(a) for a in e.args)})"
    if isinstance(e, IR.WindowExpr):
        coords = []
        for w in e.idx:
            if isinstance(w, IR.Interval):
                coords.append(f"{expr_to_str(w.lo)}:{expr_to_str(w.hi)}")
            else:
                coords.append(expr_to_str(w.pt))
        return f"{e.name}[{', '.join(coords)}]"
    if isinstance(e, IR.StrideExpr):
        return f"stride({e.name}, {e.dim})"
    if isinstance(e, IR.ReadConfig):
        return f"{e.config.name()}.{e.field}"
    return f"<?expr {type(e).__name__}>"


def type_to_str(t: T.Type) -> str:
    if t.is_tensor_or_window():
        dims = ", ".join(expr_to_str(h) for h in t.shape())
        if t.is_win():
            return f"[{t.basetype()}][{dims}]"
        return f"{t.basetype()}[{dims}]"
    return str(t)


def stmt_to_lines(s: IR.Stmt, indent: int) -> list:
    pad = "    " * indent
    if isinstance(s, IR.Assign):
        lhs = str(s.name)
        if s.idx:
            lhs += f"[{', '.join(expr_to_str(i) for i in s.idx)}]"
        return [f"{pad}{lhs} = {expr_to_str(s.rhs)}"]
    if isinstance(s, IR.Reduce):
        lhs = str(s.name)
        if s.idx:
            lhs += f"[{', '.join(expr_to_str(i) for i in s.idx)}]"
        return [f"{pad}{lhs} += {expr_to_str(s.rhs)}"]
    if isinstance(s, IR.WriteConfig):
        return [f"{pad}{s.config.name()}.{s.field} = {expr_to_str(s.rhs)}"]
    if isinstance(s, IR.Pass):
        return [f"{pad}pass"]
    if isinstance(s, IR.If):
        lines = [f"{pad}if {expr_to_str(s.cond)}:"]
        lines += block_to_lines(s.body, indent + 1)
        if s.orelse:
            lines.append(f"{pad}else:")
            lines += block_to_lines(s.orelse, indent + 1)
        return lines
    if isinstance(s, IR.For):
        word = "par" if getattr(s, "kind", "seq") == "par" else "seq"
        lines = [
            f"{pad}for {s.iter} in {word}({expr_to_str(s.lo)}, {expr_to_str(s.hi)}):"
        ]
        lines += block_to_lines(s.body, indent + 1)
        return lines
    if isinstance(s, IR.Alloc):
        mem = f" @ {s.mem.name()}" if s.mem is not None else ""
        return [f"{pad}{s.name} : {type_to_str(s.type)}{mem}"]
    if isinstance(s, IR.Call):
        return [f"{pad}{s.proc.name}({', '.join(expr_to_str(a) for a in s.args)})"]
    if isinstance(s, IR.WindowStmt):
        return [f"{pad}{s.name} = {expr_to_str(s.rhs)}"]
    return [f"{pad}<?stmt {type(s).__name__}>"]


def block_to_lines(stmts, indent: int) -> list:
    lines = []
    for s in stmts:
        lines += stmt_to_lines(s, indent)
    if not stmts:
        lines.append("    " * indent + "pass")
    return lines


def proc_to_str(p: IR.Proc) -> str:
    args = []
    for a in p.args:
        mem = f" @ {a.mem.name()}" if a.mem is not None else ""
        args.append(f"{a.name}: {type_to_str(a.type)}{mem}")
    header = "@instr" if p.instr is not None else "@proc"
    lines = [header, f"def {p.name}({', '.join(args)}):"]
    for pred in p.preds:
        lines.append(f"    assert {expr_to_str(pred)}")
    lines += block_to_lines(p.body, 1)
    return "\n".join(lines)


def proc_key(p: IR.Proc) -> tuple:
    """The content key of a procedure: its printed text, its ``@instr``
    template (or None), then the key of each distinct callee in
    first-call order.  Equal for two procedures that print alike and call
    procedures of equal keys, so the key sees callee bodies that the text
    omits; a ``Sym`` counts by its name, so renumbered binders keep it.
    Memoized on the node, as pygen's lowering is."""
    key = p.__dict__.get("_key")
    if key is None:
        callees = {id(s.proc): s.proc for s in IR.walk_stmts(p.body)
                   if isinstance(s, IR.Call)}
        key = (proc_to_str(p), p.instr, *map(proc_key, callees.values()))
        p.__dict__["_key"] = key
    return key
