"""Syntactic pattern matching for pointing at code (§3.3).

Scheduling operators locate code via pattern strings, e.g.::

    "for i in _: _"        # loops over a variable displayed as `i`
    "for i in _: _ #2"     # ... the third such loop, in program order
    "a : _"                # the allocation of a buffer named `a`
    "C[_] += _"            # any reduction into C
    "A[i, k]"              # an expression pattern (for bind_expr etc.)

``_`` is a wildcard: it matches any expression, any index list, or (in a
block position) any sequence of statements.  Variable names in patterns
match by *display name* against the target's :class:`Sym`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core import ast as IR
from ..core.prelude import SchedulingError
from ..frontend.parser import HOLE, parse_fragment


@dataclass(frozen=True)
class StmtMatch:
    """``count`` consecutive statements starting at ``path``."""

    path: tuple
    count: int
    #: the pattern string this match came from (for diagnostics), if any
    origin: Optional[str] = None


@dataclass(frozen=True)
class ExprMatch:
    """An expression at ``expr_path`` within the statement at ``path``."""

    path: tuple
    expr_path: tuple
    expr: IR.Expr


def split_index(pattern: str) -> Tuple[str, Optional[int]]:
    """Split a trailing ``#n`` match-index off a pattern string.

    Malformed suffixes (``_#x``, ``_#-1``, a bare trailing ``#``) are
    rejected outright — silently treating them as part of the pattern used
    to send users chasing bogus "no match" errors."""
    pattern = pattern.strip()
    if "#" not in pattern:
        return pattern, None
    body, _, idx = pattern.rpartition("#")
    body = body.strip()
    idx = idx.strip()
    if not body:
        raise SchedulingError(
            f"pattern {pattern!r}: nothing precedes the '#' match index"
        )
    if idx and idx[0] == "-" and idx[1:].isdigit():
        raise SchedulingError(
            f"pattern {pattern!r}: negative match index #{idx} is not "
            f"allowed (indices count matches from 0, in program order)"
        )
    if not idx.isdigit():
        raise SchedulingError(
            f"pattern {pattern!r}: malformed match index {'#' + idx!r} "
            f"(expected '#<n>' with a non-negative integer n)"
        )
    return body, int(idx)


def _parse_pattern(pattern: str):
    body, idx = split_index(pattern)
    # allocation pattern "name : _"
    if ":" in body and "seq(" not in body and "if" not in body.split(":")[0]:
        head = body.split(":")[0].strip()
        if head.isidentifier():
            tail = body.split(":", 1)[1].strip()
            if tail == "_":
                return ("alloc", head), idx
    parsed = parse_fragment(body)
    if isinstance(parsed, tuple):
        return ("stmts", parsed), idx
    return ("expr", parsed), idx


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def _name_matches(pat_sym, tgt_sym) -> bool:
    return str(pat_sym) == "_" or str(pat_sym) == str(tgt_sym)


def _match_expr(p, e) -> bool:
    if p is HOLE:
        return True
    if isinstance(p, IR.Read) and isinstance(e, IR.Read):
        if not _name_matches(p.name, e.name):
            return False
        return _match_idx(p.idx, e.idx)
    if isinstance(p, IR.Const) and isinstance(e, IR.Const):
        return p.val == e.val
    if isinstance(p, IR.USub) and isinstance(e, IR.USub):
        return _match_expr(p.arg, e.arg)
    if isinstance(p, IR.BinOp) and isinstance(e, IR.BinOp):
        return (
            p.op == e.op
            and _match_expr(p.lhs, e.lhs)
            and _match_expr(p.rhs, e.rhs)
        )
    if isinstance(p, IR.Extern) and isinstance(e, IR.Extern):
        return p.f.name == e.f.name and len(p.args) == len(e.args) and all(
            _match_expr(pa, ea) for pa, ea in zip(p.args, e.args)
        )
    if isinstance(p, IR.WindowExpr) and isinstance(e, IR.WindowExpr):
        if not _name_matches(p.name, e.name) or len(p.idx) != len(e.idx):
            return False
        for pw, ew in zip(p.idx, e.idx):
            if isinstance(pw, IR.Interval) != isinstance(ew, IR.Interval):
                return False
            if isinstance(pw, IR.Interval):
                if pw.lo is not None and not _match_expr(pw.lo, ew.lo):
                    return False
                if pw.hi is not None and not _match_expr(pw.hi, ew.hi):
                    return False
            else:
                if not _match_expr(pw.pt, ew.pt):
                    return False
        return True
    if isinstance(p, IR.StrideExpr) and isinstance(e, IR.StrideExpr):
        return _name_matches(p.name, e.name) and p.dim == e.dim
    if isinstance(p, IR.ReadConfig) and isinstance(e, IR.ReadConfig):
        return _config_matches(p.config, e.config) and p.field == e.field
    return False


def _config_matches(pat_cfg, tgt_cfg) -> bool:
    from ..frontend.parser import ConfigByName

    if isinstance(pat_cfg, ConfigByName):
        return pat_cfg.matches(tgt_cfg)
    return pat_cfg is tgt_cfg


def _match_idx(pidx, eidx) -> bool:
    if len(pidx) == 1 and pidx[0] is HOLE:
        return True  # C[_] matches any indexing, of any arity
    if len(pidx) != len(eidx):
        return False
    return all(_match_expr(p, e) for p, e in zip(pidx, eidx))


def _match_block(pats, block) -> Optional[int]:
    """Match a pattern statement list at the start of ``block``; returns the
    number of target statements consumed, or None."""
    if len(pats) == 1 and pats[0] is HOLE:
        return len(block)
    consumed = 0
    for p in pats:
        if p is HOLE:
            return len(block)  # trailing hole swallows the rest
        if consumed >= len(block):
            return None
        if not _match_stmt(p, block[consumed]):
            return None
        consumed += 1
    return consumed


def _match_stmt(p, s) -> bool:
    if p is HOLE:
        return True
    if isinstance(p, IR.Assign) and isinstance(s, IR.Assign):
        return (
            _name_matches(p.name, s.name)
            and _match_idx(p.idx, s.idx)
            and _match_expr(p.rhs, s.rhs)
        )
    if isinstance(p, IR.Reduce) and isinstance(s, IR.Reduce):
        return (
            _name_matches(p.name, s.name)
            and _match_idx(p.idx, s.idx)
            and _match_expr(p.rhs, s.rhs)
        )
    if isinstance(p, IR.WriteConfig) and isinstance(s, IR.WriteConfig):
        return (
            _config_matches(p.config, s.config)
            and p.field == s.field
            and _match_expr(p.rhs, s.rhs)
        )
    if isinstance(p, IR.Pass) and isinstance(s, IR.Pass):
        return True
    if isinstance(p, IR.If) and isinstance(s, IR.If):
        if not _match_expr(p.cond, s.cond):
            return False
        if _match_block(list(p.body), list(s.body)) is None:
            return False
        if p.orelse and _match_block(list(p.orelse), list(s.orelse)) is None:
            return False
        return True
    if isinstance(p, IR.For) and isinstance(s, IR.For):
        return (
            _name_matches(p.iter, s.iter)
            and _match_expr(p.lo, s.lo)
            and _match_expr(p.hi, s.hi)
            and _match_block(list(p.body), list(s.body)) is not None
        )
    if isinstance(p, IR.Call) and isinstance(s, IR.Call):
        return p.proc.name == s.proc.name and all(
            _match_expr(pa, sa) for pa, sa in zip(p.args, s.args)
        )
    if isinstance(p, IR.WindowStmt) and isinstance(s, IR.WindowStmt):
        return _name_matches(p.name, s.name) and _match_expr(p.rhs, s.rhs)
    return False


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def _iter_blocks(proc: IR.Proc):
    """Yield (path_prefix, block) for every statement block."""

    def go(prefix, block):
        yield prefix, block
        for i, s in enumerate(block):
            here = prefix[:-1] + ((prefix[-1][0], i),)
            for fld, sub in IR.sub_bodies(s):
                yield from go(here + ((fld, None),), sub)

    yield from go((("body", None),), proc.body)


def _iter_positions(proc: IR.Proc):
    """Yield (path, block, i) for every statement position, in strict
    program order (a statement is visited before its nested bodies)."""

    def go(prefix, block):
        for i, s in enumerate(block):
            here = prefix[:-1] + ((prefix[-1][0], i),)
            yield here, block, i
            for fld, sub in IR.sub_bodies(s):
                yield from go(here + ((fld, None),), sub)

    yield from go((("body", None),), proc.body)


def find_stmt(proc: IR.Proc, pattern: str, index: Optional[int] = None,
              one: bool = False):
    """All statement matches of ``pattern``, or the ``#index``-th one.

    With ``one=True`` an un-indexed pattern matching more than once is
    *ambiguous*: a :class:`SchedulingError` lists every candidate with its
    source location, instead of silently taking the first."""
    parsed, pat_index = _parse_pattern(pattern)
    if index is None:
        index = pat_index
    kind, payload = parsed
    matches = []
    if kind == "alloc":
        name = payload
        for path, block, i in _iter_positions(proc):
            s = block[i]
            if isinstance(s, IR.Alloc) and str(s.name) == name:
                matches.append(StmtMatch(path, 1, origin=pattern))
    elif kind == "stmts":
        pats = list(payload)
        for path, block, i in _iter_positions(proc):
            n = _match_block(pats, list(block[i:]))
            if n is not None and n > 0:
                matches.append(StmtMatch(path, n, origin=pattern))
    else:
        raise SchedulingError(
            f"pattern {pattern!r} is an expression; a statement was expected"
        )
    return _select(proc, matches, pattern, index, one, parsed=parsed)


def find_expr(proc: IR.Proc, pattern: str, index: Optional[int] = None,
              one: bool = False):
    """All expression matches of ``pattern``, or the ``#index``-th one."""
    parsed, pat_index = _parse_pattern(pattern)
    if index is None:
        index = pat_index
    kind, payload = parsed
    if kind != "expr":
        raise SchedulingError(
            f"pattern {pattern!r} is a statement; an expression was expected"
        )
    matches = []

    def search_expr(e, path, expr_path):
        if _match_expr(payload, e):
            matches.append(ExprMatch(path, expr_path, e))
        subs = _expr_children(e)
        for step, sub in subs:
            search_expr(sub, path, expr_path + (step,))

    for path, block, i in _iter_positions(proc):
        for step, e in _stmt_expr_slots(block[i]):
            search_expr(e, path, (step,))
    return _select(proc, matches, pattern, index, one)


def _describe_match(proc, m, k) -> str:
    """One candidate line for an ambiguity error: index, srcinfo, code."""
    from ..core.pprint import expr_to_str, stmt_to_lines

    if isinstance(m, ExprMatch):
        return f"  #{k}: {m.expr.srcinfo}: {expr_to_str(m.expr)}"
    s = IR.get_stmt(proc, m.path)
    first = stmt_to_lines(s, 0)[0]
    return f"  #{k}: {s.srcinfo}: {first}"


def _nearby_candidates(proc, parsed) -> list:
    """Statements of the same constructor as the pattern's head — what the
    user *might* have meant when a pattern matched nothing."""
    kind, payload = parsed
    if kind == "alloc":
        want = (IR.Alloc,)
    elif kind == "stmts":
        head = next((p for p in payload if p is not HOLE), None)
        if head is None:
            return []
        want = (type(head),)
    else:
        return []
    out = []
    for path, block, i in _iter_positions(proc):
        if isinstance(block[i], want):
            out.append(StmtMatch(path, 1))
    return out


def _select(proc, matches, pattern, index, one=False, parsed=None):
    if not matches:
        msg = f"no match for pattern {pattern!r}"
        near = _nearby_candidates(proc, parsed) if parsed is not None else []
        if near:
            lines = [_describe_match(proc, m, k)
                     for k, m in enumerate(near[:8])]
            if len(near) > 8:
                lines.append(f"  ... and {len(near) - 8} more")
            msg += ("; statements of the same kind in "
                    f"{proc.name!r}:\n" + "\n".join(lines))
        raise SchedulingError(msg)
    if index is not None:
        if index >= len(matches):
            raise SchedulingError(
                f"pattern {pattern!r} has only {len(matches)} matches; "
                f"#{index} requested"
            )
        return [matches[index]]
    if one and len(matches) > 1:
        lines = [_describe_match(proc, m, k) for k, m in enumerate(matches)]
        raise SchedulingError(
            f"pattern {pattern!r} is ambiguous ({len(matches)} matches); "
            f"disambiguate with '#n':\n" + "\n".join(lines)
        )
    return matches


def _stmt_expr_slots(s: IR.Stmt):
    if isinstance(s, (IR.Assign, IR.Reduce)):
        out = [(("idx", i), e) for i, e in enumerate(s.idx)]
        out.append((("rhs",), s.rhs))
        return out
    if isinstance(s, IR.WriteConfig):
        return [(("rhs",), s.rhs)]
    if isinstance(s, IR.If):
        return [(("cond",), s.cond)]
    if isinstance(s, IR.For):
        return [(("lo",), s.lo), (("hi",), s.hi)]
    if isinstance(s, IR.Call):
        return [(("args", i), e) for i, e in enumerate(s.args)]
    if isinstance(s, IR.WindowStmt):
        return [(("rhs",), s.rhs)]
    return []


def _expr_children(e: IR.Expr):
    if isinstance(e, IR.Read):
        return [(("idx", i), sub) for i, sub in enumerate(e.idx)]
    if isinstance(e, IR.USub):
        return [(("arg",), e.arg)]
    if isinstance(e, IR.BinOp):
        return [(("lhs",), e.lhs), (("rhs",), e.rhs)]
    if isinstance(e, IR.Extern):
        return [(("args", i), sub) for i, sub in enumerate(e.args)]
    if isinstance(e, IR.WindowExpr):
        out = []
        for i, w in enumerate(e.idx):
            if isinstance(w, IR.Interval):
                out.append((("idx", i, "lo"), w.lo))
                out.append((("idx", i, "hi"), w.hi))
            else:
                out.append((("idx", i, "pt"), w.pt))
        return out
    return []


def scope_at(proc: IR.Proc, path) -> dict:
    """Names in scope just before the statement at ``path`` (display-name ->
    Sym): arguments, enclosing loop iterators, and earlier allocations or
    window bindings in enclosing blocks."""
    scope = {str(a.name): a.name for a in proc.args}
    node = proc
    for depth, (fld, idx) in enumerate(path):
        block = IR.get_block(node, fld)
        for s in block[:idx]:
            if isinstance(s, (IR.Alloc, IR.WindowStmt)):
                scope[str(s.name)] = s.name
        node = block[idx]
        if isinstance(node, IR.For) and depth < len(path) - 1:
            scope[str(node.iter)] = node.iter
    return scope


def resolve_fragment(expr, scope: dict):
    """Rebind a parsed pattern fragment's free names to in-scope Syms."""
    from ..core.prelude import SchedulingError as SE

    def fn(e):
        if isinstance(e, (IR.Read, IR.WindowExpr, IR.StrideExpr)):
            name = str(e.name)
            if e.name not in scope.values():
                if name not in scope:
                    raise SE(f"name {name!r} is not in scope here")
                from dataclasses import replace as dc_replace

                return dc_replace(e, name=scope[name])
        return e

    return IR.map_expr(fn, expr)


def parse_fragment_expr(proc: IR.Proc, path, src: str):
    """Parse an expression fragment and resolve its names at ``path``."""
    parsed = parse_fragment(src)
    if isinstance(parsed, tuple):
        raise SchedulingError(f"{src!r} must be an expression, not a statement")
    return resolve_fragment(parsed, scope_at(proc, path))


def get_expr(stmt: IR.Stmt, expr_path):
    """Fetch the expression at ``expr_path`` within a statement."""
    node = stmt
    for step in expr_path:
        field = step[0]
        node2 = getattr(node, field)
        if len(step) >= 2 and isinstance(step[1], int):
            node2 = node2[step[1]]
            if len(step) == 3:
                node2 = getattr(node2, step[2])
        node = node2
    return node


def replace_expr_at(stmt: IR.Stmt, expr_path, new_expr):
    """Rebuild ``stmt`` with the expression at ``expr_path`` replaced."""
    from dataclasses import replace as dc_replace

    def rebuild(node, steps):
        if not steps:
            return new_expr
        step = steps[0]
        field = step[0]
        cur = getattr(node, field)
        if len(step) >= 2 and isinstance(step[1], int):
            lst = list(cur)
            if len(step) == 3:
                lst[step[1]] = dc_replace(
                    lst[step[1]], **{step[2]: rebuild(getattr(lst[step[1]], step[2]), steps[1:])}
                )
            else:
                lst[step[1]] = rebuild(lst[step[1]], steps[1:])
            return dc_replace(node, **{field: tuple(lst)})
        return dc_replace(node, **{field: rebuild(cur, steps[1:])})

    return rebuild(stmt, list(expr_path))
