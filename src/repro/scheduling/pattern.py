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
from typing import Optional, Tuple

from ..core import ast as IR
from ..core.builtins import BuiltIn
from ..core.prelude import SchedulingError, Sym
from ..frontend.parser import HOLE, ConfigByName, parse_fragment


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


def _attr_matches(fld, p, t) -> bool:
    if fld == "kind":
        return True  # a pattern does not say how a loop runs
    if isinstance(p, ConfigByName):
        return p.matches(t)
    if isinstance(p, Sym) and p.name == "_":
        return True
    if isinstance(p, (Sym, IR.Proc, BuiltIn)):  # by display name
        return p.name == t.name
    return p == t


def _match(p, t) -> bool:
    """Does pattern node ``p`` match target node ``t``?"""
    if p is HOLE or p is None:  # None: a window bound the pattern left open
        return True
    if type(p) is not type(t) or type(t) is IR.Alloc:
        return False
    if not all(_attr_matches(fld, pv, tv)
               for (fld, pv), (_fld, tv) in zip(IR.attrs(p), IR.attrs(t))):
        return False
    # a lone ``_`` index or argument list stands for the target's, of any arity
    lone = {fld: (HOLE,) * len(getattr(t, fld)) for fld, kind in p.SLOTS
            if kind == IR.EXPRS and getattr(p, fld) == (HOLE,)}
    pairs = IR.pair(IR.rebuild(p, **lone) if lone else p, t)
    return pairs is not None and all(
        _match_block(x, y) is not None if type(x) is tuple else _match(x, y)
        for _step, x, y in pairs
    )


def _match_block(pats, block) -> Optional[int]:
    """Match a pattern statement list at the start of ``block``; returns the
    number of target statements consumed, or None.  A pattern block matches
    a prefix of the target block, and a ``HOLE`` swallows the rest."""
    for consumed, p in enumerate(pats):
        if p is HOLE:
            return len(block)
        if consumed >= len(block) or not _match(p, block[consumed]):
            return None
    return len(pats)


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


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
        for path, block, i in IR.walk_paths(proc.body):
            s = block[i]
            if isinstance(s, IR.Alloc) and str(s.name) == name:
                matches.append(StmtMatch(path, 1, origin=pattern))
    elif kind == "stmts":
        pats = list(payload)
        for path, block, i in IR.walk_paths(proc.body):
            n = _match_block(pats, block[i:])
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
        if _match(payload, e):
            matches.append(ExprMatch(path, expr_path, e))
        for step, sub in IR.children(e):
            search_expr(sub, path, expr_path + (step,))

    for path, block, i in IR.walk_paths(proc.body):
        s = block[i]
        if isinstance(s, IR.Alloc):
            continue  # an allocation's extents are part of its type
        for step, e in IR.children(s):
            if type(e) is not tuple:
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
    for path, block, i in IR.walk_paths(proc.body):
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
    def fn(e):
        if isinstance(e, (IR.Read, IR.WindowExpr, IR.StrideExpr)):
            name = str(e.name)
            if e.name not in scope.values():
                if name not in scope:
                    raise SchedulingError(f"name {name!r} is not in scope here")
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
