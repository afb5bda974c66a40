"""Term language for the built-in SMT solver.

The solver decides formulas of linear integer arithmetic (LIA) with
quantifiers -- exactly the fragment Exo's quasi-affine restriction produces
(§3.1, §4.2).  Terms are immutable hash-consable dataclasses:

* integer sort: variables, constants and ``+ - *c /c %c``;
* boolean sort: comparisons, propositional connectives, quantifiers, and
  boolean variables (used by the ternary-logic encoding).

Smart constructors fold constants aggressively so that the formulas reaching
the Omega test stay small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..core.prelude import InternalError, Sym

INT = "int"
BOOL = "bool"


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    sym: Sym
    sort: str = INT


@dataclass(frozen=True)
class IntC(Term):
    val: int


@dataclass(frozen=True)
class BoolC(Term):
    val: bool


@dataclass(frozen=True)
class Add(Term):
    args: Tuple[Term, ...]


@dataclass(frozen=True)
class Scale(Term):
    """``coeff * t`` with a literal integer coefficient."""

    coeff: int
    arg: Term


@dataclass(frozen=True)
class FloorDiv(Term):
    arg: Term
    divisor: int  # positive literal


@dataclass(frozen=True)
class Mod(Term):
    arg: Term
    divisor: int  # positive literal


@dataclass(frozen=True)
class Cmp(Term):
    op: str  # == <= < >= >
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Not(Term):
    arg: Term


@dataclass(frozen=True)
class And(Term):
    args: Tuple[Term, ...]


@dataclass(frozen=True)
class Or(Term):
    args: Tuple[Term, ...]


@dataclass(frozen=True)
class Exists(Term):
    vars: Tuple[Sym, ...]
    body: Term


@dataclass(frozen=True)
class ForAll(Term):
    vars: Tuple[Sym, ...]
    body: Term


TRUE = BoolC(True)
FALSE = BoolC(False)


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------


def mk_bool(v: bool) -> Term:
    return TRUE if v else FALSE


def add(*args) -> Term:
    flat = []
    const = 0
    stack = list(args)
    while stack:
        a = stack.pop()
        if isinstance(a, IntC):
            const += a.val
        elif isinstance(a, Add):
            stack.extend(a.args)
        else:
            flat.append(a)
    flat.reverse()
    if const or not flat:
        flat.append(IntC(const))
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def sub(a: Term, b: Term) -> Term:
    return add(a, scale(-1, b))


def scale(c: int, t: Term) -> Term:
    c = int(c)
    if c == 0:
        return IntC(0)
    if c == 1:
        return t
    if isinstance(t, IntC):
        return IntC(c * t.val)
    if isinstance(t, Scale):
        return scale(c * t.coeff, t.arg)
    if isinstance(t, Add):
        # distribute so linear terms stay flat sums (folding relies on it)
        return add(*[scale(c, a) for a in t.args])
    return Scale(c, t)


def neg(t: Term) -> Term:
    return scale(-1, t)


def _split_divisible(t: Term, d: int):
    """Split ``t`` into ``d*outside + inside`` with every addend of
    ``outside`` integral.  Enables the folds ``(d*A + B)/d = A + B/d`` and
    ``(d*A + B)%d = B%d``."""
    addends = list(t.args) if isinstance(t, Add) else [t]
    outside = []
    inside = []
    for a in addends:
        if isinstance(a, IntC):
            outside.append(IntC(a.val // d))
            if a.val % d:
                inside.append(IntC(a.val % d))
        elif isinstance(a, Scale) and a.coeff % d == 0:
            outside.append(scale(a.coeff // d, a.arg))
        else:
            inside.append(a)
    return add(*outside), add(*inside) if inside else IntC(0)


def floordiv(t: Term, d: int) -> Term:
    if d <= 0:
        raise InternalError("floordiv requires a positive literal divisor")
    if d == 1:
        return t
    out, inner = _split_divisible(t, d)
    if isinstance(inner, IntC):
        return add(out, IntC(inner.val // d))
    return add(out, FloorDiv(inner, d))


def mod(t: Term, d: int) -> Term:
    if d <= 0:
        raise InternalError("mod requires a positive literal divisor")
    if d == 1:
        return IntC(0)
    _out, inner = _split_divisible(t, d)
    if isinstance(inner, IntC):
        return IntC(inner.val % d)
    return Mod(inner, d)


_CMP_EVAL = {
    "==": lambda a, b: a == b,
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


def cmp(op: str, a: Term, b: Term) -> Term:
    if op not in _CMP_EVAL:
        raise InternalError(f"unknown comparison {op}")
    if isinstance(a, IntC) and isinstance(b, IntC):
        return mk_bool(_CMP_EVAL[op](a.val, b.val))
    return Cmp(op, a, b)


def eq(a: Term, b: Term) -> Term:
    if a == b and _sort(a) == INT:
        return TRUE
    return cmp("==", a, b)


def le(a, b):
    return cmp("<=", a, b)


def lt(a, b):
    return cmp("<", a, b)


def ge(a, b):
    return cmp(">=", a, b)


def gt(a, b):
    return cmp(">", a, b)


def negate(t: Term) -> Term:
    if isinstance(t, BoolC):
        return mk_bool(not t.val)
    if isinstance(t, Not):
        return t.arg
    return Not(t)


def conj(*args) -> Term:
    flat = []
    for a in args:
        if isinstance(a, BoolC):
            if not a.val:
                return FALSE
            continue
        if isinstance(a, And):
            flat.extend(a.args)
        else:
            flat.append(a)
    seen = []
    for a in flat:
        if a not in seen:
            seen.append(a)
    if not seen:
        return TRUE
    if len(seen) == 1:
        return seen[0]
    return And(tuple(seen))


def disj(*args) -> Term:
    flat = []
    for a in args:
        if isinstance(a, BoolC):
            if a.val:
                return TRUE
            continue
        if isinstance(a, Or):
            flat.extend(a.args)
        else:
            flat.append(a)
    seen = []
    for a in flat:
        if a not in seen:
            seen.append(a)
    if not seen:
        return FALSE
    if len(seen) == 1:
        return seen[0]
    return Or(tuple(seen))


def implies(a: Term, b: Term) -> Term:
    return disj(negate(a), b)


def iff(a: Term, b: Term) -> Term:
    return conj(implies(a, b), implies(b, a))


def exists(vars_, body: Term) -> Term:
    vars_ = tuple(vars_)
    if not vars_:
        return body
    if isinstance(body, BoolC):
        return body
    if isinstance(body, Exists):
        return Exists(vars_ + body.vars, body.body)
    return Exists(vars_, body)


def forall(vars_, body: Term) -> Term:
    vars_ = tuple(vars_)
    if not vars_:
        return body
    if isinstance(body, BoolC):
        return body
    if isinstance(body, ForAll):
        return ForAll(vars_ + body.vars, body.body)
    return ForAll(vars_, body)


# ---------------------------------------------------------------------------
# Generic traversal
# ---------------------------------------------------------------------------


def _sort(t: Term) -> str:
    if isinstance(t, (IntC, Add, Scale, FloorDiv, Mod)):
        return INT
    if isinstance(t, Var):
        return t.sort
    return BOOL


def children(t: Term):
    if isinstance(t, Add):
        return list(t.args)
    if isinstance(t, Scale):
        return [t.arg]
    if isinstance(t, (FloorDiv, Mod)):
        return [t.arg]
    if isinstance(t, Cmp):
        return [t.lhs, t.rhs]
    if isinstance(t, Not):
        return [t.arg]
    if isinstance(t, (And, Or)):
        return list(t.args)
    if isinstance(t, (Exists, ForAll)):
        return [t.body]
    return []


def free_vars(t: Term) -> set:
    if isinstance(t, Var):
        return {t.sym}
    if isinstance(t, (Exists, ForAll)):
        return free_vars(t.body) - set(t.vars)
    out = set()
    for c in children(t):
        out |= free_vars(c)
    return out


def substitute(t: Term, env: dict) -> Term:
    """Substitute ``Var(sym)`` by ``env[sym]`` (a Term) throughout."""
    if isinstance(t, Var):
        return env.get(t.sym, t)
    if isinstance(t, (IntC, BoolC)):
        return t
    if isinstance(t, Add):
        return add(*[substitute(a, env) for a in t.args])
    if isinstance(t, Scale):
        return scale(t.coeff, substitute(t.arg, env))
    if isinstance(t, FloorDiv):
        return floordiv(substitute(t.arg, env), t.divisor)
    if isinstance(t, Mod):
        return mod(substitute(t.arg, env), t.divisor)
    if isinstance(t, Cmp):
        return cmp(t.op, substitute(t.lhs, env), substitute(t.rhs, env))
    if isinstance(t, Not):
        return negate(substitute(t.arg, env))
    if isinstance(t, And):
        return conj(*[substitute(a, env) for a in t.args])
    if isinstance(t, Or):
        return disj(*[substitute(a, env) for a in t.args])
    if isinstance(t, (Exists, ForAll)):
        inner = {k: v for k, v in env.items() if k not in t.vars}
        body = substitute(t.body, inner)
        kind = exists if isinstance(t, Exists) else forall
        return kind(t.vars, body)
    raise InternalError(f"substitute: unknown term {t!r}")


def open_binder(t: Term):
    """The binders and body of a quantifier, renamed apart: returns
    ``(vars, body)`` with every bound ``Sym`` replaced by a fresh copy.

    Formulas may share a binder -- ``mem`` over an effect and over a
    substituted copy of it both quantify over the same loop ``Sym`` -- so
    a caller that drops the quantifier and treats its variables as free
    must open it first, or two independent existentials would be
    conflated into one.  Binders are integer loop indices."""
    fresh = tuple(v.copy() for v in t.vars)
    body = substitute(t.body, {v: Var(n) for v, n in zip(t.vars, fresh)})
    return fresh, body


def term_to_str(t: Term) -> str:
    if isinstance(t, Var):
        return str(t.sym)
    if isinstance(t, IntC):
        return str(t.val)
    if isinstance(t, BoolC):
        return "true" if t.val else "false"
    if isinstance(t, Add):
        return "(" + " + ".join(term_to_str(a) for a in t.args) + ")"
    if isinstance(t, Scale):
        return f"{t.coeff}*{term_to_str(t.arg)}"
    if isinstance(t, FloorDiv):
        return f"({term_to_str(t.arg)} / {t.divisor})"
    if isinstance(t, Mod):
        return f"({term_to_str(t.arg)} % {t.divisor})"
    if isinstance(t, Cmp):
        return f"({term_to_str(t.lhs)} {t.op} {term_to_str(t.rhs)})"
    if isinstance(t, Not):
        return f"!{term_to_str(t.arg)}"
    if isinstance(t, And):
        return "(" + " & ".join(term_to_str(a) for a in t.args) + ")"
    if isinstance(t, Or):
        return "(" + " | ".join(term_to_str(a) for a in t.args) + ")"
    if isinstance(t, Exists):
        return f"(exists {', '.join(map(str, t.vars))}. {term_to_str(t.body)})"
    if isinstance(t, ForAll):
        return f"(forall {', '.join(map(str, t.vars))}. {term_to_str(t.body)})"
    return repr(t)
