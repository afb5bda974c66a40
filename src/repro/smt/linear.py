"""Linear rows of LIA terms, and the row operations both engines share.

A row is a linear form ``(const, {Sym: coeff})``.  :class:`Linearizer`
turns terms into rows, purifying quasi-affine ``/`` and ``%``.  The row
operations -- linear combination (:func:`lincomb`), gcd tightening of an
inequality (:func:`normalize`) and of an equality (:func:`normalize_eq`),
the tightest row per coefficient set (:func:`dedupe`), substituting a
unit equality (:func:`substitute`) and the Fourier-Motzkin pair step
(:func:`combine`) -- are the one linear-arithmetic kernel: the affine
fast path (:mod:`repro.analysis.absint`) refutes rows with them, the
Omega test and Cooper's projection (:mod:`repro.smt.omega`) decide and
project rows with them, and the scheduler's affine normal form
(:mod:`repro.scheduling.simplify`) and ``replace()``'s unifier
(:mod:`repro.scheduling.unify`) are built on them.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Optional, Tuple

from ..core.prelude import Sym
from . import terms as S


class NonAffine(Exception):
    """A term or formula outside the affine fragment."""


#: A linear form ``(const, {Sym: coeff})``; a row (constraint) is a linear
#: form asserted ``>= 0``.
Lin = Tuple[int, Dict[Sym, int]]

#: the integer negation of each order comparison (``not (a == b)`` is the
#: disjunction ``a < b or a > b``)
NEGATED = {">=": "<", ">": "<=", "<=": ">", "<": ">="}


def lincomb(*terms: Tuple[int, Lin]) -> Lin:
    """``Σ k·lin`` over the ``(k, lin)`` pairs, zero coefficients dropped."""
    c = 0
    m: Dict[Sym, int] = {}
    for k, (ct, mt) in terms:
        c += k * ct
        for v, a in mt.items():
            m[v] = m.get(v, 0) + k * a
    return (c, {v: a for v, a in m.items() if a})


def normalize(c: int, m: Dict[Sym, int]) -> Lin:
    """The row ``c + Σ m[v]·v >= 0`` without zero coefficients, divided by
    the gcd of its coefficients (a new dict; ``m`` is not changed)."""
    m = {k: v for k, v in m.items() if v}
    if m:
        g = gcd(*m.values())
        if g > 1:
            # integer tightening: sum of g-divisible terms >= -c implies
            # the divided sum >= ceil(-c/g), i.e. const becomes floor(c/g)
            c = c // g
            m = {k: v // g for k, v in m.items()}
    return (c, m)


def normalize_eq(c: int, m: Dict[Sym, int]) -> Optional[Lin]:
    """The equality ``c + Σ m[v]·v == 0`` without zero coefficients,
    divided by the gcd of its coefficients (a new dict), or None when it
    has no integer solution: the gcd does not divide ``c`` (with no
    variables left, ``c != 0``)."""
    m = {k: v for k, v in m.items() if v}
    if not m:
        return None if c else (c, m)
    g = gcd(*m.values())
    if g > 1:
        if c % g:
            return None
        c, m = c // g, {k: v // g for k, v in m.items()}
    return (c, m)


def dedupe(rows: List[Lin]) -> List[Lin]:
    """Keep only the tightest (smallest-constant) row per coefficient set,
    at the place of the set's first row."""
    best: Dict[frozenset, Lin] = {}
    for c, m in rows:
        key = frozenset((k.id, v) for k, v in m.items())
        old = best.get(key)
        if old is None or c < old[0]:
            best[key] = (c, m)
    return list(best.values())


def substitute(row: Lin, eq: Lin, x: Sym) -> Lin:
    """``row`` with ``x`` substituted out by the equality ``eq == 0``, in
    which ``x`` has coefficient ``±1`` (the Omega test's equality step:
    exact over the integers, as ``x`` is an integer combination of the
    other variables).  Zero coefficients may remain; ``row`` itself when
    it has no ``x``."""
    c, m = row
    b = m.get(x)
    if not b:
        return row
    c0, m0 = eq
    # b*x = f*(c0 + Σ m0[k]·k) over the other variables k
    f = -m0[x] * b
    m = {k: v for k, v in m.items() if k is not x}
    for k, v in m0.items():
        if k is not x:
            m[k] = m.get(k, 0) + f * v
    return (c + f * c0, m)


def combine(pos: Lin, neg: Lin, x: Sym, offset: int = 0) -> Lin:
    """The Fourier-Motzkin pair step: ``b·pos + a·neg - offset``, normalized,
    where ``a > 0`` is the coefficient of ``x`` in ``pos`` and ``-b < 0``
    its coefficient in ``neg``, so ``x`` cancels.  Offset 0 gives the real
    shadow, ``(a-1)(b-1)`` the Omega test's dark shadow."""
    cp, mp = pos
    cn, mn = neg
    a = mp[x]
    b = -mn[x]
    m: Dict[Sym, int] = {}
    for k, v in mp.items():
        if k is not x:
            m[k] = b * v
    for k, v in mn.items():
        if k is not x:
            m[k] = m.get(k, 0) + a * v
    return normalize(b * cp + a * cn - offset, m)


class Linearizer:
    """Turns terms into linear forms, purifying ``/`` and ``%``.

    Quotient pseudo-variables are keyed by the structural ``FloorDiv`` term
    (frozen dataclasses compare by structure), so repeated occurrences of
    the same division share one variable; ``t % d`` is rewritten to
    ``t - d*(t / d)``.  Each fresh quotient ``q`` contributes the defining
    constraints ``t - d*q >= 0`` and ``d*q + (d-1) - t >= 0`` to
    :attr:`cons`.  Sharing is sound: the same term has the same quotient,
    and the defining rows pin each quotient to its one integer value.

    ``quotients`` seeds the map with divisions purified earlier (their
    defining rows are the caller's): a fact context linearized once hands
    its quotients to each goal's converter, so a division shared by the
    context and the goal is one variable."""

    def __init__(self, quotients: Optional[Dict[S.FloorDiv, Sym]] = None):
        #: quotient pseudo-variable of each purified division
        self.quotients: Dict[S.FloorDiv, Sym] = dict(quotients or {})
        #: defining rows of the quotients this converter introduced
        self.cons: List[Lin] = []

    def _qvar(self, fd: S.FloorDiv) -> Sym:
        q = self.quotients.get(fd)
        if q is None:
            q = Sym(f"q{len(self.quotients)}")
            self.quotients[fd] = q
            c, m = self.lin(fd.arg)
            d = fd.divisor
            m1 = dict(m)
            m1[q] = m1.get(q, 0) - d
            self.cons.append((c, m1))
            m2 = {k: -v for k, v in m.items()}
            m2[q] = m2.get(q, 0) + d
            self.cons.append((d - 1 - c, m2))
        return q

    def lin(self, t: S.Term) -> Lin:
        if isinstance(t, bool):
            raise NonAffine(t)
        if isinstance(t, int):  # raw literal in a Cmp operand
            return (t, {})
        if isinstance(t, S.IntC):
            return (t.val, {})
        if isinstance(t, S.Var):
            if t.sort != S.INT:
                raise NonAffine(t)
            return (0, {t.sym: 1})
        if isinstance(t, S.Add):
            c = 0
            m: Dict[Sym, int] = {}
            for a in t.args:
                ca, ma = self.lin(a)
                c += ca
                for k, v in ma.items():
                    m[k] = m.get(k, 0) + v
            return (c, m)
        if isinstance(t, S.Scale):
            c, m = self.lin(t.arg)
            return (c * t.coeff, {k: v * t.coeff for k, v in m.items()})
        if isinstance(t, S.FloorDiv):
            return (0, {self._qvar(t): 1})
        if isinstance(t, S.Mod):
            # t % d  =  t - d * (t / d), sharing the quotient variable
            q = self._qvar(S.FloorDiv(t.arg, t.divisor))
            c, m = self.lin(t.arg)
            m = dict(m)
            m[q] = m.get(q, 0) - t.divisor
            return (c, m)
        raise NonAffine(t)

    # -- atoms -------------------------------------------------------------

    def diff(self, lhs: S.Term, rhs: S.Term) -> Lin:
        """The linear form ``lhs - rhs``."""
        cl, ml = self.lin(lhs)
        cr, mr = self.lin(rhs)
        m = dict(ml)
        for k, v in mr.items():
            m[k] = m.get(k, 0) - v
        return (cl - cr, m)

    def atom_cons(self, t: S.Cmp) -> List[Lin]:
        """GEQ-form constraints equivalent to the atom ``t``."""
        c, m = self.diff(t.lhs, t.rhs)
        neg = (-c, {k: -v for k, v in m.items()})
        if t.op == "==":
            return [(c, m), neg]
        if t.op == ">=":
            return [(c, m)]
        if t.op == ">":
            return [(c - 1, m)]
        if t.op == "<=":
            return [neg]
        if t.op == "<":
            return [(neg[0] - 1, neg[1])]
        raise NonAffine(t)

    def neg_atom_cons(self, t: S.Cmp) -> List[Lin]:
        """GEQ-form constraints equivalent to ``not t`` (integer negation).
        ``!=`` is a disjunction and has no conjunctive form: raises."""
        if t.op not in NEGATED:
            raise NonAffine(t)
        return self.atom_cons(S.Cmp(NEGATED[t.op], t.lhs, t.rhs))
