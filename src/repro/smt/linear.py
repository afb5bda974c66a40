"""Linear forms of LIA terms, with quasi-affine ``/`` and ``%`` purified.

The one term-to-linear converter: the affine fast path
(:mod:`repro.analysis.absint`) refutes its rows by Fourier-Motzkin, and the
solver (:mod:`repro.smt.solver`) turns them into Omega constraints.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.prelude import Sym
from . import terms as S


class NonAffine(Exception):
    """A term or formula outside the affine fragment."""


#: A linear form ``(const, {Sym: coeff})``; a row (constraint) is a linear
#: form asserted ``>= 0``.
Lin = Tuple[int, Dict[Sym, int]]

_NEGATED = {">=": "<", ">": "<=", "<=": ">", "<": ">="}


class Linearizer:
    """Turns terms into linear forms, purifying ``/`` and ``%``.

    Quotient pseudo-variables are keyed by the structural ``FloorDiv`` term
    (frozen dataclasses compare by structure), so repeated occurrences of
    the same division share one variable; ``t % d`` is rewritten to
    ``t - d*(t / d)``.  Each fresh quotient ``q`` contributes the defining
    constraints ``t - d*q >= 0`` and ``d*q + (d-1) - t >= 0`` to
    :attr:`cons`.  Sharing is sound: the same term has the same quotient,
    and the defining rows pin each quotient to its one integer value."""

    def __init__(self):
        #: quotient pseudo-variable of each purified division
        self.quotients: Dict[S.FloorDiv, Sym] = {}
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
        if t.op not in _NEGATED:
            raise NonAffine(t)
        return self.atom_cons(S.Cmp(_NEGATED[t.op], t.lhs, t.rhs))
