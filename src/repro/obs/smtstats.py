"""SMT query statistics and the canonical key of the solver's query cache.

Every scheduling rewrite discharges its safety obligations (``Commutes``,
``Shadows``, bounds, preconditions, ...) as validity queries against
:mod:`repro.smt.solver`.  Identical obligations recur constantly — e.g.
:func:`repro.effects.api.fresh_point` mints *fresh* ``Sym`` variables for
every membership query, so the solver's identity-keyed cache never sees a
repeat even when the formula is the same modulo variable names.

:func:`canonical_key` closes that gap: it renders a formula as a hashable
tree with every ``Sym`` replaced by its first-occurrence index, so two
formulas get the same key **iff** they are identical up to a bijective
renaming of variables.  Validity of LIA formulas is invariant under such
renamings (free variables are implicitly universally quantified by
``prove``), so answering from a canonical-key cache is sound.

The solver's ``qcache`` is that memo table, a plain dict, and
:class:`SmtStats` aggregates process-wide query counters: prove calls,
cache hits and misses, DNF branches explored, and Omega
projections/eliminations.
"""

from __future__ import annotations

from typing import Dict

from ..smt import terms as S


def canonical_key(t) -> tuple:
    """A hashable tree identifying ``t`` up to bijective Sym renaming."""
    numbering: Dict[object, int] = {}

    def var_ix(sym) -> int:
        ix = numbering.get(sym)
        if ix is None:
            ix = numbering[sym] = len(numbering)
        return ix

    def go(t) -> tuple:
        if isinstance(t, S.Var):
            return ("v", var_ix(t.sym), t.sort)
        if isinstance(t, S.IntC):
            return ("i", t.val)
        if isinstance(t, S.BoolC):
            return ("b", t.val)
        if isinstance(t, S.Add):
            return ("+",) + tuple(go(a) for a in t.args)
        if isinstance(t, S.Scale):
            return ("*", t.coeff, go(t.arg))
        if isinstance(t, S.FloorDiv):
            return ("/", t.divisor, go(t.arg))
        if isinstance(t, S.Mod):
            return ("%", t.divisor, go(t.arg))
        if isinstance(t, S.Cmp):
            return ("cmp", t.op, go(t.lhs), go(t.rhs))
        if isinstance(t, S.Not):
            return ("not", go(t.arg))
        if isinstance(t, S.And):
            return ("and",) + tuple(go(a) for a in t.args)
        if isinstance(t, S.Or):
            return ("or",) + tuple(go(a) for a in t.args)
        if isinstance(t, S.Exists):
            return ("ex", tuple(var_ix(v) for v in t.vars), go(t.body))
        if isinstance(t, S.ForAll):
            return ("fa", tuple(var_ix(v) for v in t.vars), go(t.body))
        raise TypeError(f"canonical_key: not a term: {t!r}")

    return go(t)


class SmtStats:
    """Process-wide counters for the decision-procedure pipeline."""

    _FIELDS = (
        "prove_calls",
        "sat_calls",
        "cache_hits",
        "cache_misses",
        "dnf_branches",
        "omega_projections",
        "omega_feasibility_checks",
        "timeouts",
    )

    def __init__(self):
        self.reset()

    def reset(self):
        for f in self._FIELDS:
            setattr(self, f, 0)
        self.prove_time = 0.0

    def snapshot(self) -> dict:
        out = {f: getattr(self, f) for f in self._FIELDS}
        out["prove_time_s"] = round(self.prove_time, 6)
        total = self.cache_hits + self.cache_misses
        out["cache_hit_rate"] = round(self.cache_hits / total, 4) if total else 0.0
        return out


#: the singleton the solver and Omega test report into
STATS = SmtStats()
