"""SMT query statistics and the memoizing query cache.

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

:class:`QueryCache` is that memo table (with hit/miss counts), and
:class:`SmtStats` aggregates process-wide query counters: prove calls,
cache hits, DNF branches explored, and Omega projections/eliminations.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Optional

from ..smt import terms as S

# -- query categories --------------------------------------------------------
#
# Callers tag the dynamic extent of a check with its category so the per-
# category counters in SmtStats attribute solver load to the originating
# check: ``bounds`` / ``assert`` / ``parallel`` / ``sanitize`` / ``rewrite``
# (scheduling obligations) / ``other``.

_CATEGORY_STACK = ["other"]


@contextmanager
def query_category(name: str):
    """Tag ``Solver.prove`` calls in this dynamic extent with the
    originating check category."""
    _CATEGORY_STACK.append(name)
    try:
        yield
    finally:
        _CATEGORY_STACK.pop()


def current_category() -> str:
    return _CATEGORY_STACK[-1]


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
        if isinstance(t, S.Ite):
            return ("ite", go(t.cond), go(t.then), go(t.els))
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


class QueryCache:
    """Canonical-key memo table for ``prove`` verdicts."""

    def __init__(self):
        self._map: Dict[tuple, bool] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, key: tuple) -> Optional[bool]:
        found = self._map.get(key)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def store(self, key: tuple, verdict: bool):
        self._map[key] = verdict

    def __len__(self):
        return len(self._map)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self):
        self._map.clear()
        self.hits = 0
        self.misses = 0


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
        #: per-category prove counters: {category: {prove_calls, cache_hits}}
        self.by_category: Dict[str, Dict[str, int]] = {}

    def record_prove(self, category: str, cache_hit: bool):
        d = self.by_category.setdefault(
            category, {"prove_calls": 0, "cache_hits": 0}
        )
        d["prove_calls"] += 1
        if cache_hit:
            d["cache_hits"] += 1

    def snapshot(self) -> dict:
        out = {f: getattr(self, f) for f in self._FIELDS}
        out["prove_time_s"] = round(self.prove_time, 6)
        total = self.cache_hits + self.cache_misses
        out["cache_hit_rate"] = round(self.cache_hits / total, 4) if total else 0.0
        if self.by_category:
            out["by_category"] = {k: dict(v) for k, v in self.by_category.items()}
        return out


#: the singleton the solver and Omega test report into
STATS = SmtStats()
