"""Decision procedure driver: NNF, DNF streaming, quantifier elimination.

``Solver.prove(phi)`` decides validity of a quantified LIA formula by
refuting its negation; ``Solver.satisfiable(phi)`` decides satisfiability.
Quantifiers are eliminated recursively with the Omega test
(:mod:`repro.smt.omega`); quasi-affine ``/`` and ``%`` are purified by
:class:`~repro.smt.linear.Linearizer` into existential quotient variables
with defining constraints, one per distinct division; boolean variables
(used by the ternary-logic encoding of the effect analysis) are treated as
opaque literals.
"""

from __future__ import annotations

import os
import time
from typing import Iterable, List

from ..core.prelude import InternalError
from ..obs import trace as _obs
from ..obs.smtstats import STATS as _SMT_STATS
from ..obs.smtstats import canonical_key
from . import terms as S
from .linear import NEGATED, Linearizer, NonAffine
from .omega import DIV, EQ, GEQ, feasible, project


class SmtTimeout(Exception):
    """Internal signal: the per-query budget expired mid-search.  Never
    escapes ``Solver.prove`` — it degrades to a conservative ``False``."""


# ---------------------------------------------------------------------------
# Negation normal form
# ---------------------------------------------------------------------------


def nnf(t, positive=True):
    if isinstance(t, S.BoolC):
        return t if positive else S.mk_bool(not t.val)
    if isinstance(t, S.Var):
        return t if positive else S.Not(t)
    if isinstance(t, S.Not):
        return nnf(t.arg, not positive)
    if isinstance(t, S.And):
        args = [nnf(a, positive) for a in t.args]
        return S.conj(*args) if positive else S.disj(*args)
    if isinstance(t, S.Or):
        args = [nnf(a, positive) for a in t.args]
        return S.disj(*args) if positive else S.conj(*args)
    if isinstance(t, S.Cmp):
        if positive:
            return t
        if t.op == "==":
            return S.disj(S.lt(t.lhs, t.rhs), S.gt(t.lhs, t.rhs))
        return S.cmp(NEGATED[t.op], t.lhs, t.rhs)
    if isinstance(t, S.Exists):
        body = nnf(t.body, positive)
        return S.exists(t.vars, body) if positive else S.forall(t.vars, body)
    if isinstance(t, S.ForAll):
        body = nnf(t.body, positive)
        return S.forall(t.vars, body) if positive else S.exists(t.vars, body)
    raise InternalError(f"nnf: not a formula: {t!r}")


# ---------------------------------------------------------------------------
# DNF streaming
# ---------------------------------------------------------------------------


def dnf_stream(t, prune=None) -> Iterable[List]:
    """Yield the conjuncts (lists of literals) of the DNF of an NNF formula.

    ``prune``, if given, maps a partial literal list to False when it is
    already unsatisfiable; subtrees under pruned prefixes are skipped.  This
    turns the naive exponential DNF walk into a DPLL-style search with
    theory propagation, which is what makes large negated-clause-set queries
    (from ``forall`` elimination) tractable.
    """

    def go(pending, literals):
        # absorb cheap work first: literals and conjunctions
        pending = list(pending)
        ors = []
        while pending:
            f = pending.pop()
            if isinstance(f, S.BoolC):
                if not f.val:
                    return
            elif isinstance(f, S.And):
                pending.extend(f.args)
            elif isinstance(f, S.Or):
                ors.append(f)
            else:
                literals = literals + [f]
        if ors and prune is not None and not prune(literals):
            return
        if not ors:
            if prune is None or prune(literals):
                yield literals
            return
        # branch on the smallest disjunction first
        if len(ors) > 1:
            ors.sort(key=lambda f: len(f.args))
        head, rest = ors[0], ors[1:]
        for arm in head.args:
            _SMT_STATS.dnf_branches += 1
            yield from go(rest + [arm], literals)

    return go([t], [])


# ---------------------------------------------------------------------------
# Linear constraints -> formulas
# ---------------------------------------------------------------------------


def _row_formula(row):
    """An Omega constraint ``(kind, lin, divisor)`` as a formula, its terms
    in ``Sym`` id order."""
    kind, (c, m), d = row
    items = sorted(m.items(), key=lambda va: va[0].id)
    parts = [S.scale(a, S.Var(v)) for v, a in items]
    if c or not parts:
        parts.append(S.IntC(c))
    t = S.add(*parts)
    if kind == EQ:
        return S.eq(t, S.IntC(0))
    if kind == DIV:
        return S.eq(S.mod(t, d), S.IntC(0))
    return S.ge(t, S.IntC(0))


# ---------------------------------------------------------------------------
# Quantifier elimination + satisfiability
# ---------------------------------------------------------------------------


class Solver:
    """The public solver interface: validity and satisfiability of LIA."""

    def __init__(self):
        self._prove_cache = {}
        self._feas_cache = {}
        #: per-query budget: programmatic override in milliseconds, or None
        #: to consult $REPRO_SMT_TIMEOUT_MS at each prove() (unset/0 = off)
        self.timeout_ms: float | None = None
        self._deadline: float | None = None
        #: memo table keyed by the *canonical* formula hash: repeated
        #: obligations that differ only in fresh Sym names (every
        #: Commutes/Shadows query mints fresh point variables) are
        #: answered once.  Sound because validity is invariant under
        #: bijective renaming of variables.
        self.qcache = {}

    # -- public API --------------------------------------------------------

    def prove(self, formula) -> bool:
        """Is ``formula`` valid (true for all integer assignments)?"""
        _SMT_STATS.prove_calls += 1
        key = formula
        if key in self._prove_cache:
            _SMT_STATS.cache_hits += 1
            return self._prove_cache[key]
        ckey = canonical_key(formula)
        cached = self.qcache.get(ckey)
        if cached is not None:
            _SMT_STATS.cache_hits += 1
            self._prove_cache[key] = cached
            return cached
        _SMT_STATS.cache_misses += 1
        t0 = time.perf_counter()
        budget_ms = self._budget_ms()
        outer_deadline = self._deadline
        if budget_ms is not None:
            self._deadline = t0 + budget_ms / 1e3
        try:
            with _obs.span("smt.prove"):
                result = not self.satisfiable(S.negate(formula))
        except SmtTimeout:
            # conservative "could not prove": sound for every caller (an
            # obligation that cannot be discharged fails the check), and
            # deliberately NOT cached — a retry with a bigger budget must
            # be able to succeed
            _SMT_STATS.timeouts += 1
            _obs.incr("smt.timeouts")
            _SMT_STATS.prove_time += time.perf_counter() - t0
            return False
        finally:
            self._deadline = outer_deadline
        _SMT_STATS.prove_time += time.perf_counter() - t0
        self._prove_cache[key] = result
        self.qcache[ckey] = result
        return result

    def _budget_ms(self) -> float | None:
        if self.timeout_ms is not None:
            return self.timeout_ms if self.timeout_ms > 0 else None
        raw = os.environ.get("REPRO_SMT_TIMEOUT_MS", "")
        if not raw:
            return None
        try:
            ms = float(raw)
        except ValueError:
            return None
        return ms if ms > 0 else None

    def _check_deadline(self):
        if self._deadline is not None and time.perf_counter() > self._deadline:
            raise SmtTimeout()

    def _ground(self, formula):
        """``formula`` as the DNF enumeration reads it: in NNF, universals
        eliminated, and the existential prefix stripped (free for
        satisfiability)."""
        return strip_exists(self._elim_foralls(nnf(formula)))[0]

    def satisfiable(self, formula) -> bool:
        _SMT_STATS.sat_calls += 1
        f = self._ground(formula)
        for _literals in dnf_stream(f, prune=self._conjunct_feasible):
            return True  # first surviving conjunct is feasible
        return False

    def find_model(self, formula):
        """A satisfying integer assignment for ``formula``, or ``None``.

        Best-effort and used only to render counterexamples in diagnostics,
        never for soundness: an unsatisfiable formula always yields ``None``,
        but a satisfiable one may too (values outside the probed range, or
        terms the linear backend cannot purify).  Returns ``{Sym: int}``."""
        try:
            f = self._ground(formula)
            for literals in dnf_stream(f, prune=self._conjunct_feasible):
                model = self._model_of_conjunct(literals)
                if model is not None:
                    return model
        except InternalError:
            pass
        return None

    def _model_of_conjunct(self, literals):
        system = _linear_system(literals)
        if system is None or not feasible(system[0]):
            return None
        cons, _bools, aux_vars = system
        aux = set(aux_vars)
        vars_ = []
        for _kind, (_c, m), _d in cons:
            for v, coeff in m.items():
                if coeff and v not in aux and v not in vars_:
                    vars_.append(v)
        vars_.sort(key=lambda s: s.id)
        # pin each variable in turn to the smallest-magnitude value that
        # keeps the system feasible; variables outside the probed range are
        # simply omitted from the model (it is a diagnostic, not a witness)
        candidates = [0]
        for m in range(1, 65):
            candidates += [m, -m]
        model = {}
        pins = []
        for v in vars_:
            for c in candidates:
                pin = (EQ, (-c, {v: 1}), 0)
                if feasible(cons + pins + [pin]):
                    model[v] = c
                    pins.append(pin)
                    break
        return model

    # -- quantifier elimination ---------------------------------------------
    #
    # Only universal quantifiers require genuine elimination: existential
    # binders are prenexed into the satisfiability check (``strip_exists``
    # renames each apart, so pulling them up never captures).

    def _elim_foralls(self, t):
        if isinstance(t, S.And):
            return S.conj(*[self._elim_foralls(a) for a in t.args])
        if isinstance(t, S.Or):
            return S.disj(*[self._elim_foralls(a) for a in t.args])
        if isinstance(t, S.Exists):
            return S.exists(t.vars, self._elim_foralls(t.body))
        if isinstance(t, S.ForAll):
            inner = nnf(S.negate(t.body))
            inner = self._elim_foralls(inner)
            elim = self._qe_exists(list(t.vars), inner)
            return nnf(S.negate(elim))
        return t

    def _qe_exists(self, qvars, body):
        body, extra = strip_exists(body)
        qvars = list(qvars) + extra
        disjuncts = []
        for literals in dnf_stream(body, prune=self._conjunct_feasible):
            system = _linear_system(literals, "qe")
            if system is None:
                continue
            cons, bools, aux_vars = system
            elim = list(qvars) + aux_vars
            for out_cons in project(cons, elim):
                parts = [_row_formula(c) for c in out_cons] + bools
                disjuncts.append(S.conj(*parts))
        return S.disj(*disjuncts)

    # -- ground satisfiability ----------------------------------------------

    def _conjunct_feasible(self, literals) -> bool:
        """Is the conjunction of ``literals`` satisfiable over the integers?
        The Omega test decides it on the purified rows; memoized per
        literal set."""
        self._check_deadline()
        key = frozenset(literals)
        cached = self._feas_cache.get(key)
        if cached is None:
            cached = self._omega_feasible(literals)
            self._feas_cache[key] = cached
        return cached

    def _omega_feasible(self, literals) -> bool:
        system = _linear_system(literals, "sat")
        return system is not None and feasible(system[0])


def _linear_system(literals, what=None):
    """A conjunct's literals as Omega constraints over the
    :class:`~repro.smt.linear.Linearizer`'s rows: an ``EQ`` row per ``==``
    atom, ``GEQ`` rows otherwise and for the quotients' defining rows.

    Returns ``(constraints, bool literals, quotient vars)``, or None when
    the conjunct holds a FALSE literal or a boolean conflict.  A
    non-linear term raises :class:`InternalError`.  Any other literal is
    unexpected: with ``what`` (the caller's name) it raises
    :class:`InternalError`, without it the conjunct is given up (None)."""
    lz = Linearizer()
    rows = []
    bools = []
    for lit in literals:
        if isinstance(lit, S.Cmp):
            try:
                if lit.op == "==":
                    rows.append((EQ, lz.diff(lit.lhs, lit.rhs), 0))
                else:
                    rows.extend((GEQ, r, 0) for r in lz.atom_cons(lit))
            except NonAffine:
                raise InternalError(f"non-linear atom {lit!r}") from None
        elif isinstance(lit, (S.Var, S.Not)):
            bools.append(lit)
        elif isinstance(lit, S.BoolC):
            if not lit.val:
                return None
        elif what is None:
            return None
        else:
            raise InternalError(f"{what}: unexpected literal {lit!r}")
    if _bool_conflict(bools):
        return None
    rows.extend((GEQ, r, 0) for r in lz.cons)
    return rows, bools, list(lz.quotients.values())


def strip_exists(t):
    """Prenex existential binders out of an NNF, forall-free formula.

    Returns ``(formula, vars)``; the binders become free variables, each
    renamed apart first so that no two existentials (nor an existential and
    a free variable) are conflated."""
    if isinstance(t, S.Exists):
        fresh, body = S.open_binder(t)
        inner, vs = strip_exists(body)
        return inner, list(fresh) + vs
    if isinstance(t, (S.And, S.Or)):
        parts = []
        vs = []
        for a in t.args:
            p, v = strip_exists(a)
            parts.append(p)
            vs += v
        if all(p is a for p, a in zip(parts, t.args)):
            return t, vs  # no binder below
        rebuilt = S.conj(*parts) if isinstance(t, S.And) else S.disj(*parts)
        return rebuilt, vs
    return t, []


def _bool_conflict(bools) -> bool:
    pos = set()
    neg = set()
    for b in bools:
        if isinstance(b, S.Not):
            neg.add(b.arg)
        else:
            pos.add(b)
    return bool(pos & neg)


def format_model(model, limit: int, skip=()) -> str:
    """``"i = 4, n = 4"``: the first ``limit`` entries of a
    :meth:`Solver.find_model` model outside ``skip``, ordered by name and
    then ``Sym`` id; empty when there are none."""
    items = sorted(
        ((s, v) for s, v in model.items() if s not in skip),
        key=lambda kv: (kv[0].name, kv[0].id),
    )
    return ", ".join(f"{s.name} = {v}" for s, v in items[:limit])


#: A process-wide default solver (the cache is shared across checks).
DEFAULT_SOLVER = Solver()

