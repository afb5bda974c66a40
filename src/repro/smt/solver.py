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

from ..core.prelude import InternalError, Sym
from ..obs import trace as _obs
from ..obs.smtstats import STATS as _SMT_STATS
from ..obs.smtstats import QueryCache, canonical_key, current_category
from . import terms as S
from .linear import Linearizer, NonAffine
from .omega import DIV, EQ, GEQ, Constraint, LinExpr, feasible, project

_CMP_NEG = {"==": "!=", "<=": ">", "<": ">=", ">=": "<", ">": "<="}


class SmtTimeout(Exception):
    """Internal signal: the per-query budget expired mid-search.  Never
    escapes ``Solver.prove`` — it degrades to a conservative ``False``."""


# ---------------------------------------------------------------------------
# if-then-else elimination (atoms only; ite over ints)
# ---------------------------------------------------------------------------


def _find_ite(t):
    if isinstance(t, S.Ite):
        return t
    for c in S.children(t):
        found = _find_ite(c)
        if found is not None:
            return found
    return None


def _replace_term(t, old, new):
    if t is old:
        return new
    if isinstance(t, S.Add):
        return S.add(*[_replace_term(a, old, new) for a in t.args])
    if isinstance(t, S.Scale):
        return S.scale(t.coeff, _replace_term(t.arg, old, new))
    if isinstance(t, S.FloorDiv):
        return S.floordiv(_replace_term(t.arg, old, new), t.divisor)
    if isinstance(t, S.Mod):
        return S.mod(_replace_term(t.arg, old, new), t.divisor)
    if isinstance(t, S.Cmp):
        return S.cmp(t.op, _replace_term(t.lhs, old, new), _replace_term(t.rhs, old, new))
    return t


def elim_ite(t):
    """Rewrite away integer ``ite`` nodes by case-splitting their atoms."""
    if isinstance(t, S.Cmp):
        it = _find_ite(t)
        if it is None:
            return t
        cond = elim_ite(it.cond)
        then_atom = elim_ite(_replace_term(t, it, it.then))
        else_atom = elim_ite(_replace_term(t, it, it.els))
        return S.disj(
            S.conj(cond, then_atom), S.conj(S.negate(cond), else_atom)
        )
    if isinstance(t, S.Not):
        return S.negate(elim_ite(t.arg))
    if isinstance(t, S.And):
        return S.conj(*[elim_ite(a) for a in t.args])
    if isinstance(t, S.Or):
        return S.disj(*[elim_ite(a) for a in t.args])
    if isinstance(t, S.Exists):
        return S.exists(t.vars, elim_ite(t.body))
    if isinstance(t, S.ForAll):
        return S.forall(t.vars, elim_ite(t.body))
    return t


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
            return _pos_cmp(t)
        return _neg_cmp(t)
    if isinstance(t, S.Exists):
        body = nnf(t.body, positive)
        return S.exists(t.vars, body) if positive else S.forall(t.vars, body)
    if isinstance(t, S.ForAll):
        body = nnf(t.body, positive)
        return S.forall(t.vars, body) if positive else S.exists(t.vars, body)
    raise InternalError(f"nnf: not a formula: {t!r}")


def _pos_cmp(t):
    return t


def _neg_cmp(t):
    op = _CMP_NEG[t.op]
    if op == "!=":
        return S.disj(S.lt(t.lhs, t.rhs), S.gt(t.lhs, t.rhs))
    return S.cmp(op, t.lhs, t.rhs)


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
            if f == S.TRUE:
                continue
            if f == S.FALSE:
                return
            if isinstance(f, S.And):
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
        ors.sort(key=lambda f: len(f.args))
        head, rest = ors[0], ors[1:]
        for arm in head.args:
            _SMT_STATS.dnf_branches += 1
            yield from go(rest + [arm], literals)

    yield from go([t], [])


# ---------------------------------------------------------------------------
# Linear constraints -> formulas
# ---------------------------------------------------------------------------


def _lin_to_term(e: LinExpr):
    parts = [S.scale(c, S.Var(v)) for v, c in e.coeffs]
    if e.const or not parts:
        parts.append(S.IntC(e.const))
    return S.add(*parts)


def _constraint_to_formula(c: Constraint):
    t = _lin_to_term(c.expr)
    if c.kind == EQ:
        return S.eq(t, S.IntC(0))
    if c.kind == DIV:
        return S.eq(S.mod(t, c.divisor), S.IntC(0))
    return S.ge(t, S.IntC(0))


# ---------------------------------------------------------------------------
# Quantifier elimination + satisfiability
# ---------------------------------------------------------------------------


class Solver:
    """The public solver interface: validity and satisfiability of LIA."""

    def __init__(self):
        self._prove_cache = {}
        self._feas_cache = {}
        self.stats = {"prove_calls": 0, "cache_hits": 0, "omega_conjuncts": 0}
        #: per-query budget: programmatic override in milliseconds, or None
        #: to consult $REPRO_SMT_TIMEOUT_MS at each prove() (unset/0 = off)
        self.timeout_ms: float | None = None
        self._deadline: float | None = None
        #: memo table keyed by the *canonical* formula hash: repeated
        #: obligations that differ only in fresh Sym names (every
        #: Commutes/Shadows query mints fresh point variables) are
        #: answered once.  Sound because validity is invariant under
        #: bijective renaming of variables.
        self.qcache = QueryCache()

    # -- public API --------------------------------------------------------

    def prove(self, formula) -> bool:
        """Is ``formula`` valid (true for all integer assignments)?"""
        self.stats["prove_calls"] += 1
        _SMT_STATS.prove_calls += 1
        key = formula
        if key in self._prove_cache:
            self.stats["cache_hits"] += 1
            _SMT_STATS.cache_hits += 1
            _SMT_STATS.record_prove(current_category(), cache_hit=True)
            return self._prove_cache[key]
        ckey = canonical_key(formula)
        cached = self.qcache.lookup(ckey)
        if cached is not None:
            self.stats["cache_hits"] += 1
            _SMT_STATS.cache_hits += 1
            _SMT_STATS.record_prove(current_category(), cache_hit=True)
            self._prove_cache[key] = cached
            return cached
        _SMT_STATS.cache_misses += 1
        _SMT_STATS.record_prove(current_category(), cache_hit=False)
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
        self.qcache.store(ckey, result)
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
        """``formula`` as the DNF enumeration reads it: ite-free, in NNF,
        universals eliminated, and the existential prefix stripped (free
        for satisfiability)."""
        f = self._elim_foralls(nnf(elim_ite(formula)))
        return _strip_exists(f)[0]

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
        for c in cons:
            for v, _coeff in c.expr.coeffs:
                if v not in aux and v not in vars_:
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
                pin = Constraint(LinExpr.var(v).add(LinExpr.constant(-c)), EQ)
                if feasible(cons + pins + [pin]):
                    model[v] = c
                    pins.append(pin)
                    break
        return model

    # -- quantifier elimination ---------------------------------------------
    #
    # Only universal quantifiers require genuine elimination: existential
    # binders are prenexed into the satisfiability check (``_strip_exists``
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
        body, extra = _strip_exists(body)
        qvars = list(qvars) + extra
        disjuncts = []
        for literals in dnf_stream(body, prune=self._conjunct_feasible):
            system = _linear_system(literals, "qe")
            if system is None:
                continue
            cons, bools, aux_vars = system
            elim = list(qvars) + aux_vars
            for out_cons in project(cons, elim):
                parts = [_constraint_to_formula(c) for c in out_cons] + bools
                disjuncts.append(S.conj(*parts))
        return S.disj(*disjuncts)

    # -- ground satisfiability ----------------------------------------------

    def _conjunct_feasible(self, literals) -> bool:
        self._check_deadline()
        key = frozenset(literals)
        cached = self._feas_cache.get(key)
        if cached is None:
            cached = self._feasible_rec(list(literals), 0)
            self._feas_cache[key] = cached
        return cached

    def _feasible_rec(self, literals, depth) -> bool:
        """Ground feasibility with Cooper-style residue splitting.

        Conjunctions rich in ``Mod``/``FloorDiv`` atoms (they arise from
        quantifier elimination over tiled loops) are decided by case-splitting
        a variable ``v`` under a divisor ``d`` as ``v = d*v' + r``; the smart
        constructors then fold the div/mod terms away.  Remaining purely
        linear conjunctions go to the Omega test.
        """
        self._check_deadline()
        split = self._choose_residue_split(literals) if depth < 8 else None
        if split is not None:
            v, d = split
            # literals without ``v`` pass to every branch as they are
            mentions = [v in S.free_vars(lit) for lit in literals]
            for r in range(d):
                fresh = S.Var(Sym(v.name))
                repl = S.add(S.scale(d, fresh), S.IntC(r))
                branch = [
                    S.substitute(lit, {v: repl}) if m else lit
                    for lit, m in zip(literals, mentions)
                ]
                branch = [b for b in branch if b != S.TRUE]
                if any(b == S.FALSE for b in branch):
                    continue
                if self._feasible_rec(branch, depth + 1):
                    return True
            return False
        return self._omega_feasible(literals)

    @staticmethod
    def _choose_residue_split(literals):
        """A (variable, divisor) pair occurring under Mod/FloorDiv, if any."""

        def scan(t):
            if isinstance(t, (S.Mod, S.FloorDiv)):
                for v in sorted(S.free_vars(t.arg), key=lambda s: s.id):
                    return v, t.divisor
            for c in S.children(t):
                found = scan(c)
                if found:
                    return found
            return None

        best = None
        for lit in literals:
            found = scan(lit)
            if found and found[1] <= 128:
                if best is None or found[1] < best[1]:
                    best = found
        return best

    def _omega_feasible(self, literals) -> bool:
        self.stats["omega_conjuncts"] += 1
        system = _linear_system(literals, "sat")
        return system is not None and feasible(system[0])


def _linear_system(literals, what=None):
    """A conjunct's literals as Omega constraints, from the
    :class:`~repro.smt.linear.Linearizer`'s rows: an ``EQ`` per ``==``
    atom, ``GEQ`` otherwise and for the quotients' defining rows.

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
                    rows.append((lz.diff(lit.lhs, lit.rhs), EQ))
                else:
                    rows.extend((r, GEQ) for r in lz.atom_cons(lit))
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
    rows.extend((r, GEQ) for r in lz.cons)
    cons = [Constraint(LinExpr.make(m, c), kind) for (c, m), kind in rows]
    return cons, bools, list(lz.quotients.values())


def _strip_exists(t):
    """Prenex existential binders out of an NNF, forall-free formula.

    Returns ``(formula, vars)``; the binders become free variables, each
    renamed apart first so that no two existentials (nor an existential and
    a free variable) are conflated."""
    if isinstance(t, S.Exists):
        fresh, body = S.open_binder(t)
        inner, vs = _strip_exists(body)
        return inner, list(fresh) + vs
    if isinstance(t, (S.And, S.Or)):
        parts = []
        vs = []
        for a in t.args:
            p, v = _strip_exists(a)
            parts.append(p)
            vs += v
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


#: A process-wide default solver (the cache is shared across checks).
DEFAULT_SOLVER = Solver()


def satisfiable(formula) -> bool:
    return DEFAULT_SOLVER.satisfiable(formula)
