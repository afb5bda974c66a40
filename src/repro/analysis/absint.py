"""Interval / affine-bounds abstract interpretation: the SMT fast path.

The §5 safety story discharges *every* obligation -- bounds, preconditions,
disjointness -- to the full LIA decision procedure, and compile profiles
show solver time dominating ``check_proc`` even with the canonical query
cache.  Yet the overwhelming majority of those goals are trivial affine
facts: ``0 <= 16*io + ii < n`` under ``0 <= io < n/16, 0 <= ii < 16``.

This module decides exactly that fragment, and bounded disjunctions of
it, with a capped Fourier-Motzkin refutation engine (:func:`refute`) over
the :class:`~repro.smt.linear.Linearizer`'s rows.  It is built from the
row operations of :mod:`repro.smt.linear` -- gcd tightening, the
tightest-row dedupe, unit-equality substitution, the pair step -- that
the solver's Omega test uses too; what is the fast path's own are the
caps (``MAX_*``), the elimination order (:func:`_elimination_var`) and
the verdict store:

* :func:`try_prove` -- can ``facts ⟹ goal`` be established by affine
  reasoning alone?  It only ever answers *proved* or *unknown*, never
  *disproved*, so callers fall through to the solver on unknown and no
  verdict can flip.  Soundness: the goal's negation, expanded into at
  most :data:`MAX_BRANCHES` conjunctive branches by the solver's own
  negation normal form and DNF (:func:`_branches`), is conjoined branch
  by branch with the (weakened) context facts and refuted; infeasibility
  over the rationals (what FM decides, tightened with gcd normalization
  over the integers) implies integer infeasibility, which implies
  validity.

* :class:`Facts` -- an obligation's context: the fact terms, their rows
  linearized once per scope of a walk (:meth:`Facts.push` adds a nested
  scope's facts), and a memo of the goals already decided under them.

* Quasi-affine ``/`` and ``%`` are purified by
  :class:`~repro.smt.linear.Linearizer` (the solver's converter too) into
  quotient pseudo-variables keyed by the *structural* ``FloorDiv`` term,
  so every occurrence of ``n / 16`` across facts and goal shares one
  variable and divisibility preconditions like ``n % 16 == 0`` connect
  to loop bounds like ``io < n / 16``.

* :func:`prove` is the single route by which a safety obligation reaches
  the solver: the fast path first, then ``DEFAULT_SOLVER.prove`` on
  fall-through, with ``analysis.absint.*`` obs counters (goals tried /
  discharged / fell-through, per originating check category) and the
  fall-through query tagged with the category via
  :func:`repro.obs.smtstats.query_category`.

On top of the same linear engine sits the **write-coverage box domain**
used by the sanitizers (:mod:`repro.analysis.sanitize`): sets of
per-dimension ``[lo, hi)`` interval boxes over buffer points, the abstract
counterpart of §5's ``Locs`` location sets.  :func:`write_boxes`
under-approximates the definitely-written footprint of an effect (dense,
unguarded, provably-executed writes only) and :func:`covers_reads` checks
read footprints against it without any SMT call.  Both box queries walk
the effect through :func:`repro.effects.effects.leaves`: a leaf's
enclosing loops are its box binders, an enclosing guard makes its write a
maybe-write.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from ..core.prelude import InternalError, Sym
from ..obs import smtstats as _smtstats
from ..obs import trace as _obs
from ..smt import linear as L
from ..smt import terms as S
from ..smt.linear import Lin, Linearizer, NonAffine
from ..smt.solver import DEFAULT_SOLVER, dnf_stream, nnf, strip_exists

#: give-up thresholds keeping the fast path strictly cheap: anything larger
#: falls through to the solver rather than risking FM's worst case
MAX_VARS = 24
MAX_CONS = 192
MAX_COMBOS = 96
MAX_COEF = 10**15
#: the most conjunctive branches a negated goal may expand into
MAX_BRANCHES = 16


# ---------------------------------------------------------------------------
# Capped Fourier-Motzkin refutation
# ---------------------------------------------------------------------------


def _overflows(row: Lin) -> bool:
    """Does ``row`` hold a number beyond :data:`MAX_COEF`?"""
    c, m = row
    return abs(c) > MAX_COEF or any(abs(v) > MAX_COEF for v in m.values())


def _elimination_var(work: List[Lin], vars_) -> Tuple[Sym, int]:
    """The variable to eliminate next and its cost: the fewest pos*neg
    pairings, ties to the lowest ``Sym`` id.  (``vars_`` is a set, ordered
    by object address; the caps make the outcome depend on the order, so
    the choice must not.)  Rows are normalized: every stored coefficient
    is nonzero."""
    pos: Dict[Sym, int] = {}
    neg: Dict[Sym, int] = {}
    for _c, m in work:
        for k, a in m.items():
            side = pos if a > 0 else neg
            side[k] = side.get(k, 0) + 1
    return min(
        ((v, pos.get(v, 0) * neg.get(v, 0)) for v in vars_),
        key=lambda vc: (vc[1], vc[0].id),
    )


def _unit_equality(work: List[Lin]) -> Optional[Tuple[Lin, Sym]]:
    """The first row ``e`` of ``work`` (in order) whose negation ``-e`` is
    also a row -- together they assert ``e == 0`` -- and that has a ``±1``
    coefficient, with its unit variable of lowest ``Sym`` id; ``None``
    when there is none.  Rows are deduplicated: one row per coefficient
    set, so the negation is found by its coefficients alone."""
    const = {frozenset(m.items()): c for c, m in work}
    for c, m in work:
        units = [k for k, v in m.items() if v == 1 or v == -1]
        if units and const.get(frozenset((k, -v) for k, v in m.items())) == -c:
            return (c, m), min(units, key=lambda k: k.id)
    return None


def _substitute(work: List[Lin], eq: Lin, x: Sym) -> Optional[List[Lin]]:
    """``work`` with ``x`` substituted out by the unit equality ``eq == 0``
    (:func:`~repro.smt.linear.substitute`); ``eq`` and its negation become
    ``0 >= 0``.  ``None`` when a produced coefficient exceeds
    :data:`MAX_COEF`."""
    out: List[Lin] = []
    for row in work:
        new = L.substitute(row, eq, x)
        if new is not row and _overflows(new):
            return None
        out.append(new)
    return out


#: the open search-scoped verdict store (see :func:`verdict_store`)
_store: Optional[Dict[tuple, bool]] = None
_ID = attrgetter("id")


@contextmanager
def verdict_store():
    """Open a canonical store of :func:`refute` verdicts for the extent of
    the ``with`` block; a nested open reuses the outer store.  Each row
    system is keyed by :func:`_rank_key`, so a system posed again under
    fresh ``Sym`` ids -- a search's candidates re-derive their parent's
    obligations -- is refuted once.  The store is dropped on exit: it
    never outlives the block that opened it."""
    global _store
    if _store is not None:
        yield _store
        return
    _store = {}
    try:
        yield _store
    finally:
        _store = None


def _rank_key(cons: List[Lin]) -> tuple:
    """The rows of ``cons`` in order, each as its constant, the ranks of
    its variables among the system's ``Sym`` ids, and its coefficients,
    in the row's own variable order.  The key is exact: :func:`_refute`
    sees variable identity only through lowest-id choices
    (:func:`_elimination_var`, :func:`_unit_equality`), which the ranks
    preserve, and it keeps row order, which can decide between a cap and
    a contradiction within one elimination round."""
    syms = set()
    for _c, m in cons:
        syms.update(m)
    rank = {k: r for r, k in enumerate(sorted(syms, key=_ID))}.__getitem__
    return tuple((c, tuple(map(rank, m)), tuple(m.values())) for c, m in cons)


def refute(cons: List[Lin]) -> bool:
    """Is the conjunction of ``cons`` (each ``const + Σ coeff·var >= 0``)
    infeasible?  ``True`` is a proof of infeasibility (over the rationals,
    with gcd tightening -- hence also over the integers); ``False`` only
    means *could not refute within the caps*.  While a
    :func:`verdict_store` is open, each system's verdict is looked up
    there first and stored after."""
    store = _store
    if store is None:
        return _refute(cons)
    key = _rank_key(cons)
    ok = store.get(key)
    if ok is None:
        _obs.incr("analysis.absint.store.miss")
        ok = store[key] = _refute(cons)
    else:
        _obs.incr("analysis.absint.store.hit")
    return ok


def _refute(cons: List[Lin]) -> bool:
    """:func:`refute` itself.  Capped Fourier-Motzkin first; when that
    does not refute the rows, the Omega test's equality step substitutes
    out each unit equality (:func:`_unit_equality`) and Fourier-Motzkin
    runs again on the smaller system.  The substitution is exact over the
    integers and catches divisibility (``N % 16 == 0`` gives
    ``N = 16*q``, so ``N % 8 != 0`` has no integer solution); running it
    second keeps every system Fourier-Motzkin already refutes as cheap,
    and as refuted, as before."""
    work = _rows(cons)
    if work is None:
        return True
    if _eliminate(work):
        return True
    eq = _unit_equality(work)
    if eq is None:
        return False
    while eq is not None:
        work = _substitute(work, *eq)
        if work is None:
            return False
        work = _rows(work)
        if work is None:
            return True
        eq = _unit_equality(work)
    return _eliminate(work)


def _rows(cons: List[Lin]) -> Optional[List[Lin]]:
    """``cons`` normalized and deduplicated, without the rows that hold
    trivially (``c >= 0``); ``None`` when one fails trivially."""
    work: List[Lin] = []
    for c, m in cons:
        c, m = L.normalize(c, m)
        if not m:
            if c < 0:
                return None
            continue
        work.append((c, m))
    return L.dedupe(work)


def _eliminate(work: List[Lin]) -> bool:
    """Capped Fourier-Motzkin elimination over normalized rows: ``True``
    when it derives a contradiction."""
    vars_ = set()
    for _c, m in work:
        vars_.update(m)
    if len(vars_) > MAX_VARS:
        return False
    while vars_:
        best_v, best_cost = _elimination_var(work, vars_)
        if best_cost > MAX_COMBOS:
            return False
        keep, pos_rows, neg_rows = [], [], []
        for c, m in work:
            a = m.get(best_v, 0)
            (pos_rows if a > 0 else neg_rows if a < 0 else keep).append((c, m))
        new = keep
        for pos in pos_rows:
            for neg in neg_rows:
                row = L.combine(pos, neg, best_v)
                if _overflows(row):
                    return False
                if not row[1]:
                    if row[0] < 0:
                        return True
                    continue
                new.append(row)
        new = L.dedupe(new)
        if len(new) > MAX_CONS:
            return False
        work = new
        vars_ = set()
        for _c, m in work:
            vars_.update(m)
    return False


# ---------------------------------------------------------------------------
# Fact contexts
# ---------------------------------------------------------------------------


def _collect_facts(assumptions, out: List[Lin], lz: Linearizer):
    """Flatten context facts into GEQ constraints, dropping anything outside
    the affine fragment.  Dropping facts only *weakens* the context, which
    is sound for proving."""
    for f in assumptions:
        _collect_fact(f, out, lz)


def _collect_fact(f: S.Term, out: List[Lin], lz: Linearizer):
    if f == S.TRUE:
        return
    if f == S.FALSE:
        out.append((-1, {}))  # vacuous context: everything is provable
        return
    if isinstance(f, S.And):
        for a in f.args:
            _collect_fact(a, out, lz)
        return
    if isinstance(f, S.Cmp):
        try:
            out.extend(lz.atom_cons(f))
        except NonAffine:
            pass
        return
    if isinstance(f, S.Not) and isinstance(f.arg, S.Cmp):
        try:
            out.extend(lz.neg_atom_cons(f.arg))
        except NonAffine:
            pass
        return
    # Or, quantifiers, boolean variables: drop (weakening)


class Facts:
    """The facts an obligation assumes, linearized once for every goal
    posed under them.

    A ``Facts`` is immutable.  :attr:`terms` are the fact terms, in order:
    the solver fallback and counterexample searches take them (a
    ``Facts`` iterates over them, so ``S.conj(*facts)`` works).  The fast
    path takes their rows: the affine facts as GEQ constraints, then the
    defining rows of the divisions they purify, built on the first goal
    and shared by every later one.  :meth:`push` opens a nested scope --
    a loop body's iteration bounds, a branch's condition -- whose rows
    extend its parent's, so each fact is linearized once per walk.
    :attr:`memo` maps each goal already asked under these facts to the
    fast path's answer: the same access or condition checked twice in one
    scope is refuted once."""

    __slots__ = ("terms", "memo", "_parent", "_new", "_lin", "_rows_of",
                 "_void")

    def __init__(self, terms: tuple, parent: Optional["Facts"], new: tuple):
        self.terms = terms
        #: goal -> the fast path's answer under these facts
        self.memo: Dict[S.Term, bool] = {}
        self._parent = parent
        self._new = new
        self._lin = None
        #: the context rows' :func:`_index`, built for the first goal
        self._rows_of = None
        #: are the context rows infeasible on their own (None: not asked)
        self._void = None

    @classmethod
    def of(cls, terms) -> "Facts":
        """A root context holding ``terms``."""
        terms = tuple(terms)
        return cls(terms, None, terms)

    def push(self, terms) -> "Facts":
        """The context of a nested scope: these facts, then ``terms``."""
        new = tuple(terms)
        return Facts(self.terms + new, self, new)

    def __iter__(self):
        return iter(self.terms)

    def __eq__(self, other):
        return isinstance(other, Facts) and self.terms == other.terms

    def __repr__(self):
        return f"Facts({list(self.terms)!r})"

    def _linearized(self):
        """``(rows, qrows, context, quotients)``: the fact rows, the
        quotients' defining rows, the two concatenated (the context every
        goal is refuted against), and the division -> quotient map a
        goal's converter starts from.  Built on first use from the
        parent's, linearizing only this scope's own facts."""
        lin = self._lin
        if lin is None:
            if self._parent is None:
                rows, qrows, quotients = [], [], None
            else:
                rows, qrows, _context, quotients = self._parent._linearized()
            lz = Linearizer(quotients)
            rows = list(rows)
            _collect_facts(self._new, rows, lz)
            qrows = qrows + lz.cons
            lin = self._lin = (rows, qrows, rows + qrows, lz.quotients)
        return lin

    def _infeasible(self) -> bool:
        """Do the context rows refute themselves?  Decided once per
        scope, for the first goal whose cone they do not refute."""
        if self._void is None:
            context = self._linearized()[2]
            self._void = bool(context) and refute(context)
        return self._void


# ---------------------------------------------------------------------------
# Goal decomposition
# ---------------------------------------------------------------------------

def _branches(goal: S.Term) -> Optional[List[Tuple[S.Cmp, ...]]]:
    """``not goal`` as a disjunction of conjunctive branches of comparisons:
    ``goal`` is valid under the facts when the facts refute every branch.
    The solver's own route: negation normal form (:func:`nnf`), the
    existentials opened (:func:`strip_exists`), then the DNF's conjuncts
    (:func:`dnf_stream`).  ``None`` (unknown) when a literal is not a
    comparison -- a universal left under positive polarity, a boolean
    variable -- or when there are more than :data:`MAX_BRANCHES`.

    Opening an existential is sound because each branch is only ever
    *refuted* together with the facts, and each binder is renamed apart
    first (:func:`~repro.smt.terms.open_binder`): the bound variables then
    occur nowhere else, so refuting the branch with them free refutes the
    existential."""
    try:
        negated = strip_exists(nnf(goal, positive=False))[0]
    except InternalError:
        return None  # not a formula nnf knows (an if-then-else formula)
    out = []
    for literals in dnf_stream(negated):
        if len(out) == MAX_BRANCHES or not all(
            isinstance(lit, S.Cmp) for lit in literals
        ):
            return None
        out.append(tuple(literals))
    return out


def _index(rows: List[Lin], start: int = 0) -> Dict[Optional[Sym], List[int]]:
    """Each variable's row positions in ``rows``, counted from ``start``;
    the variable-free rows are under ``None``."""
    rows_of: Dict[Optional[Sym], List[int]] = {}
    for i, (_c, m) in enumerate(rows, start):
        for v in m or (None,):
            rows_of.setdefault(v, []).append(i)
    return rows_of


def _cone(context: List[Lin], goal_rows: List[Lin], rows_of=None,
          extra: List[Lin] = ()) -> List[Lin]:
    """The rows of ``context + extra`` linked to the goal rows through
    chains of shared variables, plus the variable-free rows (a false
    fact), found from ``rows_of``, the :func:`_index` of ``context``.

    They come in the order of sweeps over the remaining rows until one
    adds none, which the store key and the FM caps see: a row reached
    from one that joined at ``(sweep, j)`` joins at ``(sweep, i)`` when
    its position ``i > j``, else at ``(sweep + 1, i)``."""
    if rows_of is None:
        rows_of = _index(context)
    rows = context
    if extra:
        rows = context + list(extra)
        rows_of = dict(rows_of)
        for v, more in _index(extra, len(context)).items():
            rows_of[v] = rows_of.get(v, []) + more
    # (sweep, position) of each row reached: the variable-free rows and
    # those holding a goal variable join in the first sweep
    heap = [(1, i) for i in rows_of.get(None, ())]
    linked = set()
    for _c, m in goal_rows:
        for v in m:
            if v not in linked:
                linked.add(v)
                heap += [(1, i) for i in rows_of.get(v, ())]
    heapify(heap)
    out: List[Lin] = []
    joined = set()
    while heap:
        sweep, j = heappop(heap)
        if j in joined:
            continue
        joined.add(j)
        row = rows[j]
        out.append(row)
        for v in row[1]:
            if v not in linked:
                linked.add(v)
                for i in rows_of.get(v, ()):
                    if i not in joined:
                        heappush(heap, (sweep if i > j else sweep + 1, i))
    return out


def _refute_goal(context: List[Lin], goal_rows: List[Lin], rows_of=None,
                 extra: List[Lin] = ()) -> bool:
    """``refute(context + extra + goal_rows)`` on the goal's cone of
    influence only (:func:`_cone`).  Rows sharing no variable with the
    goal (the bounds of unrelated loops, most assertions) take part in no
    refutation of it but one of the context alone, which
    :meth:`Facts._infeasible` decides once per scope.  Refuting a subset
    of the rows refutes the whole conjunction, so a proof found on the
    cone is sound; the cone only keeps the eliminations small.  A cone of
    every row keeps their order."""
    cone = _cone(context, goal_rows, rows_of, extra)
    if len(cone) == len(context) + len(extra):
        cone = context + list(extra)
    return refute(cone + goal_rows)


def _decide(facts: Facts, goal: S.Term) -> bool:
    branches = _branches(goal)
    if branches is None:
        return False
    if not branches:
        return True
    _rows, _qrows, context, quotients = facts._linearized()
    if facts._rows_of is None:
        facts._rows_of = _index(context)
    for branch in branches:
        lz = Linearizer(quotients)
        try:
            rows = [r for atom in branch for r in lz.atom_cons(atom)]
        except NonAffine:
            return False
        if not _refute_goal(context, rows, facts._rows_of, lz.cons):
            # a context infeasible on its own proves every goal
            return facts._infeasible()
    return True


def try_prove(facts: Facts, goal: S.Term) -> bool:
    """Can affine reasoning alone establish ``facts ⟹ goal``?

    Only ever answers ``True`` (proved) or ``False`` (unknown) -- it never
    claims a goal false, so callers can always fall through to the full
    solver on ``False``.  The answer is remembered in ``facts.memo``."""
    memo = facts.memo
    try:
        ok = memo.get(goal)
        if ok is None:
            ok = memo[goal] = _decide(facts, goal)
    except RecursionError:
        return False
    return ok


# ---------------------------------------------------------------------------
# The fast-path prove wrapper
# ---------------------------------------------------------------------------


def _count(event: str, category: str):
    _obs.incr(f"analysis.absint.{event}")
    _obs.incr(f"analysis.absint.{category}.{event}")


def prove(facts: Facts, goal: S.Term, category: str) -> bool:
    """Discharge ``facts ⟹ goal``: the interval fast path first, then
    :data:`~repro.smt.solver.DEFAULT_SOLVER` (with its canonical verdict
    cache) on fall-through.  This is the one route by which every safety
    obligation -- bounds, assert, parallel, rewrite, sanitize, dataflow --
    reaches the solver; ``category`` tags the ``analysis.absint.*``
    counters and, via :func:`repro.obs.smtstats.query_category`, the
    solver queries."""
    _count("tried", category)
    with _obs.span("analysis.absint"):
        ok = try_prove(facts, goal)
    if ok:
        _count("discharged", category)
        return True
    _count("fellthrough", category)
    with _smtstats.query_category(category):
        return DEFAULT_SOLVER.prove(S.implies(S.conj(*facts), goal))


# ---------------------------------------------------------------------------
# Write-coverage interval boxes (the sanitizers' fast path)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """A rectangular set of buffer points: per-dimension ``[lo, hi)`` bounds
    as SMT terms.  Rank 0 (scalars) is the single-point box ``()``."""

    lo: Tuple[S.Term, ...]
    hi: Tuple[S.Term, ...]


def _binder_split(t: S.Term, bsyms) -> Optional[Tuple[Dict[Sym, int], S.Term]]:
    """Split ``t`` into ``Σ c_b·b + rest`` over the binder syms; ``rest`` is
    binder-free.  ``None`` when ``t`` is non-affine in some binder."""
    if not (S.free_vars(t) & bsyms):
        return {}, t
    if isinstance(t, S.Var):
        return ({t.sym: 1}, S.IntC(0)) if t.sym in bsyms else ({}, t)
    if isinstance(t, S.Add):
        coeffs: Dict[Sym, int] = {}
        rest = []
        for a in t.args:
            split = _binder_split(a, bsyms)
            if split is None:
                return None
            ca, ra = split
            for k, v in ca.items():
                coeffs[k] = coeffs.get(k, 0) + v
            rest.append(ra)
        return coeffs, S.add(*rest) if rest else S.IntC(0)
    if isinstance(t, S.Scale):
        split = _binder_split(t.arg, bsyms)
        if split is None:
            return None
        ca, ra = split
        return {k: v * t.coeff for k, v in ca.items()}, S.scale(t.coeff, ra)
    return None  # FloorDiv / Mod / Ite over a binder: non-affine


def _nest_box(idx, binders, dense: bool = False) -> Optional[Box]:
    """The box ``buf[idx]`` spans while each binder ``(sym, lo, hi)``
    (outermost first) ranges over ``[lo, hi)``, or ``None`` when the nest
    is not rectangular (a binder's bounds mention another binder) or an
    index is non-affine in the binders.

    ``dense`` asks for a box the accesses *fill*, not just one containing
    them: a binder may feed at most one dimension (otherwise only a
    diagonal is written), and per dimension the binders sorted by
    ascending \\|coeff\\| must satisfy ``|c_0| = 1`` and
    ``|c_k| <= reach_{k-1} + 1`` where ``reach`` accumulates
    ``|c|*(extent-1)`` -- every intermediate extent must be a literal."""
    bsyms = {b for b, _lo, _hi in binders}
    bounds = {b: (lo, hi) for b, lo, hi in binders}
    for b, lo, hi in binders:
        if (S.free_vars(lo) | S.free_vars(hi)) & (bsyms - {b}):
            # bounds may reference *outer* binders only if unused below;
            # conservatively require full independence
            return None
    used = set()
    los, his = [], []
    for t in idx:
        split = _binder_split(t, bsyms)
        if split is None:
            return None
        coeffs, rest = split
        terms = [(b, c) for b, c in coeffs.items() if c]
        if dense:
            fed = {b for b, _c in terms}
            if used & fed:
                return None  # same binder in two dims: diagonal footprint
            used |= fed
            terms.sort(key=lambda bc: abs(bc[1]))
            reach = 0
            for i, (b, c) in enumerate(terms):
                if abs(c) > reach + 1:
                    return None  # stride gap: footprint has holes
                if i + 1 < len(terms):
                    lo_b, hi_b = bounds[b]
                    extent = S.sub(hi_b, lo_b)
                    if not isinstance(extent, S.IntC) or extent.val < 1:
                        return None
                    reach += abs(c) * (extent.val - 1)
        lo_t, hi_t = rest, rest
        for b, c in terms:
            lo_b, hi_b = bounds[b]
            top = S.sub(hi_b, S.IntC(1))
            if c > 0:
                lo_t = S.add(lo_t, S.scale(c, lo_b))
                hi_t = S.add(hi_t, S.scale(c, top))
            else:
                lo_t = S.add(lo_t, S.scale(c, top))
                hi_t = S.add(hi_t, S.scale(c, lo_b))
        los.append(lo_t)
        his.append(S.add(hi_t, S.IntC(1)))
    return Box(tuple(los), tuple(his))


def _dense_box(idx, binders, assumptions) -> Optional[Box]:
    """The box covered by a write ``buf[idx]`` iterated over ``binders``
    (see :func:`_nest_box` with ``dense``), or ``None`` when density
    cannot be established -- which includes a binder's loop that does not
    provably run."""
    box = _nest_box(idx, binders, dense=True)
    if box is None or not all(
        try_prove(assumptions, S.lt(lo, hi)) for _b, lo, hi in binders
    ):
        return None
    return box


def write_boxes(eff, root: Sym, assumptions) -> List[Box]:
    """Boxes provably *covered* by the definite writes of ``root`` in
    ``eff`` -- the under-approximating abstraction of §5's write location
    sets.  Guarded writes contribute nothing; loop writes count only when
    dense and provably executed (see :func:`_dense_box`)."""
    from ..effects import effects as E

    out: List[Box] = []
    for leaf, ctx in E.leaves(eff):
        if isinstance(leaf, E.EWrite) and leaf.buf is root:
            guards, loops = E.split_ctx(ctx)
            if guards:
                continue
            binders = [(n.iter, n.lo, n.hi) for n in loops]
            box = _dense_box(leaf.idx, binders, assumptions)
            if box is not None:
                out.append(box)
    return out


def access_boxes(eff, root: Sym, kinds: str = "r+") -> Optional[List[Box]]:
    """One box *containing* each read/reduce leaf of ``root`` in ``eff``
    (over-approximate: guards are ignored, loop binders range over their
    full bounds).  ``None`` when any access resists affine bounding."""
    from ..effects import effects as E

    leaf_types = tuple(E._LEAF[k] for k in kinds)
    out: List[Box] = []
    for leaf, ctx in E.leaves(eff):
        if isinstance(leaf, leaf_types) and leaf.buf is root:
            loops = E.split_ctx(ctx)[1]
            box = _nest_box(leaf.idx, [(n.iter, n.lo, n.hi) for n in loops])
            if box is None:
                return None
            out.append(box)
    return out


def box_covers(assumptions, cover: Box, target: Box) -> bool:
    """Does ``cover`` provably contain ``target`` (per-dimension bound
    comparisons, decided by the affine engine)?"""
    if len(cover.lo) != len(target.lo):
        return False
    goal = S.conj(
        *[
            S.conj(S.le(cl, tl), S.le(th, ch))
            for cl, ch, tl, th in zip(cover.lo, cover.hi, target.lo, target.hi)
        ]
    )
    return try_prove(assumptions, goal)


def covers_reads(assumptions, read_eff, root: Sym, cover_boxes, category="sanitize"):
    """Sanitizer fast path: is every read/reduce of ``root`` in ``read_eff``
    contained in some box of ``cover_boxes``?  Counts toward the
    ``analysis.absint.*`` counters like :func:`prove`'s fast path; a
    ``False`` only means the box domain could not decide it."""
    _count("tried", category)
    with _obs.span("analysis.absint"):
        targets = access_boxes(read_eff, root)
        ok = targets is not None and all(
            any(box_covers(assumptions, c, t) for c in cover_boxes)
            for t in targets
        )
    if ok:
        _count("discharged", category)
        return True
    _count("fellthrough", category)
    return False
