"""Interval / affine-bounds abstract interpretation: the SMT fast path.

The §5 safety story discharges *every* obligation -- bounds, preconditions,
disjointness -- to the full LIA decision procedure, and compile profiles
show solver time dominating ``check_proc`` even with the canonical query
cache.  Yet the overwhelming majority of those goals are trivial affine
facts: ``0 <= 16*io + ii < n`` under ``0 <= io < n/16, 0 <= ii < 16``.

This module decides exactly that fragment, and bounded disjunctions of
it, with a capped Fourier-Motzkin refutation engine over linear integer
constraints:

* :func:`try_prove` -- can ``facts ⟹ goal`` be established by affine
  reasoning alone?  It only ever answers *proved* or *unknown*, never
  *disproved*, so callers fall through to the solver on unknown and no
  verdict can flip.  Soundness: the goal's negation, expanded into at
  most :data:`MAX_BRANCHES` conjunctive branches (:func:`_branches`), is
  conjoined branch by branch with the (weakened) context facts and
  refuted; infeasibility over the rationals (what FM decides, tightened
  with gcd normalization over the integers) implies integer
  infeasibility, which implies validity.

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

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Tuple

from ..core.prelude import Sym
from ..obs import smtstats as _smtstats
from ..obs import trace as _obs
from ..smt import terms as S
from ..smt.linear import NEGATED, Lin, Linearizer, NonAffine
from ..smt.solver import DEFAULT_SOLVER

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


def _normalize(c: int, m: Dict[Sym, int]) -> Lin:
    m = {k: v for k, v in m.items() if v}
    if m:
        g = 0
        for v in m.values():
            g = gcd(g, abs(v))
        if g > 1:
            # integer tightening: sum of g-divisible terms >= -c implies
            # the divided sum >= ceil(-c/g), i.e. const becomes floor(c/g)
            c = c // g
            m = {k: v // g for k, v in m.items()}
    return (c, m)


def _dedupe(cons: List[Lin]) -> List[Lin]:
    """Keep only the tightest (smallest-constant) row per coefficient set."""
    best: Dict[frozenset, Lin] = {}
    for c, m in cons:
        key = frozenset((k.id, v) for k, v in m.items())
        old = best.get(key)
        if old is None or c < old[0]:
            best[key] = (c, m)
    return list(best.values())


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


def refute(cons: List[Lin]) -> bool:
    """Is the conjunction of ``cons`` (each ``const + Σ coeff·var >= 0``)
    infeasible?  ``True`` is a proof of infeasibility (over the rationals,
    with gcd tightening -- hence also over the integers); ``False`` only
    means *could not refute within the caps*."""
    work: List[Lin] = []
    for c, m in cons:
        c, m = _normalize(c, dict(m))
        if not m:
            if c < 0:
                return True
            continue
        work.append((c, m))
    work = _dedupe(work)
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
        for cp, mp in pos_rows:
            a = mp[best_v]
            for cn, mn in neg_rows:
                b = -mn[best_v]
                c = b * cp + a * cn
                m: Dict[Sym, int] = {}
                for k, v in mp.items():
                    if k is not best_v:
                        m[k] = b * v
                for k, v in mn.items():
                    if k is not best_v:
                        m[k] = m.get(k, 0) + a * v
                c, m = _normalize(c, m)
                if abs(c) > MAX_COEF or any(abs(v) > MAX_COEF for v in m.values()):
                    return False
                if not m:
                    if c < 0:
                        return True
                    continue
                new.append((c, m))
        new = _dedupe(new)
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

    __slots__ = ("terms", "memo", "_parent", "_new", "_lin")

    def __init__(self, terms: tuple, parent: Optional["Facts"], new: tuple):
        self.terms = terms
        #: goal -> the fast path's answer under these facts
        self.memo: Dict[S.Term, bool] = {}
        self._parent = parent
        self._new = new
        self._lin = None

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


# ---------------------------------------------------------------------------
# Goal decomposition
# ---------------------------------------------------------------------------

def _branches(t: S.Term, positive: bool = False
              ) -> Optional[List[Tuple[S.Cmp, ...]]]:
    """``not t`` (or ``t`` when ``positive``) as a disjunction of
    conjunctive branches of comparisons, in negation normal form: a goal
    ``t`` is valid under the facts when the facts refute every branch.
    ``None`` (unknown) when the formula has a universal quantifier under
    positive polarity, a non-arithmetic atom, or more than
    :data:`MAX_BRANCHES` branches.

    Opening an existential under positive polarity is sound because each
    branch is only ever *refuted* together with the facts, and each
    binder is renamed apart first (:func:`~repro.smt.terms.open_binder`):
    the bound variables then occur nowhere else, so refuting the branch
    with them free refutes the existential."""
    if isinstance(t, S.BoolC):
        return [()] if t.val == positive else []
    if isinstance(t, S.Not):
        return _branches(t.arg, not positive)
    if isinstance(t, S.Cmp):
        if positive:
            return [(t,)]
        if t.op == "==":
            return [(S.Cmp(">", t.lhs, t.rhs),), (S.Cmp("<", t.lhs, t.rhs),)]
        return [(S.Cmp(NEGATED[t.op], t.lhs, t.rhs),)]
    if isinstance(t, (S.And, S.Or)):
        if isinstance(t, S.And) == positive:  # a conjunction: cross product
            out = [()]
            for a in t.args:
                part = _branches(a, positive)
                if part is None:
                    return None
                out = [b + c for b in out for c in part]
                if len(out) > MAX_BRANCHES:
                    return None
            return out
        out = []
        for a in t.args:
            part = _branches(a, positive)
            if part is None:
                return None
            out += part
            if len(out) > MAX_BRANCHES:
                return None
        return out
    if isinstance(t, (S.Exists, S.ForAll)):
        if isinstance(t, S.Exists) != positive:
            return None  # a universal: no conjunctive form
        return _branches(S.open_binder(t)[1], positive)
    return None  # boolean variables, if-then-else formulas


def _cone(context: List[Lin], goal_rows: List[Lin]) -> List[Lin]:
    """The context rows linked to the goal rows through chains of shared
    variables, plus the variable-free rows (a false fact)."""
    linked = set()
    for _c, m in goal_rows:
        linked.update(m)
    out: List[Lin] = []
    pending = context
    grew = True
    while grew:
        grew = False
        rest = []
        for row in pending:
            if not row[1] or not linked.isdisjoint(row[1]):
                out.append(row)
                linked.update(row[1])
                grew = True
            else:
                rest.append(row)
        pending = rest
    return out


def _refute_goal(context: List[Lin], goal_rows: List[Lin]) -> bool:
    """``refute(context + goal_rows)``, first on the goal's cone of
    influence only.  Rows sharing no variable with the goal (the bounds of
    unrelated loops, most assertions) cannot take part in refuting it
    unless the context alone is infeasible, which the full system, tried
    second, still catches.  Refuting a subset of the rows refutes the
    whole conjunction, so a proof found on the cone is sound; the cone
    only keeps the eliminations small."""
    cone = _cone(context, goal_rows)
    if len(cone) < len(context) and refute(cone + goal_rows):
        return True
    return refute(context + goal_rows)


def _decide(facts: Facts, goal: S.Term) -> bool:
    branches = _branches(goal)
    if branches is None:
        return False
    if not branches:
        return True
    _rows, _qrows, context, quotients = facts._linearized()
    for branch in branches:
        lz = Linearizer(quotients)
        try:
            rows = [r for atom in branch for r in lz.atom_cons(atom)]
        except NonAffine:
            return False
        if not _refute_goal(context + lz.cons, rows):
            return False
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
