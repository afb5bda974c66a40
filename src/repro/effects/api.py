"""Safety conditions for scheduling rewrites (§5.7, §5.8, §6.2).

Each function checks one rewrite's obligations and raises
:class:`SchedulingError` with a human-readable explanation when a condition
cannot be proven.  All obligations are validity queries over LIA, assembled
from effect-membership formulas under the procedure's assumptions and the
control-flow facts of the rewrite's context (``CtrlPred``), with the
configuration dataflow (``PreValG``) substituted in.

Two refinements beyond plain ``Commutes`` / ``Shadows`` realize the paper's
ternary D/M reasoning about configuration:

* the **no-op write** exception: a config write whose value provably equals
  the current dataflow value commutes with anything (this is what lets
  redundant ``config_ld`` writes be eliminated);
* the **stable write** exception used by loop fission: a definite,
  unguarded, iteration-independent config write in the first block may move
  past config *reads* in the second block, because every iteration's read
  observes the same written value either way.
"""

from __future__ import annotations

from ..analysis.absint import Facts, prove
from ..core import ast as IR
from ..core.dataflow import GlobalState, state_before
from ..obs import trace as _obs
from ..core.prelude import SchedulingError, Sym
from ..smt import terms as S
from .effects import (
    EffectExtractor,
    buffers_of,
    eff_subst,
    global_writes,
    globals_of,
    gmem,
    gmem_exposed,
    mem,
    rename_iter,
)

def fresh_point(rank: int):
    """A point of ``rank`` fresh integer variables, for membership queries."""
    return [S.Var(Sym(f"p{d}")) for d in range(rank)]


class Ctx:
    """The contextual data for an obligation at a statement (§6.1): the
    :class:`~repro.analysis.absint.Facts` a walk holds there -- the
    procedure's assumptions, then the enclosing control facts
    (``CtrlPred``) -- which are the obligation's ``assumptions``, and the
    config state (``PreValG``) and type environment before the statement.
    A walk that visits the statement builds one from what it holds;
    :meth:`at` walks to it.  An obligation over a second iteration (the
    fission and reorder checks) pushes its iteration bounds as a nested
    scope of ``assumptions``."""

    def __init__(self, facts: Facts, state: GlobalState, tenv):
        self.assumptions = facts
        self.state = state
        self.tenv = tenv

    @classmethod
    def at(cls, proc: IR.Proc, path) -> "Ctx":
        with _obs.span("effects.context"):
            return cls(*state_before(proc, path))

    def extractor(self) -> EffectExtractor:
        return EffectExtractor(self.tenv.copy(), self.state.copy())


# ---------------------------------------------------------------------------
# Commutes (Definition 5.6)
# ---------------------------------------------------------------------------


def _commutes_buffers(assumptions, a1, a2, what):
    errors = []
    bufs1, bufs2 = buffers_of(a1), buffers_of(a2)
    for root, rank in bufs1.items():
        if root not in bufs2:
            continue
        p = fresh_point(rank)
        pairs = [
            (mem(a1, "w", root, p), mem(a2, "rw+", root, p), "write/any"),
            (mem(a2, "w", root, p), mem(a1, "rw+", root, p), "any/write"),
            (mem(a1, "+", root, p), mem(a2, "r", root, p), "reduce/read"),
            (mem(a2, "+", root, p), mem(a1, "r", root, p), "read/reduce"),
        ]
        for f1, f2, kind in pairs:
            if f1 == S.FALSE or f2 == S.FALSE:
                continue
            if not prove(assumptions, S.negate(S.conj(f1, f2)), "rewrite"):
                errors.append(
                    f"{what}: cannot prove {kind} accesses to {root} disjoint"
                )
    return errors


def _noop_write(assumptions, eff, g, gamma: GlobalState) -> bool:
    """Are all writes of global ``g`` in ``eff`` provably no-ops?"""
    writes = global_writes(eff, g)
    if not writes:
        return True
    current = gamma.get(g)
    for _guards, loops, value in writes:
        if value is None:
            return False
        if not prove(assumptions, S.eq(value, current), "rewrite"):
            return False
    return True


def _stable_write(assumptions, eff, g, iter_syms=()) -> bool:
    """Does ``eff`` definitely write ``g`` with one iteration-independent
    value on every path (no guards, no enclosing loops within the effect,
    and no dependence on the fissioned iterators)?"""
    writes = global_writes(eff, g)
    if not writes:
        return False
    v0 = None
    for guards, loops, value in writes:
        if guards or loops or value is None:
            return False
        if any(it in S.free_vars(value) for it in iter_syms):
            return False
        if v0 is None:
            v0 = value
        elif not prove(assumptions, S.eq(value, v0), "rewrite"):
            return False
    return True


def _commutes_globals(
    assumptions, a1, a2, gamma, what, fission_pair=None
):
    """Conflict obligations for config state, with the two exceptions.

    ``fission_pair``: when checking the fission condition, (iter, iter')
    such that a2 has been renamed to iter' -- enables the stable-write
    exception (see module docstring)."""
    errors = []
    g1, g2 = globals_of(a1), globals_of(a2)
    for g in g1:
        if g not in g2:
            continue
        w1 = gmem(a1, "w", g)
        w2 = gmem(a2, "w", g)
        r1 = gmem(a1, "r", g)
        r2 = gmem(a2, "r", g)
        conflict = S.disj(S.conj(w1, S.disj(r2, w2)), S.conj(w2, S.disj(r1, w1)))
        if conflict == S.FALSE:
            continue
        if prove(assumptions, S.negate(conflict), "rewrite"):
            continue
        # exception 1: all writes on both sides are no-ops w.r.t. dataflow
        if _noop_write(assumptions, a1, g, gamma) and _noop_write(
            assumptions, a2, g, gamma
        ):
            continue
        # exception 2 (fission): stable write in a1, only reads in a2
        if fission_pair is not None:
            if (
                _stable_write(assumptions, a1, g, iter_syms=fission_pair)
                and gmem(a2, "w", g) == S.FALSE
            ):
                continue
        errors.append(f"{what}: config field {g} is written and used by both sides")
    return errors


def check_commutes(ctx: Ctx, a1, a2, what="reorder", fission_pair=None):
    with _obs.span("effects.commutes"):
        errors = _commutes_buffers(ctx.assumptions, a1, a2, what)
        errors += _commutes_globals(
            ctx.assumptions, a1, a2, ctx.state, what, fission_pair
        )
    if errors:
        raise SchedulingError("\n".join(errors))


# ---------------------------------------------------------------------------
# Rewrite-specific conditions
# ---------------------------------------------------------------------------


def check_reorder_stmts(proc: IR.Proc, path, n1: int, n2: int):
    """Safety of swapping two adjacent statement blocks."""
    ctx = Ctx.at(proc, path)
    fld, idx = path[-1]
    container_block = IR.block_at(proc, path)
    ex = ctx.extractor()
    a1 = ex.block_effect(container_block[idx : idx + n1])
    a2 = ex.block_effect(container_block[idx + n1 : idx + n1 + n2])
    check_commutes(ctx, a1, a2, "reorder_stmts")


def check_fission(proc: IR.Proc, loop_path, split_idx: int, what="fission"):
    """§5.8 loop fission: iterations moved past each other must commute."""
    loop = IR.get_stmt(proc, loop_path)
    if not isinstance(loop, IR.For):
        raise SchedulingError(f"{what}: not a loop")
    ctx = Ctx.at(proc, loop_path)
    x = loop.iter
    ex = ctx.extractor()
    lo = ex._ctrl(loop.lo)
    hi = ex._ctrl(loop.hi)
    # stabilize config state across iterations, then extract both halves
    # sequentially (so a2 sees the dataflow established by a1)
    body_ex = ex.loop_body(loop.body)
    a1 = body_ex.block_effect(loop.body[:split_idx])
    a2 = body_ex.block_effect(loop.body[split_idx:])
    x2 = x.copy()
    a2r = rename_iter(a2, x, x2)
    bound = [
        S.le(lo, S.Var(x)),
        S.lt(S.Var(x), hi),
        S.le(lo, S.Var(x2)),
        S.lt(S.Var(x2), hi),
        S.lt(S.Var(x2), S.Var(x)),
    ]
    ctx2 = Ctx(ctx.assumptions.push(bound), ctx.state, ctx.tenv)
    check_commutes(ctx2, a1, a2r, what, fission_pair=(x, x2))


def check_reorder_loops(proc: IR.Proc, outer_path):
    """§5.8 loop reordering for a perfectly nested pair."""
    outer = IR.get_stmt(proc, outer_path)
    if not (
        isinstance(outer, IR.For)
        and len(outer.body) == 1
        and isinstance(outer.body[0], IR.For)
    ):
        raise SchedulingError("reorder: requires two perfectly nested loops")
    inner = outer.body[0]
    ctx = Ctx.at(proc, outer_path)
    ex = ctx.extractor()
    lo1, hi1 = ex._ctrl(outer.lo), ex._ctrl(outer.hi)
    x = outer.iter
    # the inner loop's bounds must be independent of the outer iterator
    lo2, hi2 = ex._ctrl(inner.lo), ex._ctrl(inner.hi)
    if x in S.free_vars(lo2) | S.free_vars(hi2):
        raise SchedulingError(
            "reorder: inner loop bounds depend on the outer iterator "
            "(non-rectangular loop nest)"
        )
    y = inner.iter
    a = ex.loop_body(inner.body).block_effect(inner.body)
    x2, y2 = x.copy(), y.copy()
    a2 = eff_subst(a, {x: S.Var(x2), y: S.Var(y2)})
    bound = [
        S.le(lo1, S.Var(x)), S.lt(S.Var(x), hi1),
        S.le(lo1, S.Var(x2)), S.lt(S.Var(x2), hi1),
        S.le(lo2, S.Var(y)), S.lt(S.Var(y), hi2),
        S.le(lo2, S.Var(y2)), S.lt(S.Var(y2), hi2),
        S.lt(S.Var(x), S.Var(x2)),
        S.lt(S.Var(y2), S.Var(y)),
    ]
    ctx2 = Ctx(ctx.assumptions.push(bound), ctx.state, ctx.tenv)
    check_commutes(ctx2, a, a2, "reorder")


def check_remove_loop(proc: IR.Proc, loop_path):
    """§5.8 loop removal: trip count >= 1 and an idempotent body."""
    loop = IR.get_stmt(proc, loop_path)
    ctx = Ctx.at(proc, loop_path)
    ex = ctx.extractor()
    lo, hi = ex._ctrl(loop.lo), ex._ctrl(loop.hi)
    if loop.iter in IR.free_vars(loop.body):
        raise SchedulingError(
            f"remove_loop: iterator {loop.iter} is used in the loop body"
        )
    if not prove(ctx.assumptions, S.lt(lo, hi), "rewrite"):
        raise SchedulingError(
            "remove_loop: cannot prove the loop runs at least one iteration"
        )
    a = ex.block_effect(loop.body)
    check_shadows(ctx, a, a, "remove_loop (idempotency)")


def check_shadows(ctx: Ctx, a1, a2, what="shadow"):
    """Definition 5.7: everything a1 modifies, a2 overwrites without reading."""
    with _obs.span("effects.shadows"):
        return _check_shadows(ctx, a1, a2, what)


def _check_shadows(ctx: Ctx, a1, a2, what):
    errors = []
    bufs1, bufs2 = buffers_of(a1), buffers_of(a2)
    for root, rank in bufs1.items():
        p = fresh_point(rank)
        modified = S.disj(mem(a1, "w", root, p), mem(a1, "+", root, p))
        if modified == S.FALSE:
            continue
        overwritten = mem(a2, "w", root, p)
        read = mem(a2, "r", root, p)
        reduced = S.disj(mem(a1, "+", root, p), mem(a2, "+", root, p))
        goal = S.implies(
            modified,
            S.conj(overwritten, S.negate(read), S.negate(reduced)),
        )
        if not prove(ctx.assumptions, goal, "rewrite"):
            errors.append(f"{what}: {root} is not provably shadowed")
    for g in globals_of(a1):
        modified = gmem(a1, "w", g)
        if modified == S.FALSE:
            continue
        goal = S.implies(
            modified, S.conj(gmem(a2, "w", g), S.negate(gmem(a2, "r", g)))
        )
        if not prove(ctx.assumptions, goal, "rewrite"):
            errors.append(f"{what}: config field {g} is not provably shadowed")
    if errors:
        raise SchedulingError("\n".join(errors))


def check_condition(proc: IR.Proc, path, cond: IR.Expr, what):
    """Prove a control condition holds at ``path`` (used by add_guard,
    perfect split divisibility, partition_loop, ...)."""
    ctx = Ctx.at(proc, path)
    ex = ctx.extractor()
    goal = ex._ctrl(cond)
    if not prove(ctx.assumptions, goal, "rewrite"):
        from ..core.checks import _counterexample

        msg = f"{what}: cannot prove condition"
        assumptions = ctx.assumptions

        def render():
            cex = _counterexample(assumptions, goal)
            return f"{msg} (counterexample: {cex})" if cex else msg

        raise SchedulingError(msg, witness=render)


def post_effect(proc: IR.Proc, path, tenv):
    """PostEff (§6.1): the effect of everything after the stmt at ``path``,
    whose context's type environment is ``tenv``, with configuration
    state havoced (sound for read-set queries)."""
    stmt = IR.get_stmt(proc, path)
    tenv = tenv.copy()
    tenv.enter_stmt(stmt)
    ex = EffectExtractor(tenv, GlobalState())
    # havoc every config field mentioned anywhere (fresh opaque values);
    # per-statement extraction keeps bindings made by later statements
    # (an Alloc among the suffix must stay resolvable by its uses)
    after = IR.stmts_after(proc, path)
    from .effects import eseq

    return eseq(*ex.stmt_effects(after))


def check_config_pollution(proc: IR.Proc, path, fields):
    """§6.2 context condition: code after ``path`` must not have an
    *exposed* read of the polluted config fields (a region that definitely
    re-writes the field before reading it is insensitive -- this is the
    sequencing subtraction that makes the §2.4 hoisting flow legal)."""
    if not fields:
        return
    ctx = Ctx.at(proc, path)
    post = post_effect(proc, path, ctx.tenv)
    errors = []
    for g in fields:
        f = gmem_exposed(post, g)
        if f == S.FALSE:
            continue
        if not prove(ctx.assumptions, S.negate(f), "rewrite"):
            errors.append(
                f"configwrite: subsequent code may read polluted config {g}"
            )
    if errors:
        raise SchedulingError("\n".join(errors))


def check_contained(ctx: Ctx, eff, root: Sym, rank: int, box, what):
    """Every access of ``root`` in ``eff`` lies inside ``box``
    (a list of (lo_term, hi_term) per dimension)."""
    p = fresh_point(rank)
    inside = S.conj(
        *[S.conj(S.ge(pi, lo), S.lt(pi, hi)) for pi, (lo, hi) in zip(p, box)]
    )
    accessed = mem(eff, "rw+", root, p)
    if accessed == S.FALSE:
        return
    if not prove(ctx.assumptions, S.implies(accessed, inside), "rewrite"):
        raise SchedulingError(
            f"{what}: accesses to {root} are not provably within the staged window"
        )
