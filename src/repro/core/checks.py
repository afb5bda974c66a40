"""Front-end safety checks that ride on the SMT solver.

* **Bounds checking** (§3.1 item 3): every buffer access, window bound, and
  allocation extent is statically proven in-bounds / positive, under the
  procedure's assertions and the enclosing control-flow facts.  This gives
  memory safety with zero dynamic checks.

* **Assertion checking** (§3.1 item 6): every call site is proven to satisfy
  the callee's asserted preconditions, using the configuration dataflow to
  resolve config-field reads (so ``assert Config.src_stride == stride(src,
  0)`` is provable right after the corresponding config write).

* **Incremental re-checking**: :func:`check_proc` checks a root procedure
  in full.  A derived revision comes with the deriving rewrite's
  :class:`~repro.scheduling.cursors.Forwarder` (every rewrite has one), and
  only the obligations that rewrite could have invalidated are
  re-discharged — those inside a touched subtree, or (when config state
  moved) downstream of a touched path; the parent revision's verdicts
  stand for the rest.  ``analysis.incremental.{reused,rechecked}``
  counters record the savings.
"""

from __future__ import annotations

from ..analysis.absint import prove
from ..obs import trace as _obs
from ..smt import terms as S
from ..smt.solver import DEFAULT_SOLVER
from . import ast as IR
from . import types as T
from .dataflow import Frame, Walker, bind_call, lower_ctrl
from .ir2smt import proc_assumptions
from .prelude import AssertCheckError, BoundsCheckError, Sym


def _counterexample(assumptions, goal) -> str | None:
    """A satisfying assignment of ``assumptions /\\ not goal``, rendered
    ``"i = 4, n = 4"`` -- the concrete inputs under which the unproven
    obligation actually fails (best-effort; None when unavailable)."""
    model = DEFAULT_SOLVER.find_model(S.conj(*assumptions, S.negate(goal)))
    if not model:
        return None
    items = sorted(model.items(), key=lambda kv: (kv[0].name, kv[0].id))
    return ", ".join(f"{s.name} = {v}" for s, v in items[:8])


def bounds_check(proc: IR.Proc, scope=None):
    """Prove every access in ``proc`` in-bounds; raise on failure.

    With a :class:`RecheckScope`, only obligations the scope marks dirty
    are re-proven (the walk still runs in full, maintaining dataflow
    state, but goal assembly and proving are skipped elsewhere)."""
    _run_checkers(proc, [_BoundsChecker(proc, scope)])


def assert_check(proc: IR.Proc, scope=None):
    """Prove every call's preconditions; raise on failure."""
    _run_checkers(proc, [_AssertChecker(proc, scope)])


def _run_checkers(proc: IR.Proc, checkers):
    """Discharge every checker's obligations from ONE execution-ordered
    walk of ``proc``, then report them in checker order: the first
    checker with errors raises, and a later checker's incremental
    counters are recorded only when every earlier one passed -- exactly as
    if each had walked the procedure on its own, in turn."""
    first, rest = checkers[0], checkers[1:]

    def visit(s, path, facts, state, tenv):
        first.visit(s, path, facts, state, tenv)
        for c in rest:
            with _obs.span(c.span):
                c.visit(s, path, facts, state, tenv)

    # the walk itself is charged to the first checker's span
    with _obs.span(first.span):
        Walker(proc, visit).run()
    for c in checkers:
        c.finish()


class _Checker:
    """One obligation family visited during a :class:`Walker` run; a
    subclass names its obs ``span`` and the ``error`` class it raises."""

    def __init__(self, proc: IR.Proc, scope):
        self.base = proc_assumptions(proc)
        self.scope = scope
        self.errors = []
        self.reused = 0
        self.rechecked = 0

    def needs(self, path) -> bool:
        if self.scope is None:
            return True
        if self.scope.needs(path):
            self.rechecked += 1
            return True
        self.reused += 1
        return False

    def finish(self):
        if self.reused:
            _obs.incr("analysis.incremental.reused", self.reused)
        if self.rechecked:
            _obs.incr("analysis.incremental.rechecked", self.rechecked)
        if self.errors:
            raise self.error("\n".join(self.errors))


class _BoundsChecker(_Checker):
    span = "effects.bounds_check"
    error = BoundsCheckError

    def check(self, goal, facts, what, srcinfo, detail=""):
        if not prove(self.base + facts, goal, "bounds"):
            msg = f"{srcinfo}: cannot prove {what}"
            extras = [detail] if detail else []
            cex = _counterexample(self.base + facts, goal)
            if cex:
                extras.append(f"counterexample: {cex}")
            if extras:
                msg += f" ({'; '.join(extras)})"
            self.errors.append(msg)

    def check_idx(self, name, idx_terms, shape, facts, srcinfo, tenv, state):
        for i_t, extent in zip(idx_terms, shape):
            ext_t = lower_ctrl(extent, tenv, state)
            ok = S.conj(S.ge(i_t, S.IntC(0)), S.lt(i_t, ext_t))
            self.check(
                ok,
                facts,
                f"access to {name} in bounds",
                srcinfo,
                detail=(
                    f"index {S.term_to_str(i_t)} vs extent "
                    f"{S.term_to_str(ext_t)}"
                ),
            )

    def check_expr(self, e, facts, tenv, state):
        for sub in IR.walk_exprs(e):
            if isinstance(sub, IR.Read) and sub.idx:
                typ = tenv.type_of(sub.name)
                idx_terms = [lower_ctrl(i, tenv, state) for i in sub.idx]
                self.check_idx(
                    sub.name, idx_terms, typ.shape(), facts, sub.srcinfo, tenv, state
                )
            elif isinstance(sub, IR.WindowExpr):
                typ = tenv.type_of(sub.name)
                for w, extent in zip(sub.idx, typ.shape()):
                    ext_t = lower_ctrl(extent, tenv, state)
                    if isinstance(w, IR.Interval):
                        lo = lower_ctrl(w.lo, tenv, state)
                        hi = lower_ctrl(w.hi, tenv, state)
                        ok = S.conj(
                            S.ge(lo, S.IntC(0)), S.le(lo, hi), S.le(hi, ext_t)
                        )
                        self.check(
                            ok,
                            facts,
                            f"window of {sub.name} in bounds",
                            sub.srcinfo,
                            detail=(
                                f"interval [{S.term_to_str(lo)}, "
                                f"{S.term_to_str(hi)}) vs extent "
                                f"{S.term_to_str(ext_t)}"
                            ),
                        )
                    else:
                        pt = lower_ctrl(w.pt, tenv, state)
                        ok = S.conj(S.ge(pt, S.IntC(0)), S.lt(pt, ext_t))
                        self.check(
                            ok,
                            facts,
                            f"window of {sub.name} in bounds",
                            sub.srcinfo,
                            detail=(
                                f"index {S.term_to_str(pt)} vs extent "
                                f"{S.term_to_str(ext_t)}"
                            ),
                        )

    def visit(self, s, path, facts, state, tenv):
        if not self.needs(path):
            return
        for e in IR.stmt_exprs(s):
            self.check_expr(e, facts, tenv, state)
        if isinstance(s, (IR.Assign, IR.Reduce)) and s.idx:
            typ = tenv.type_of(s.name)
            idx_terms = [lower_ctrl(i, tenv, state) for i in s.idx]
            self.check_idx(
                s.name, idx_terms, typ.shape(), facts, s.srcinfo, tenv, state
            )
        if isinstance(s, IR.Alloc) and s.type.is_tensor_or_window():
            for h in s.type.shape():
                self.check(
                    S.ge(lower_ctrl(h, tenv, state), S.IntC(1)),
                    facts,
                    f"allocation extent of {s.name} positive",
                    s.srcinfo,
                )


class _AssertChecker(_Checker):
    span = "effects.assert_check"
    error = AssertCheckError

    def visit(self, s, path, facts, state, tenv):
        if not isinstance(s, IR.Call) or not self.needs(path):
            return
        base = self.base
        callee = s.proc
        frame = bind_call(s, state, Frame(tenv))
        shape_goals = []
        for formal, actual in zip(callee.args, s.args):
            if formal.type.is_tensor_or_window():
                # callee's declared extents must equal the actual extents
                for d, formal_ext in enumerate(formal.type.shape()):
                    act_ext = _actual_extent(actual, d, tenv, state)
                    if act_ext is None:
                        continue
                    fe = frame.lower(formal_ext, state)
                    shape_goals.append(
                        (S.eq(fe, act_ext), f"extent {d} of {formal.name}")
                    )
            elif formal.type.is_sizeable():
                shape_goals.append(
                    (
                        S.ge(frame.sub[formal.name], S.IntC(1)),
                        f"size argument {formal.name} positive",
                    )
                )
        for goal, what in shape_goals:
            if not prove(base + facts, goal, "assert"):
                self.errors.append(
                    f"{s.srcinfo}: call to {callee.name}: cannot prove {what}"
                )
        for pred in callee.preds:
            if not prove(base + facts, frame.lower(pred, state), "assert"):
                self.errors.append(
                    f"{s.srcinfo}: call to {callee.name}: cannot prove "
                    f"precondition"
                )


def _check_bounds_and_asserts(proc: IR.Proc, scope=None):
    """:func:`bounds_check` then :func:`assert_check`, from one walk."""
    _run_checkers(
        proc,
        [
            _BoundsChecker(proc, scope),
            _AssertChecker(proc, scope),
        ],
    )


def _actual_extent(actual, d, tenv, state):
    """SMT term for dimension ``d``'s extent of a buffer argument."""
    if isinstance(actual, IR.Read) and not actual.idx:
        typ = tenv.type_of(actual.name)
        return lower_ctrl(typ.shape()[d], tenv, state)
    if isinstance(actual, IR.WindowExpr):
        ivs = [w for w in actual.idx if isinstance(w, IR.Interval)]
        w = ivs[d]
        return S.sub(lower_ctrl(w.hi, tenv, state), lower_ctrl(w.lo, tenv, state))
    return None


# ---------------------------------------------------------------------------
# Incremental re-checking (driven by rewrite forwarders)
# ---------------------------------------------------------------------------


def _is_prefix(a, b) -> bool:
    return len(a) <= len(b) and tuple(b[: len(a)]) == tuple(a)


def _precedes(t, q) -> bool:
    """Does path ``t`` come strictly before ``q`` in program order, within
    the same control-flow branch?  (Divergence at an If's body/orelse means
    neither context can observe the other's config writes.)"""
    for (tf, ti), (qf, qi) in zip(t, q):
        if tf != qf:
            return False
        if ti != qi:
            return ti < qi
    return False


class RecheckScope:
    """Decides, per obligation path, whether a rewrite described by
    ``(touched, ctx_dirty)`` could have invalidated the parent revision's
    verdict for it.

    An obligation at ``q`` must be re-proven when a touched path is a
    prefix of ``q`` (the statement or an ancestor was rewritten), or —
    when the rewrite moved config state — when some touched path either
    precedes ``q`` in program order or shares an enclosing loop with it
    (loop entry joins the body's config writes, so even an *earlier*
    statement in the same loop can observe a later write)."""

    def __init__(self, proc: IR.Proc, touched, ctx_dirty: bool):
        self.touched = [tuple(t) for t in touched]
        self.ctx_dirty = ctx_dirty
        self._loop_prefixes = []
        if ctx_dirty:
            seen = set()
            for t in self.touched:
                for k in range(1, len(t)):
                    pre = t[:k]
                    if pre in seen:
                        continue
                    seen.add(pre)
                    try:
                        if isinstance(IR.get_stmt(proc, pre), IR.For):
                            self._loop_prefixes.append(pre)
                    except (IndexError, AttributeError):
                        pass

    def needs(self, path) -> bool:
        path = tuple(path)
        for t in self.touched:
            if _is_prefix(t, path):
                return True
            if self.ctx_dirty and _precedes(t, path):
                return True
        if self.ctx_dirty:
            for pre in self._loop_prefixes:
                if _is_prefix(pre, path):
                    return True
        return False

    def needs_subtree(self, path) -> bool:
        """``needs`` for whole-subtree obligations (par-loop race checks):
        also dirty when a touched path lies inside the subtree."""
        path = tuple(path)
        if self.needs(path):
            return True
        return any(_is_prefix(path, t) for t in self.touched)


def check_proc(proc: IR.Proc, fwd=None):
    """Run the front-end pipeline: bounds, preconditions, and the race
    detector over any ``par`` loops (user-written or rewrite-preserved).
    Bounds and preconditions share one dataflow walk.

    ``fwd`` is the Forwarder of the rewrite that derived ``proc`` from an
    already-checked parent; only the obligations outside its blast radius
    keep the parent's verdicts.  Without one, ``proc`` is checked in full."""
    scope = None if fwd is None else RecheckScope(proc, fwd.touched,
                                                  fwd.ctx_dirty)
    _check_bounds_and_asserts(proc, scope)
    from ..analysis.parallel import check_par_loops  # deferred: avoids cycle

    check_par_loops(proc, scope=scope)
