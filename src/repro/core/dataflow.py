"""Symbolic forward dataflow over global configuration state (§5.3).

The only mutable control state in Exo is configuration fields.  This module
implements the paper's ``ValG`` analysis: a symbolic, control-sensitive
forward dataflow that maps every config field to an SMT term for its current
value.  Unknown values are represented by *fresh* opaque variables (which
the solver treats as universally quantified -- the sound reading of the
paper's ⊥).

Loops use the paper's convergence heuristic: a field whose value is not
provably unchanged by one iteration is driven to an unknown.

This module is the only code that decides how a statement changes the
state: :func:`step` is the transfer of every statement kind, lowering
through a :class:`Frame` (the caller's environment, or a callee's with its
formals bound by :func:`bind_call`), and :func:`walk_loop` is the one loop
rule.  The same engine drives a generic execution-ordered walk of a
procedure (:class:`Walker`), collecting control-flow *facts* (loop bounds,
branch conditions) and the :class:`~repro.core.buffers.TypeEnv` -- this is
what the bounds checker, the assertion checker, and the scheduler's
contextual analyses (§6.1: ``CtrlPred``, ``PreValG``) all ride on -- and
the effect extractor (:mod:`repro.effects.effects`) threads its state
through it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..analysis.absint import prove
from ..obs import trace as _obs
from ..smt import terms as S
from .prelude import InternalError, Sym
from . import ast as IR
from .buffers import TypeEnv
from .ir2smt import config_sym, lower_expr, proc_assumptions


class GlobalState:
    """Map from config-field SMT symbols to value terms."""

    def __init__(self, values: Optional[Dict[Sym, S.Term]] = None):
        self.values = dict(values or {})

    def get(self, csym: Sym) -> S.Term:
        return self.values.get(csym, S.Var(csym))

    def set(self, csym: Sym, value: S.Term):
        self.values[csym] = value

    def havoc(self, csym: Sym):
        self.values[csym] = S.Var(Sym(csym.name + "_u"))

    def copy(self) -> "GlobalState":
        return GlobalState(self.values)

    def subst_term(self, t: S.Term) -> S.Term:
        """Replace config variables in ``t`` with their current values."""
        if not self.values:
            return t
        return S.substitute(t, self.values)

    def changed_fields(self, other: "GlobalState"):
        keys = set(self.values) | set(other.values)
        return [k for k in keys if self.get(k) != other.get(k)]


class _StrideEnv:
    """dict-like adapter exposing TypeEnv strides to the expr lowerer."""

    def __init__(self, tenv: TypeEnv, extra=None):
        self.tenv = tenv
        self.extra = extra or {}

    def __contains__(self, key):
        return True

    def __getitem__(self, key):
        if key in self.extra:
            return self.extra[key]
        name, dim = key
        view = self.tenv.views.get(name)
        if view is not None and view.root is not name:
            # a window of a callee's buffer formal strides like the actual
            root_key = (view.root, view.root_dim_of_out(dim))
            if root_key in self.extra:
                return self.extra[root_key]
        return self.tenv.stride_term(name, dim)


def lower_ctrl(e: IR.Expr, tenv: TypeEnv, state: GlobalState) -> S.Term:
    """Lower a control expression resolving strides and config values."""
    t = lower_expr(e, _StrideEnv(tenv))
    return state.subst_term(t)


class Frame:
    """Where a walk lowers control expressions: the type environment in
    scope and, inside a callee body, the substitution of the callee's
    control formals by the caller's values and of its buffer formals'
    strides by the actuals' strides (:func:`bind_call`)."""

    def __init__(self, tenv: TypeEnv, sub=None, strides=None):
        self.tenv = tenv
        self.sub = sub or {}
        self.strides = strides or {}

    def lower(self, e: IR.Expr, state: GlobalState) -> S.Term:
        # config reads resolve before the formals are replaced: the
        # actuals' values are already terms over the caller's state
        t = state.subst_term(lower_expr(e, _StrideEnv(self.tenv, self.strides)))
        return S.substitute(t, self.sub) if self.sub else t

    def scoped(self) -> "Frame":
        """The frame of a nested block: buffers it binds stay inside it."""
        return Frame(self.tenv.copy(), self.sub, self.strides)


def bind_call(s: IR.Call, state: GlobalState, frame: Frame) -> Frame:
    """The frame of the callee body of call ``s`` made from ``frame``:
    control formals map to the actuals' values, and buffer formals'
    strides to the actuals' strides.  Buffer formals are bound as roots of
    a fresh :class:`TypeEnv`; the effect extractor adds views on top."""
    tenv = TypeEnv()
    sub = {}
    strides = {}
    caller_strides = _StrideEnv(frame.tenv, frame.strides)
    for formal, actual in zip(s.proc.args, s.args):
        if not formal.type.is_numeric():
            sub[formal.name] = frame.lower(actual, state)
            continue
        tenv.bind_root(formal.name, formal.type, formal.mem)
        if formal.type.is_tensor_or_window():
            for d in range(len(formal.type.shape())):
                strides[(formal.name, d)] = _actual_stride(actual, d, caller_strides)
    return Frame(tenv, sub, strides)


def _actual_stride(actual: IR.Expr, formal_dim: int, strides) -> S.Term:
    """The stride term of dimension ``formal_dim`` of a buffer argument."""
    if isinstance(actual, IR.Read) and not actual.idx:
        return strides[(actual.name, formal_dim)]
    if isinstance(actual, IR.WindowExpr):
        # the formal's dim maps through the window's interval dims
        iv_dims = [
            d for d, w in enumerate(actual.idx) if isinstance(w, IR.Interval)
        ]
        return strides[(actual.name, iv_dims[formal_dim])]
    return S.Var(Sym("stride_u"))


def writes_config(node) -> bool:
    """May executing ``node`` -- a statement or a block -- write any
    configuration field?

    The summary is transitive through calls (a call writes config when its
    callee's body does, at any depth) and memoized on each statement
    object: IR nodes are immutable, so a statement's answer never changes,
    and a rewrite that rebuilds a subtree gets fresh nodes that are
    summarized anew.  Loops, branches and calls for which it is False
    leave the dataflow state unchanged, so :func:`step` skips them."""
    if isinstance(node, (tuple, list)):
        return any(writes_config(s) for s in node)
    cached = node.__dict__.get("_writes_config")
    if cached is None:
        if isinstance(node, IR.WriteConfig):
            cached = True
        elif isinstance(node, IR.If):
            cached = writes_config(node.body) or writes_config(node.orelse)
        elif isinstance(node, IR.For):
            cached = writes_config(node.body)
        elif isinstance(node, IR.Call):
            cached = writes_config(node.proc.body)
        else:
            cached = False
        # frozen dataclass: the memo lives outside the dataclass fields, so
        # equality, hashing and printing are unaffected
        node.__dict__["_writes_config"] = cached
    return cached


def step(s: IR.Stmt, state: GlobalState, frame: Frame) -> GlobalState:
    """The config state after ``s`` from ``state``: the transfer function
    of every statement kind.  ``Alloc`` and ``WindowStmt`` enter
    ``frame``'s type environment.  Walks that visit statements (the
    :class:`Walker`, the effect extractor) use it for everything but the
    blocks they visit, and :func:`merge_states` and :func:`walk_loop` for
    those."""
    if isinstance(s, IR.WriteConfig):
        state = state.copy()
        state.set(config_sym(s.config, s.field), frame.lower(s.rhs, state))
        return state
    if isinstance(s, (IR.Alloc, IR.WindowStmt)):
        frame.tenv.enter_stmt(s)
        return state
    if not isinstance(s, (IR.If, IR.For, IR.Call)) or not writes_config(s):
        return state
    if isinstance(s, IR.If):
        cond = frame.lower(s.cond, state)
        return merge_states(
            cond,
            walk_state(s.body, state, frame.scoped()),
            walk_state(s.orelse, state, frame.scoped()),
        )
    if isinstance(s, IR.For):
        return walk_loop(s, state, frame)
    return walk_state(s.proc.body, state, bind_call(s, state, frame))


def walk_state(block, state: GlobalState, frame: Frame) -> GlobalState:
    """The one non-visiting walk: the config state after ``block``.  It
    holds no control facts, and skips statements that write no config."""
    for s in block:
        state = step(s, state, frame)
    return state


def loop_fixpoint(body, state: GlobalState, frame: Frame):
    """The loop-entry fixpoint of the paper's convergence heuristic.

    Each round walks one iteration of ``body`` (:func:`walk_state`) from a
    copy of the candidate entry state.  Every field the iteration may
    change is havoced at entry (a fresh unknown), until a round changes no
    field not already havoced.  Returns ``(entry, out, havoc_vars)``: the
    stabilized entry state, the state after one iteration from it (the
    converged round, so the exit rule need not re-walk the body), and the
    fresh unknowns introduced.  A body that writes no config is its own
    fixpoint: no round runs and ``out`` is ``entry``."""
    entry = state.copy()
    havoc_vars = set()
    if not writes_config(body):
        return entry, entry, havoc_vars
    havoced = set()
    for _round in range(64):
        _obs.incr("dataflow.fixpoint_rounds")
        _obs.incr("dataflow.body_walks")
        out = walk_state(body, entry, frame.scoped())
        changed = [f for f in out.changed_fields(entry) if f not in havoced]
        if not changed:
            return entry, out, havoc_vars
        for f in changed:
            entry.havoc(f)
            havoc_vars |= S.free_vars(entry.get(f))
            havoced.add(f)
    raise InternalError("config dataflow failed to converge")


def walk_loop(s: IR.For, state: GlobalState, frame: Frame, facts=(),
              visit=None) -> GlobalState:
    """The config state after loop ``s``: :func:`loop_fixpoint`, then the
    exit rule.  ``visit(entry, lo, hi)``, when given, walks the body once
    under the stabilized entry state.

    The exit rule: a field whose exit value is the same definite,
    iteration-independent term every iteration keeps that value when the
    loop provably runs (``lo < hi`` under ``facts``, the control facts the
    walk holds -- none, outside the :class:`Walker`'s own statements); this
    is the config-hoisting pattern of §2.4.  Anything else the loop may
    change is havoced (zero-or-variant trips)."""
    lo = frame.lower(s.lo, state)
    hi = frame.lower(s.hi, state)
    entry, out, havoc_vars = loop_fixpoint(s.body, state, frame)
    if visit is not None:
        _obs.incr("dataflow.body_walks")
        visit(entry, lo, hi)
    runs = None  # lazily-proven "at least one iteration"
    exit_state = state.copy()
    for f in set(entry.changed_fields(state)) | set(out.changed_fields(entry)):
        v = out.get(f)
        fv = S.free_vars(v)
        if s.iter not in fv and not (fv & havoc_vars):
            if runs is None:
                runs = _prove_runs(facts, lo, hi)
            if runs:
                exit_state.set(f, v)
                continue
        exit_state.havoc(f)
    return exit_state


def _prove_runs(facts, lo, hi) -> bool:
    return prove(facts, S.lt(lo, hi), "dataflow")


class Walker:
    """Execution-ordered walk of a procedure with dataflow and facts.

    ``visit(stmt, path, facts, state, tenv)`` is called for every statement
    in program order with the *pre*-state.  ``facts`` are the procedure's
    assumptions (:func:`~repro.core.ir2smt.proc_assumptions`, seeded
    here once) followed by the enclosing loop bounds and branch
    conditions: an obligation posed at ``stmt`` assumes exactly these.
    Loop bodies are visited once,
    under the stabilized entry state and with the iteration-bound facts in
    scope; the loop-entry fixpoint rounds and callee bodies run the
    non-visiting :func:`walk_state`, so each loop body is walked once per
    enclosing fixpoint round rather than once per round of every enclosing
    loop.
    """

    def __init__(self, proc: IR.Proc, visit: Optional[Callable] = None):
        self.proc = proc
        self.visit = visit

    def run(self, state: Optional[GlobalState] = None) -> GlobalState:
        state = state or GlobalState()
        facts = proc_assumptions(self.proc)
        return self._walk_block(
            self.proc.body, [("body", None)], facts, state, Frame(TypeEnv(self.proc))
        )

    # -- internals -----------------------------------------------------------

    def _walk_block(self, block, prefix, facts, state, frame):
        for i, s in enumerate(block):
            path = prefix[:-1] + [(prefix[-1][0], i)]
            if self.visit is not None:
                self.visit(s, tuple(path), list(facts), state, frame.tenv)
            state = self._walk_stmt(s, path, facts, state, frame)
        return state

    def _walk_stmt(self, s, path, facts, state, frame):
        if isinstance(s, IR.If):
            cond = frame.lower(s.cond, state)
            st_then = self._walk_block(
                s.body, path + [("body", None)], facts + [cond], state.copy(),
                frame.scoped(),
            )
            st_else = self._walk_block(
                s.orelse, path + [("orelse", None)], facts + [S.negate(cond)],
                state.copy(), frame.scoped(),
            )
            return merge_states(cond, st_then, st_else)
        if isinstance(s, IR.For):

            def visit_body(entry, lo, hi):
                bound = [S.le(lo, S.Var(s.iter)), S.lt(S.Var(s.iter), hi)]
                self._walk_block(
                    s.body, path + [("body", None)], facts + bound, entry.copy(),
                    frame.scoped(),
                )

            return walk_loop(
                s, state, frame, facts, visit_body if self.visit else None
            )
        return step(s, state, frame)


def merge_states(cond: S.Term, a: GlobalState, b: GlobalState) -> GlobalState:
    """The state after ``if cond`` whose branches end in ``a`` and ``b``."""
    out = GlobalState()
    keys = set(a.values) | set(b.values)
    for k in keys:
        va, vb = a.get(k), b.get(k)
        if va == vb:
            out.set(k, va)
        elif isinstance(cond, S.BoolC):
            out.set(k, va if cond.val else vb)
        else:
            # sound merge: value is unknown unless both branches agree
            out.havoc(k)
    return out


def iter_contexts(proc: IR.Proc) -> list:
    """Every statement's pre-state from ONE execution-ordered walk: a list
    of ``(stmt, path, facts, state, tenv)`` tuples in program order.

    This is the bulk counterpart of :func:`state_before` (which re-walks
    the whole procedure per query): whole-procedure analyses -- the
    sanitizers in :mod:`repro.analysis.sanitize` and the parallelism lint
    -- visit every statement or loop and would otherwise pay a quadratic
    number of walks."""
    out = []

    def visit(s, path, facts, state, tenv):
        out.append((s, path, facts, state.copy(), tenv.copy()))

    Walker(proc, visit).run()
    return out


class _Found(Exception):
    """Stops a :func:`state_before` walk at its target statement."""


# (proc, {path: (facts, state, tenv)}): the contexts computed for the most
# recently queried procedure.  A scheduling directive runs all its checks on
# one (immutable) procedure, and several of them ask for the same path
# (each its own ``Ctx.at``), so the memo spans one directive's checks and is
# replaced by the next directive's procedure.
_STATE_BEFORE_MEMO = [None, {}]


def state_before(proc: IR.Proc, path) -> tuple:
    """(facts, GlobalState, TypeEnv) immediately before the stmt at ``path``."""
    target = tuple(path)
    memo = _STATE_BEFORE_MEMO
    if memo[0] is not proc:
        memo[0], memo[1] = proc, {}
    found = memo[1].get(target)
    if found is None:

        def visit(_s, p, facts, state, tenv):
            if p == target:
                raise _Found((facts, state.copy(), tenv.copy()))

        try:
            Walker(proc, visit).run()
        except _Found as hit:
            found = memo[1][target] = hit.args[0]
        else:
            raise InternalError(f"path {path} not found in {proc.name}")
    facts, state, tenv = found
    return list(facts), state.copy(), tenv.copy()
