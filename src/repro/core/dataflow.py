"""Symbolic forward dataflow over global configuration state (§5.3).

The only mutable control state in Exo is configuration fields.  This module
implements the paper's ``ValG`` analysis: a symbolic, control-sensitive
forward dataflow that maps every config field to an SMT term for its current
value.  Unknown values are represented by *fresh* opaque variables (which
the solver treats as universally quantified -- the sound reading of the
paper's ⊥).

Loops use the paper's convergence heuristic: a field whose value is not
provably unchanged by one iteration is driven to an unknown.

The same engine drives a generic execution-ordered walk of a procedure,
collecting control-flow *facts* (loop bounds, branch conditions) and the
:class:`~repro.core.buffers.TypeEnv` -- this is what the bounds checker,
the assertion checker, and the scheduler's contextual analyses (§6.1:
``CtrlPred``, ``PreValG``) all ride on.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..obs import trace as _obs
from ..smt import terms as S
from .prelude import InternalError, Sym
from . import ast as IR
from .buffers import TypeEnv
from .ir2smt import config_sym, lower_expr


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
        return self.tenv.stride_term(name, dim)


def lower_ctrl(e: IR.Expr, tenv: TypeEnv, state: GlobalState) -> S.Term:
    """Lower a control expression resolving strides and config values."""
    t = lower_expr(e, _StrideEnv(tenv))
    return state.subst_term(t)


def writes_config(node) -> bool:
    """May executing ``node`` -- a statement or a block -- write any
    configuration field?

    The summary is transitive through calls (a call writes config when its
    callee's body does, at any depth) and memoized on each statement
    object: IR nodes are immutable, so a statement's answer never changes,
    and a rewrite that rebuilds a subtree gets fresh nodes that are
    summarized anew.  Loops, branches and calls for which it is False
    leave the dataflow state unchanged, so the walks below skip their
    loop-entry fixpoints and state-only re-walks."""
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


def loop_fixpoint(body, state: GlobalState, step: Callable):
    """The loop-entry fixpoint of the paper's convergence heuristic.

    ``step(entry)`` runs one iteration of ``body`` from a *copy* of the
    candidate entry state and returns the state after it.  Every field the
    iteration may change is havoced at entry (a fresh unknown), until a
    round changes no field not already havoced.  Returns ``(entry, out,
    havoc_vars)``: the stabilized entry state, the state after one
    iteration from it (the converged round, so callers need not re-walk the
    body to learn the loop's exit values), and the fresh unknowns
    introduced.  A body that writes no config is its own fixpoint: no
    round runs and ``out`` is ``entry``."""
    entry = state.copy()
    havoc_vars = set()
    if not writes_config(body):
        return entry, entry, havoc_vars
    havoced = set()
    for _round in range(64):
        _obs.incr("dataflow.fixpoint_rounds")
        out = step(entry.copy())
        changed = [f for f in out.changed_fields(entry) if f not in havoced]
        if not changed:
            return entry, out, havoc_vars
        for f in changed:
            entry.havoc(f)
            havoc_vars |= S.free_vars(entry.get(f))
            havoced.add(f)
    raise InternalError("config dataflow failed to converge")


class Walker:
    """Execution-ordered walk of a procedure with dataflow and facts.

    ``visit(stmt, path, facts, state, tenv)`` is called for every statement
    in program order with the *pre*-state.  Loop bodies are visited once,
    under the stabilized entry state and with the iteration-bound facts in
    scope.  Non-visiting walks (fixpoint rounds) step over statements that
    write no config (:func:`writes_config`), so each loop body is walked
    once per enclosing fixpoint round rather than once per round of every
    enclosing loop.
    """

    def __init__(self, proc: IR.Proc, visit: Optional[Callable] = None):
        self.proc = proc
        self.visit = visit

    def run(self, state: Optional[GlobalState] = None) -> GlobalState:
        from .ir2smt import proc_assumptions

        state = state or GlobalState()
        tenv = TypeEnv(self.proc)
        facts = list(proc_assumptions(self.proc))
        return self._walk_block(
            self.proc.body, [("body", None)], facts, state, tenv, True
        )

    # -- internals -----------------------------------------------------------

    def _walk_block(self, block, prefix, facts, state, tenv, do_visit):
        for i, s in enumerate(block):
            path = prefix[:-1] + [(prefix[-1][0], i)]
            if do_visit and self.visit is not None:
                self.visit(s, tuple(path), list(facts), state, tenv)
            state = self._walk_stmt(s, path, facts, state, tenv, do_visit)
        return state

    def _walk_stmt(self, s, path, facts, state, tenv, do_visit):
        if not do_visit and isinstance(s, (IR.For, IR.If, IR.Call)):
            if not writes_config(s):
                return state
        if isinstance(s, IR.WriteConfig):
            csym = config_sym(s.config, s.field)
            value = lower_ctrl(s.rhs, tenv, state)
            state = state.copy()
            state.set(csym, value)
            return state
        if isinstance(s, IR.If):
            cond = lower_ctrl(s.cond, tenv, state)
            st_then = self._walk_block(
                s.body, path + [("body", None)], facts + [cond], state.copy(),
                tenv.copy(), do_visit,
            )
            st_else = self._walk_block(
                s.orelse, path + [("orelse", None)], facts + [S.negate(cond)],
                state.copy(), tenv.copy(), do_visit,
            )
            return _merge_states(cond, st_then, st_else)
        if isinstance(s, IR.For):
            return self._walk_loop(s, path, facts, state, tenv, do_visit)
        if isinstance(s, IR.Call):
            return self._apply_call(s, state, tenv)
        if isinstance(s, (IR.Alloc, IR.WindowStmt)):
            tenv.enter_stmt(s)
            return state
        return state

    def _walk_loop(self, s: IR.For, path, facts, state, tenv, do_visit):
        lo = lower_ctrl(s.lo, tenv, state)
        hi = lower_ctrl(s.hi, tenv, state)
        body_path = path + [("body", None)]

        def step(probe):
            _obs.incr("dataflow.body_walks")
            return self._walk_block(s.body, body_path, [], probe, tenv.copy(), False)

        # find the loop-entry fixpoint: fields not provably loop-invariant
        # are havoced (the paper's convergence heuristic)
        entry, out, havoc_vars = loop_fixpoint(s.body, state, step)
        if do_visit and self.visit is not None:
            _obs.incr("dataflow.body_walks")
            bound = [S.le(lo, S.Var(s.iter)), S.lt(S.Var(s.iter), hi)]
            self._walk_block(
                s.body, body_path, facts + bound, entry.copy(), tenv.copy(), True
            )
        # post-loop state, from the converged round's exit: a field whose
        # exit value is the same definite, iteration-independent term every
        # iteration keeps that value when the loop provably runs (the
        # config-hoisting pattern of §2.4); anything else is havoced
        # (zero-or-variant trips)
        runs = None  # lazily-proven "at least one iteration"
        exit_state = state.copy()
        for f in set(entry.changed_fields(state)) | set(
            out.changed_fields(entry)
        ):
            v = out.get(f)
            fv = S.free_vars(v)
            if s.iter not in fv and not (fv & havoc_vars):
                if runs is None:
                    runs = self._prove_runs(facts, lo, hi)
                if runs:
                    exit_state.set(f, v)
                    continue
            exit_state.havoc(f)
        return exit_state

    @staticmethod
    def _prove_runs(facts, lo, hi) -> bool:
        from ..smt.solver import DEFAULT_SOLVER

        return DEFAULT_SOLVER.prove(S.implies(S.conj(*facts), S.lt(lo, hi)))

    def _apply_call(self, s: IR.Call, state, tenv) -> GlobalState:
        """Apply the callee's effect on configuration state."""
        if not writes_config(s):
            return state
        callee = s.proc
        sub = {}
        stride_extra = {}
        callee_tenv = TypeEnv()
        for formal, actual in zip(callee.args, s.args):
            if formal.type.is_numeric():
                callee_tenv.bind_root(formal.name, formal.type, formal.mem)
                # map the formal's strides onto the actual's strides
                if formal.type.is_tensor_or_window():
                    rank = len(formal.type.shape())
                    for d in range(rank):
                        stride_extra[(formal.name, d)] = _actual_stride(
                            actual, d, tenv
                        )
            else:
                sub[formal.name] = lower_ctrl(actual, tenv, state)
        return self._walk_callee_block(
            callee.body, sub, stride_extra, callee_tenv, state
        )

    def _walk_callee_block(self, block, sub, stride_extra, ctenv, state):
        for s in block:
            if isinstance(s, (IR.For, IR.If, IR.Call)) and not writes_config(s):
                continue
            if isinstance(s, IR.WriteConfig):
                csym = config_sym(s.config, s.field)
                t = lower_expr(s.rhs, _StrideEnv(ctenv, stride_extra))
                t = S.substitute(t, sub)
                t = state.subst_term(t)
                state = state.copy()
                state.set(csym, t)
            elif isinstance(s, IR.If):
                st_t = self._walk_callee_block(s.body, sub, stride_extra, ctenv, state)
                st_e = self._walk_callee_block(s.orelse, sub, stride_extra, ctenv, state)
                cond = S.substitute(
                    lower_expr(s.cond, _StrideEnv(ctenv, stride_extra)), sub
                )
                cond = state.subst_term(cond)
                state = _merge_states(cond, st_t, st_e)
            elif isinstance(s, IR.For):
                before = state
                state = self._walk_callee_block(
                    s.body, sub, stride_extra, ctenv, state
                )
                out = state.copy()
                for f in state.changed_fields(before):
                    out.havoc(f)
                state = out
            elif isinstance(s, IR.Call):
                # nested call: recurse with composed substitution
                inner = Walker(s.proc)
                state = inner._apply_call_inner(s, sub, stride_extra, ctenv, state)
            elif isinstance(s, (IR.Alloc, IR.WindowStmt)):
                ctenv.enter_stmt(s)
        return state

    def _apply_call_inner(self, s, outer_sub, outer_strides, outer_tenv, state):
        callee = s.proc
        sub = {}
        stride_extra = {}
        ctenv = TypeEnv()
        for formal, actual in zip(callee.args, s.args):
            if formal.type.is_numeric():
                ctenv.bind_root(formal.name, formal.type, formal.mem)
            else:
                t = S.substitute(
                    lower_expr(actual, _StrideEnv(outer_tenv, outer_strides)),
                    outer_sub,
                )
                sub[formal.name] = state.subst_term(t)
        return self._walk_callee_block(callee.body, sub, stride_extra, ctenv, state)


def _actual_stride(actual: IR.Expr, formal_dim: int, tenv: TypeEnv) -> S.Term:
    """The stride term of dimension ``formal_dim`` of a buffer argument."""
    from .ir2smt import stride_sym

    if isinstance(actual, IR.Read) and not actual.idx:
        return tenv.stride_term(actual.name, formal_dim)
    if isinstance(actual, IR.WindowExpr):
        # the formal's dim maps through the window's interval dims
        iv_dims = [
            d for d, w in enumerate(actual.idx) if isinstance(w, IR.Interval)
        ]
        base_view = tenv.view(actual.name)
        base_out = iv_dims[formal_dim]
        root_dim = base_view.root_dim_of_out(base_out)
        root_typ = tenv.type_of(base_view.root)
        if not root_typ.is_win():
            return TypeEnv._dense_stride(base_view.root, root_typ, root_dim)
        return S.Var(stride_sym(base_view.root, root_dim))
    return S.Var(Sym("stride_u"))


def _merge_states(cond: S.Term, a: GlobalState, b: GlobalState) -> GlobalState:
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
    sanitizers in :mod:`repro.analysis.sanitize` -- visit every statement
    and would otherwise pay a quadratic number of walks."""
    out = []

    def visit(s, path, facts, state, tenv):
        out.append((s, path, facts, state.copy(), tenv.copy()))

    Walker(proc, visit).run()
    return out


class _Found(Exception):
    """Stops a :func:`state_before` walk at its target statement."""


# (proc, {path: (facts, state, tenv)}): the contexts computed for the most
# recently queried procedure.  A scheduling directive runs all its checks on
# one (immutable) procedure, and several of them -- ``Ctx``, ``post_effect``
# -- ask for the same path, so the memo spans one directive's checks and is
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
