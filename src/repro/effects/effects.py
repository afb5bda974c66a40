"""Effect extraction and symbolic location sets (§5).

An :class:`Eff` tree abstracts which store locations a statement block may
read, write, or reduce.  The leaves carry *fully lowered* SMT index terms:
extraction walks the block with the configuration dataflow threaded through
(so guards and written values are expressed over the state at block entry),
resolves windows down to root-buffer coordinates, and inlines callee
effects at call sites.

Ternary logic (§5.1) is realized through a polarity discipline rather than
an explicit three-valued encoding: unknown values are fresh variables, which
the validity checks quantify universally.  Location-set membership formulas
then automatically take the *maybe* reading in negative positions (the
``¬M(x ∈ L)`` obligations of commutativity) and the *definitely* reading in
positive positions (the ``x ∈ DWr`` obligations of shadowing) -- precisely
the two collapses ``M``/``D`` of the paper.  The set-subtraction refinements
of Definition 5.5 are realized by scoping: locations of buffers allocated
*inside* an effect are invisible outside it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Optional, Tuple

from ..core import ast as IR
from ..core.buffers import TypeEnv, lower_widx
from ..core import dataflow as _df
from ..core.dataflow import GlobalState, _StrideEnv, lower_ctrl, _actual_stride
from ..core.ir2smt import config_sym, lower_expr
from ..core.prelude import InternalError, Sym
from ..obs import trace as _obs
from ..smt import terms as S


# ---------------------------------------------------------------------------
# Effect trees (Definition 5.4)
# ---------------------------------------------------------------------------


class Eff:
    pass


@dataclass(frozen=True)
class EEmpty(Eff):
    pass


@dataclass(frozen=True)
class ESeq(Eff):
    parts: Tuple[Eff, ...]


@dataclass(frozen=True)
class EGuard(Eff):
    cond: S.Term
    body: Eff


@dataclass(frozen=True)
class ELoop(Eff):
    iter: Sym
    lo: S.Term
    hi: S.Term
    body: Eff


@dataclass(frozen=True)
class ERead(Eff):
    buf: Sym
    idx: Tuple[S.Term, ...]


@dataclass(frozen=True)
class EWrite(Eff):
    buf: Sym
    idx: Tuple[S.Term, ...]


@dataclass(frozen=True)
class EReduce(Eff):
    buf: Sym
    idx: Tuple[S.Term, ...]


@dataclass(frozen=True)
class EGlobalRead(Eff):
    sym: Sym


@dataclass(frozen=True)
class EGlobalWrite(Eff):
    sym: Sym
    value: Optional[S.Term] = None


EMPTY = EEmpty()


def eseq(*parts) -> Eff:
    flat = []
    for p in parts:
        if isinstance(p, EEmpty):
            continue
        if isinstance(p, ESeq):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return flat[0]
    return ESeq(tuple(flat))


# ---------------------------------------------------------------------------
# Extraction (Eff : Stmt -> Effect)
# ---------------------------------------------------------------------------


class EffectExtractor:
    """Extracts the effect of a statement block within a procedure context.

    ``tenv`` must describe every buffer in scope at the block; ``state`` is
    the configuration dataflow state at block entry (``PreValG``, §6.1).

    A ``state_only`` extractor (the loop fixpoint's probes) advances
    ``state`` exactly as a full one would but builds no effects, and steps
    over statements that write no config.
    """

    state_only = False

    def __init__(self, tenv: TypeEnv, state: Optional[GlobalState] = None):
        self.tenv = tenv
        self.state = (state or GlobalState()).copy()

    def _spawn(self, state: GlobalState) -> "EffectExtractor":
        """A child extractor over the same environment (loop-body probing).
        Subclasses override to preserve their substitutions."""
        return EffectExtractor(self.tenv, state)

    def loop_entry(self, body):
        """``(entry, out)``: the stabilized config state at the top of every
        iteration of ``body`` from the current state (loop-variant fields
        havoced), and the state after one iteration from it.  The fixpoint
        rounds run state-only probes (:func:`repro.core.dataflow.loop_fixpoint`)."""

        def step(st):
            _obs.incr("dataflow.body_walks")
            probe = self._spawn(st)
            probe.state_only = True
            probe.block_effect(body)
            return probe.state

        entry, out, _havoc_vars = _df.loop_fixpoint(body, self.state, step)
        return entry, out

    def loop_body(self, body) -> "EffectExtractor":
        """A child extractor positioned at the top of an iteration of
        ``body``: its state is the stabilized loop-entry state."""
        entry, _out = self.loop_entry(body)
        return self._spawn(entry)

    # -- expressions -------------------------------------------------------

    def expr_effect(self, e: IR.Expr) -> Eff:
        """Read effects of an expression (data reads + config reads)."""
        out = []

        def walk(e):
            if isinstance(e, IR.Read):
                for i in e.idx:
                    walk(i)
                if e.idx or (e.type is not None and e.type.is_real_scalar()):
                    view = self.tenv.view(e.name)
                    idx_terms = [self._ctrl(i) for i in e.idx]
                    out.append(ERead(view.root, tuple(view.compose_index(idx_terms))))
            elif isinstance(e, IR.USub):
                walk(e.arg)
            elif isinstance(e, IR.BinOp):
                walk(e.lhs)
                walk(e.rhs)
            elif isinstance(e, IR.Extern):
                for a in e.args:
                    walk(a)
            elif isinstance(e, IR.WindowExpr):
                for w in e.idx:
                    if isinstance(w, IR.Interval):
                        walk(w.lo)
                        walk(w.hi)
                    else:
                        walk(w.pt)
            elif isinstance(e, IR.ReadConfig):
                out.append(EGlobalRead(config_sym(e.config, e.field)))

        walk(e)
        return eseq(*out)

    def _ctrl(self, e: IR.Expr) -> S.Term:
        return lower_ctrl(e, self.tenv, self.state)

    # -- statements ----------------------------------------------------------

    def block_effect(self, stmts) -> Eff:
        """Effect of a block; local allocations are scoped out."""
        saved_tenv = self.tenv
        self.tenv = self.tenv.copy()
        if self.state_only:
            for s in stmts:
                self._stmt_state(s)
            self.tenv = saved_tenv
            return EMPTY
        local_allocs = set()
        parts = []
        for s in stmts:
            parts.append(self._stmt_effect(s, local_allocs))
        eff = eseq(*parts)
        self.tenv = saved_tenv
        if local_allocs:
            eff = _drop_bufs(eff, local_allocs)
        return eff

    def stmt_effects(self, stmts) -> list:
        """Per-statement effects of a block, in order.  Unlike
        :meth:`block_effect`, binding statements (``Alloc``,
        ``WindowStmt``) are entered into the environment *persistently*
        and local allocations are **not** scoped out -- callers doing
        per-statement reasoning (``PostEff``, the sanitizers) need later
        statements to still resolve names bound earlier in the block, and
        need the local buffers' accesses to stay visible."""
        return [self._stmt_effect(s, set()) for s in stmts]

    def _stmt_effect(self, s: IR.Stmt, local_allocs) -> Eff:
        if isinstance(s, (IR.Assign, IR.Reduce)):
            parts = [self.expr_effect(i) for i in s.idx]
            parts.append(self.expr_effect(s.rhs))
            view = self.tenv.view(s.name)
            idx_terms = [self._ctrl(i) for i in s.idx]
            pt = tuple(view.compose_index(idx_terms))
            leaf = EWrite if isinstance(s, IR.Assign) else EReduce
            parts.append(leaf(view.root, pt))
            return eseq(*parts)
        if isinstance(s, IR.WriteConfig):
            csym = config_sym(s.config, s.field)
            value = self._ctrl(s.rhs)
            eff = eseq(self.expr_effect(s.rhs), EGlobalWrite(csym, value))
            self.state.set(csym, value)
            return eff
        if isinstance(s, IR.Pass):
            return EMPTY
        if isinstance(s, IR.If):
            cond = self._ctrl(s.cond)
            cond_eff = self.expr_effect(s.cond)
            st0 = self.state.copy()
            body = self.block_effect(s.body)
            st_then = self.state
            self.state = st0.copy()
            orelse = self.block_effect(s.orelse)
            st_else = self.state
            from ..core.dataflow import _merge_states

            self.state = _merge_states(cond, st_then, st_else)
            out = [cond_eff, EGuard(cond, body)]
            if not isinstance(orelse, EEmpty):
                out.append(EGuard(S.negate(cond), orelse))
            return eseq(*out)
        if isinstance(s, IR.For):
            lo = self._ctrl(s.lo)
            hi = self._ctrl(s.hi)
            bound_eff = eseq(self.expr_effect(s.lo), self.expr_effect(s.hi))
            # stabilize the config state across iterations (havoc loop-variant
            # fields), then extract the body under the stabilized state
            entry, out = self.loop_entry(s.body)
            _obs.incr("dataflow.body_walks")
            body = self._spawn(entry).block_effect(s.body)
            self._exit_loop(entry, out)
            return eseq(bound_eff, ELoop(s.iter, lo, hi, body))
        if isinstance(s, IR.Alloc):
            self.tenv.enter_stmt(s)
            local_allocs.add(s.name)
            return EMPTY
        if isinstance(s, IR.WindowStmt):
            eff = self.expr_effect(s.rhs)
            self.tenv.enter_stmt(s)
            return eff
        if isinstance(s, IR.Call):
            return self._call_effect(s)
        raise InternalError(f"effect of unknown statement {type(s).__name__}")

    def _exit_loop(self, entry: GlobalState, out: GlobalState):
        """Post-loop state: havoc anything the body may change (``out`` is
        the state after one iteration from the stabilized ``entry``)."""
        exit_state = self.state.copy()
        for f in entry.changed_fields(self.state):
            exit_state.havoc(f)
        for f in out.changed_fields(entry):
            exit_state.havoc(f)
        self.state = exit_state

    def _stmt_state(self, s: IR.Stmt):
        """The state-only counterpart of :meth:`_stmt_effect`."""
        if isinstance(s, IR.WriteConfig):
            self.state.set(config_sym(s.config, s.field), self._ctrl(s.rhs))
        elif isinstance(s, (IR.Alloc, IR.WindowStmt)):
            self.tenv.enter_stmt(s)
        elif not _df.writes_config(s):
            return
        elif isinstance(s, IR.If):
            cond = self._ctrl(s.cond)
            st0 = self.state.copy()
            self.block_effect(s.body)
            st_then = self.state
            self.state = st0.copy()
            self.block_effect(s.orelse)
            self.state = _df._merge_states(cond, st_then, self.state)
        elif isinstance(s, IR.For):
            entry, out = self.loop_entry(s.body)
            self._exit_loop(entry, out)
        elif isinstance(s, IR.Call):
            self._call_effect(s)

    def _call_effect(self, s: IR.Call) -> Eff:
        callee = s.proc
        arg_effs = (
            [] if self.state_only else [self.expr_effect(a) for a in s.args]
        )
        # build the callee-side environment mapping formals onto the caller's
        # terms, views, and strides
        callee_tenv = TypeEnv()
        sub = {}
        stride_extra = {}
        for formal, actual in zip(callee.args, s.args):
            if formal.type.is_numeric():
                if formal.type.is_real_scalar():
                    if isinstance(actual, IR.Read):
                        view = self.tenv.view(actual.name)
                        if actual.idx:
                            # element argument: pin the view at that point
                            idx_terms = [self._ctrl(i) for i in actual.idx]
                            pts = view.compose_index(idx_terms)
                            from ..core.buffers import BufView, VPoint

                            view = BufView(
                                view.root, tuple(VPoint(p) for p in pts)
                            )
                        callee_tenv.types[formal.name] = formal.type
                        callee_tenv.views[formal.name] = view
                        self._carry_root(callee_tenv, view)
                    else:
                        callee_tenv.bind_root(formal.name, formal.type)
                    continue
                if isinstance(actual, IR.Read):
                    view = self.tenv.view(actual.name)
                elif isinstance(actual, IR.WindowExpr):
                    base = self.tenv.view(actual.name)
                    widx = [
                        (
                            ("iv", (self._ctrl(w.lo), self._ctrl(w.hi)))
                            if isinstance(w, IR.Interval)
                            else ("pt", self._ctrl(w.pt))
                        )
                        for w in actual.idx
                    ]
                    view = base.compose_window(widx)
                else:
                    raise InternalError("buffer argument must be a name or window")
                callee_tenv.types[formal.name] = formal.type
                callee_tenv.views[formal.name] = view
                self._carry_root(callee_tenv, view)
                rank = len(formal.type.shape())
                for d in range(rank):
                    stride_extra[(formal.name, d)] = _actual_stride(
                        actual, d, self.tenv
                    )
            else:
                sub[formal.name] = self._ctrl(actual)
        # preconditions read config fields: conservatively record those reads
        pred_reads = []
        for pred in callee.preds:
            for csym in _config_reads(pred):
                pred_reads.append(EGlobalRead(csym))
        inner = _CalleeExtractor(callee_tenv, self.state, sub, stride_extra)
        inner.state_only = self.state_only
        body_eff = inner.block_effect(callee.body)
        self.state = inner.state
        return eseq(*arg_effs, *pred_reads, body_eff)

    def _carry_root(self, callee_tenv: TypeEnv, view):
        """Carry the root buffer's type/mem into a callee environment, so
        the callee's own calls can still resolve stride terms for windows
        of its formals (views always ground out at the caller's root)."""
        root = view.root
        if root not in callee_tenv.types and root in self.tenv.types:
            callee_tenv.types[root] = self.tenv.types[root]
            callee_tenv.mems[root] = self.tenv.mems.get(root)


class _CalleeExtractor(EffectExtractor):
    """Extractor running inside a callee with formals substituted."""

    def __init__(self, tenv, state, sub, stride_extra):
        super().__init__(tenv, state)
        self.sub = sub
        self.stride_extra = stride_extra

    def _spawn(self, state):
        return _CalleeExtractor(self.tenv, state, self.sub, self.stride_extra)

    def _ctrl(self, e: IR.Expr) -> S.Term:
        t = lower_expr(e, _StrideEnv(self.tenv, self.stride_extra))
        t = S.substitute(t, self.sub)
        return self.state.subst_term(t)


def _config_reads(e: IR.Expr):
    out = []
    for sub in IR.walk_exprs(e):
        if isinstance(sub, IR.ReadConfig):
            out.append(config_sym(sub.config, sub.field))
    return out


# ---------------------------------------------------------------------------
# Effect manipulation
# ---------------------------------------------------------------------------


def _drop_bufs(eff: Eff, bufs: set) -> Eff:
    if isinstance(eff, (ERead, EWrite, EReduce)):
        return EMPTY if eff.buf in bufs else eff
    if isinstance(eff, ESeq):
        return eseq(*[_drop_bufs(p, bufs) for p in eff.parts])
    if isinstance(eff, EGuard):
        return dc_replace(eff, body=_drop_bufs(eff.body, bufs))
    if isinstance(eff, ELoop):
        return dc_replace(eff, body=_drop_bufs(eff.body, bufs))
    return eff


def eff_subst(eff: Eff, env: dict) -> Eff:
    """Substitute SMT variables throughout an effect."""
    if isinstance(eff, (ERead, EWrite, EReduce)):
        return type(eff)(eff.buf, tuple(S.substitute(i, env) for i in eff.idx))
    if isinstance(eff, EGlobalWrite):
        if eff.value is None:
            return eff
        return EGlobalWrite(eff.sym, S.substitute(eff.value, env))
    if isinstance(eff, EGlobalRead):
        return eff
    if isinstance(eff, ESeq):
        return ESeq(tuple(eff_subst(p, env) for p in eff.parts))
    if isinstance(eff, EGuard):
        return EGuard(S.substitute(eff.cond, env), eff_subst(eff.body, env))
    if isinstance(eff, ELoop):
        inner = {k: v for k, v in env.items() if k is not eff.iter}
        return ELoop(
            eff.iter,
            S.substitute(eff.lo, env),
            S.substitute(eff.hi, env),
            eff_subst(eff.body, inner),
        )
    return eff


def rename_iter(eff: Eff, old: Sym, new: Sym) -> Eff:
    return eff_subst(eff, {old: S.Var(new)})


def buffers_of(eff: Eff) -> dict:
    """Map from root buffer Sym to its access rank."""
    out = {}

    def walk(e):
        if isinstance(e, (ERead, EWrite, EReduce)):
            out[e.buf] = len(e.idx)
        elif isinstance(e, ESeq):
            for p in e.parts:
                walk(p)
        elif isinstance(e, (EGuard, ELoop)):
            walk(e.body)

    walk(eff)
    return out


def globals_of(eff: Eff) -> set:
    out = set()

    def walk(e):
        if isinstance(e, (EGlobalRead, EGlobalWrite)):
            out.add(e.sym)
        elif isinstance(e, ESeq):
            for p in e.parts:
                walk(p)
        elif isinstance(e, (EGuard, ELoop)):
            walk(e.body)

    walk(eff)
    return out


def global_writes(eff: Eff, csym: Sym, under=()):
    """All (guards, loop_binders, value) triples writing ``csym``."""
    out = []

    def walk(e, guards, loops):
        if isinstance(e, EGlobalWrite) and e.sym is csym:
            out.append((tuple(guards), tuple(loops), e.value))
        elif isinstance(e, ESeq):
            for p in e.parts:
                walk(p, guards, loops)
        elif isinstance(e, EGuard):
            walk(e.body, guards + [e.cond], loops)
        elif isinstance(e, ELoop):
            walk(e.body, guards, loops + [e])

    walk(eff, list(under), [])
    return out


# ---------------------------------------------------------------------------
# Location-set membership formulas (Definition 5.5, via polarity)
# ---------------------------------------------------------------------------

READ = "r"
WRITE = "w"
REDUCE = "+"

_LEAF = {READ: ERead, WRITE: EWrite, REDUCE: EReduce}


def mem(eff: Eff, kinds: str, root: Sym, point) -> S.Term:
    """Membership formula: is buffer ``root`` at ``point`` in any of the
    access sets named by ``kinds`` (a string of 'r', 'w', '+')?"""
    if isinstance(eff, (ERead, EWrite, EReduce)):
        for k in kinds:
            if isinstance(eff, _LEAF[k]) and eff.buf is root:
                return S.conj(*[S.eq(p, i) for p, i in zip(point, eff.idx)])
        return S.FALSE
    if isinstance(eff, ESeq):
        return S.disj(*[mem(p, kinds, root, point) for p in eff.parts])
    if isinstance(eff, EGuard):
        return S.conj(eff.cond, mem(eff.body, kinds, root, point))
    if isinstance(eff, ELoop):
        inner = mem(eff.body, kinds, root, point)
        if inner == S.FALSE:
            return S.FALSE
        x = eff.iter
        return S.exists(
            [x],
            S.conj(S.le(eff.lo, S.Var(x)), S.lt(S.Var(x), eff.hi), inner),
        )
    return S.FALSE


def mem_exposed(eff: Eff, kinds: str, root: Sym, point) -> S.Term:
    """Membership of ``point`` in the *exposed* access set of buffer
    ``root``: accesses of the given kinds not preceded by a definite write
    within ``eff`` -- the buffer-side analogue of :func:`gmem_exposed`,
    realizing the sequencing subtraction ``Rd(a1;a2) = Rd(a1) ∪ (Rd(a2) −
    DWr(a1))`` of Definition 5.5 for ``Locs``.  The shadowing write
    membership appears negated, so it takes the *definite* reading.

    Loops take the conservative per-iteration view: an access exposed
    within one iteration counts as exposed (shadowing by *earlier
    iterations* of the same loop is not credited)."""
    if isinstance(eff, (ERead, EWrite, EReduce)):
        for k in kinds:
            if isinstance(eff, _LEAF[k]) and eff.buf is root:
                return S.conj(*[S.eq(p, i) for p, i in zip(point, eff.idx)])
        return S.FALSE
    if isinstance(eff, ESeq):
        out = []
        for i, part in enumerate(eff.parts):
            exposed = mem_exposed(part, kinds, root, point)
            if exposed == S.FALSE:
                continue
            shadows = [
                S.negate(mem(prev, "w", root, point)) for prev in eff.parts[:i]
            ]
            out.append(S.conj(exposed, *shadows))
        return S.disj(*out)
    if isinstance(eff, EGuard):
        return S.conj(eff.cond, mem_exposed(eff.body, kinds, root, point))
    if isinstance(eff, ELoop):
        inner = mem_exposed(eff.body, kinds, root, point)
        if inner == S.FALSE:
            return S.FALSE
        x = eff.iter
        return S.exists(
            [x],
            S.conj(S.le(eff.lo, S.Var(x)), S.lt(S.Var(x), eff.hi), inner),
        )
    return S.FALSE


def gmem_exposed(eff: Eff, csym: Sym) -> S.Term:
    """Membership of ``csym`` in the *exposed* global read set: reads not
    preceded by a definite write within the effect (the sequencing
    subtraction ``Rdg(a1;a2) = Rdg(a1) ∪ (Rdg(a2) − Wrg(a1))`` of
    Definition 5.5).  This is the set the §6.2 context condition needs: a
    code region that definitely re-establishes a polluted config field
    before reading it is insensitive to the pollution."""
    if isinstance(eff, EGlobalRead):
        return S.mk_bool(eff.sym is csym)
    if isinstance(eff, EGlobalWrite):
        return S.FALSE
    if isinstance(eff, ESeq):
        out = []
        for i, part in enumerate(eff.parts):
            exposed = gmem_exposed(part, csym)
            if exposed == S.FALSE:
                continue
            # shadowed by a definite write in any earlier part; the write
            # membership appears negated, so it takes the D reading
            shadows = [
                S.negate(gmem(prev, "w", csym)) for prev in eff.parts[:i]
            ]
            out.append(S.conj(exposed, *shadows))
        return S.disj(*out)
    if isinstance(eff, EGuard):
        return S.conj(eff.cond, gmem_exposed(eff.body, csym))
    if isinstance(eff, ELoop):
        # conservative: a read exposed within one iteration is exposed
        inner = gmem_exposed(eff.body, csym)
        if inner == S.FALSE:
            return S.FALSE
        x = eff.iter
        return S.exists(
            [x],
            S.conj(S.le(eff.lo, S.Var(x)), S.lt(S.Var(x), eff.hi), inner),
        )
    return S.FALSE


def gmem(eff: Eff, kinds: str, csym: Sym) -> S.Term:
    """Membership formula for global (config) location sets."""
    if isinstance(eff, EGlobalRead):
        return S.mk_bool("r" in kinds and eff.sym is csym)
    if isinstance(eff, EGlobalWrite):
        return S.mk_bool("w" in kinds and eff.sym is csym)
    if isinstance(eff, ESeq):
        return S.disj(*[gmem(p, kinds, csym) for p in eff.parts])
    if isinstance(eff, EGuard):
        return S.conj(eff.cond, gmem(eff.body, kinds, csym))
    if isinstance(eff, ELoop):
        inner = gmem(eff.body, kinds, csym)
        if inner == S.FALSE:
            return S.FALSE
        x = eff.iter
        return S.exists(
            [x],
            S.conj(S.le(eff.lo, S.Var(x)), S.lt(S.Var(x), eff.hi), inner),
        )
    return S.FALSE
