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
from ..core.buffers import BufView, TypeEnv, VPoint
from ..core import dataflow as _df
from ..core.dataflow import GlobalState
from ..core.ir2smt import config_sym
from ..core.prelude import InternalError, Sym
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
    Inside a callee body, ``sub`` and ``strides`` substitute the formals
    (:func:`repro.core.dataflow.bind_call`).  How each statement changes
    ``state`` is decided by :mod:`repro.core.dataflow`; the extractor only
    builds the effects.
    """

    def __init__(self, tenv: TypeEnv, state: Optional[GlobalState] = None,
                 sub=None, strides=None):
        self.frame = _df.Frame(tenv, sub, strides)
        self.state = (state or GlobalState()).copy()

    def _spawn(self, state: GlobalState) -> "EffectExtractor":
        """A child extractor over the same frame from ``state``."""
        f = self.frame
        return EffectExtractor(f.tenv, state, f.sub, f.strides)

    def loop_body(self, body) -> "EffectExtractor":
        """A child extractor positioned at the top of an iteration of
        ``body``: its state is the stabilized loop-entry state
        (:func:`repro.core.dataflow.loop_fixpoint`)."""
        entry, _out, _havoc_vars = _df.loop_fixpoint(body, self.state, self.frame)
        return self._spawn(entry)

    # -- expressions -------------------------------------------------------

    def expr_effect(self, e: IR.Expr) -> Eff:
        """Read effects of an expression (data reads + config reads)."""
        out = []

        def walk(e):  # post-order: index reads precede the access
            for sub in IR.sub_exprs(e):
                walk(sub)
            if isinstance(e, IR.Read):
                if e.idx or (e.type is not None and e.type.is_real_scalar()):
                    view = self.frame.tenv.view(e.name)
                    idx_terms = [self._ctrl(i) for i in e.idx]
                    out.append(ERead(view.root, tuple(view.compose_index(idx_terms))))
            elif isinstance(e, IR.ReadConfig):
                out.append(EGlobalRead(config_sym(e.config, e.field)))

        walk(e)
        return eseq(*out)

    def _ctrl(self, e: IR.Expr) -> S.Term:
        return self.frame.lower(e, self.state)

    # -- statements ----------------------------------------------------------

    def block_effect(self, stmts) -> Eff:
        """Effect of a block; local allocations are scoped out."""
        saved_frame = self.frame
        self.frame = saved_frame.scoped()
        local_allocs = set()
        parts = []
        for s in stmts:
            parts.append(self._stmt_effect(s, local_allocs))
        eff = eseq(*parts)
        self.frame = saved_frame
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
            view = self.frame.tenv.view(s.name)
            idx_terms = [self._ctrl(i) for i in s.idx]
            pt = tuple(view.compose_index(idx_terms))
            leaf = EWrite if isinstance(s, IR.Assign) else EReduce
            parts.append(leaf(view.root, pt))
            return eseq(*parts)
        if isinstance(s, IR.WriteConfig):
            csym = config_sym(s.config, s.field)
            eff = self.expr_effect(s.rhs)
            self.state = _df.step(s, self.state, self.frame)
            return eseq(eff, EGlobalWrite(csym, self.state.get(csym)))
        if isinstance(s, IR.Pass):
            return EMPTY
        if isinstance(s, IR.If):
            cond = self._ctrl(s.cond)
            cond_eff = self.expr_effect(s.cond)
            st0 = self.state
            body = self.block_effect(s.body)
            st_then = self.state
            self.state = st0
            orelse = self.block_effect(s.orelse)
            self.state = _df.merge_states(cond, st_then, self.state)
            out = [cond_eff, EGuard(cond, body)]
            if not isinstance(orelse, EEmpty):
                out.append(EGuard(S.negate(cond), orelse))
            return eseq(*out)
        if isinstance(s, IR.For):
            bound_eff = eseq(self.expr_effect(s.lo), self.expr_effect(s.hi))
            loop = []

            def body(entry, lo, hi):
                eff = self._spawn(entry).block_effect(s.body)
                loop.append(ELoop(s.iter, lo, hi, eff))

            self.state = _df.walk_loop(s, self.state, self.frame, visit=body)
            return eseq(bound_eff, *loop)
        if isinstance(s, IR.Alloc):
            self.state = _df.step(s, self.state, self.frame)
            local_allocs.add(s.name)
            return EMPTY
        if isinstance(s, IR.WindowStmt):
            eff = self.expr_effect(s.rhs)
            self.state = _df.step(s, self.state, self.frame)
            return eff
        if isinstance(s, IR.Call):
            return self._call_effect(s)
        raise InternalError(f"effect of unknown statement {type(s).__name__}")

    def _call_effect(self, s: IR.Call) -> Eff:
        callee = s.proc
        arg_effs = [self.expr_effect(a) for a in s.args]
        frame = _df.bind_call(s, self.state, self.frame)
        # on top of the binding: buffer formals resolve to views in the
        # caller's root coordinates
        for formal, actual in zip(callee.args, s.args):
            if not formal.type.is_numeric():
                continue
            if formal.type.is_real_scalar() and not isinstance(actual, IR.Read):
                continue
            view = self._arg_view(actual)
            frame.tenv.views[formal.name] = view
            self._carry_root(frame.tenv, view)
        # preconditions read config fields: conservatively record those reads
        pred_reads = []
        for pred in callee.preds:
            for csym in _config_reads(pred):
                pred_reads.append(EGlobalRead(csym))
        inner = EffectExtractor(frame.tenv, self.state, frame.sub, frame.strides)
        body_eff = inner.block_effect(callee.body)
        self.state = inner.state
        return eseq(*arg_effs, *pred_reads, body_eff)

    def _arg_view(self, actual: IR.Expr):
        """The caller-side view a buffer argument passes to its formal."""
        if isinstance(actual, IR.Read):
            view = self.frame.tenv.view(actual.name)
            if actual.idx:
                # element argument: pin the view at that point
                pts = view.compose_index([self._ctrl(i) for i in actual.idx])
                view = BufView(view.root, tuple(VPoint(p) for p in pts))
            return view
        if isinstance(actual, IR.WindowExpr):
            widx = [
                (
                    ("iv", (self._ctrl(w.lo), self._ctrl(w.hi)))
                    if isinstance(w, IR.Interval)
                    else ("pt", self._ctrl(w.pt))
                )
                for w in actual.idx
            ]
            return self.frame.tenv.view(actual.name).compose_window(widx)
        raise InternalError("buffer argument must be a name or window")

    def _carry_root(self, callee_tenv: TypeEnv, view):
        """Carry the root buffer's type/mem into a callee environment, so
        the callee's own calls can still resolve stride terms for windows
        of its formals (views always ground out at the caller's root)."""
        root = view.root
        tenv = self.frame.tenv
        if root not in callee_tenv.types and root in tenv.types:
            callee_tenv.types[root] = tenv.types[root]
            callee_tenv.mems[root] = tenv.mems.get(root)


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


def leaves(eff: Eff):
    """Yield ``(leaf, ctx)`` for every access leaf of ``eff`` in program
    order, where ``ctx`` is the tuple of :class:`EGuard`/:class:`ELoop`
    nodes enclosing the leaf, outermost first.  ``EEmpty`` yields
    nothing."""
    stack = [(eff, ())]
    while stack:
        e, ctx = stack.pop()
        if isinstance(e, ESeq):
            stack.extend((p, ctx) for p in reversed(e.parts))
        elif isinstance(e, (EGuard, ELoop)):
            stack.append((e.body, ctx + (e,)))
        elif not isinstance(e, EEmpty):
            yield e, ctx


def within(node: Eff, f: S.Term) -> S.Term:
    """``f`` under one enclosing guard (``cond ∧ f``) or loop
    (``∃ iter. lo ≤ iter < hi ∧ f``)."""
    if f == S.FALSE:
        return f
    if isinstance(node, EGuard):
        return S.conj(node.cond, f)
    x = S.Var(node.iter)
    return S.exists([node.iter], S.conj(S.le(node.lo, x), S.lt(x, node.hi), f))


def split_ctx(ctx):
    """A leaf's ``ctx`` as (guard conditions, enclosing loops)."""
    return (
        tuple(n.cond for n in ctx if isinstance(n, EGuard)),
        tuple(n for n in ctx if isinstance(n, ELoop)),
    )


def buffers_of(eff: Eff) -> dict:
    """Map from root buffer Sym to its access rank, in first-access order."""
    return {leaf.buf: len(leaf.idx) for leaf, _ctx in leaves(eff)
            if isinstance(leaf, (ERead, EWrite, EReduce))}


def globals_of(eff: Eff) -> dict:
    """The config fields ``eff`` accesses, in first-access order (keys)."""
    return dict.fromkeys(leaf.sym for leaf, _ctx in leaves(eff)
                         if isinstance(leaf, (EGlobalRead, EGlobalWrite)))


def global_writes(eff: Eff, csym: Sym):
    """All (guards, loop_binders, value) triples writing ``csym``."""
    return [(*split_ctx(ctx), leaf.value) for leaf, ctx in leaves(eff)
            if isinstance(leaf, EGlobalWrite) and leaf.sym is csym]


# ---------------------------------------------------------------------------
# Location-set membership formulas (Definition 5.5, via polarity)
# ---------------------------------------------------------------------------

READ = "r"
WRITE = "w"
REDUCE = "+"

_LEAF = {READ: ERead, WRITE: EWrite, REDUCE: EReduce}
_GLOBAL_LEAF = {READ: EGlobalRead, WRITE: EGlobalWrite}


def _member(eff: Eff, hit) -> S.Term:
    """Membership in the location set whose leaves ``hit`` maps to a
    formula (``S.FALSE`` for a leaf outside it): the disjunction over the
    leaves, each under its enclosing guards and loops."""
    if isinstance(eff, ESeq):
        return S.disj(*[_member(p, hit) for p in eff.parts])
    if isinstance(eff, (EGuard, ELoop)):
        return within(eff, _member(eff.body, hit))
    return hit(eff)


def _exposed(eff: Eff, hit, write_hit) -> S.Term:
    """Like :func:`_member`, but a leaf in sequence after a part that
    definitely writes the location (``write_hit``) is shadowed: the
    sequencing subtraction of Definition 5.5.  The write membership
    appears negated, so it takes the *definite* reading.  Loops take the
    conservative per-iteration view: shadowing by earlier iterations of
    the same loop is not credited."""
    if isinstance(eff, ESeq):
        out = []
        for i, part in enumerate(eff.parts):
            exposed = _exposed(part, hit, write_hit)
            if exposed == S.FALSE:
                continue
            shadows = [S.negate(_member(prev, write_hit))
                       for prev in eff.parts[:i]]
            out.append(S.conj(exposed, *shadows))
        return S.disj(*out)
    if isinstance(eff, (EGuard, ELoop)):
        return within(eff, _exposed(eff.body, hit, write_hit))
    return hit(eff)


def _buf_hit(kinds: str, root: Sym, point):
    leaf_types = tuple(_LEAF[k] for k in kinds)

    def hit(e):
        if isinstance(e, leaf_types) and e.buf is root:
            return S.conj(*[S.eq(p, i) for p, i in zip(point, e.idx)])
        return S.FALSE

    return hit


def _global_hit(kinds: str, csym: Sym):
    leaf_types = tuple(_GLOBAL_LEAF[k] for k in kinds if k in _GLOBAL_LEAF)
    return lambda e: S.mk_bool(isinstance(e, leaf_types) and e.sym is csym)


def mem(eff: Eff, kinds: str, root: Sym, point) -> S.Term:
    """Membership formula: is buffer ``root`` at ``point`` in any of the
    access sets named by ``kinds`` (a string of 'r', 'w', '+')?"""
    return _member(eff, _buf_hit(kinds, root, point))


def mem_exposed(eff: Eff, kinds: str, root: Sym, point) -> S.Term:
    """Membership of ``point`` in the *exposed* access set of buffer
    ``root``: accesses of the given kinds not preceded by a definite write
    within ``eff`` -- the buffer-side analogue of :func:`gmem_exposed`,
    realizing ``Rd(a1;a2) = Rd(a1) ∪ (Rd(a2) − DWr(a1))`` of Definition
    5.5 for ``Locs``."""
    return _exposed(
        eff, _buf_hit(kinds, root, point), _buf_hit(WRITE, root, point)
    )


def gmem_exposed(eff: Eff, csym: Sym) -> S.Term:
    """Membership of ``csym`` in the *exposed* global read set: reads not
    preceded by a definite write within the effect (the sequencing
    subtraction ``Rdg(a1;a2) = Rdg(a1) ∪ (Rdg(a2) − Wrg(a1))`` of
    Definition 5.5).  This is the set the §6.2 context condition needs: a
    code region that definitely re-establishes a polluted config field
    before reading it is insensitive to the pollution."""
    return _exposed(eff, _global_hit(READ, csym), _global_hit(WRITE, csym))


def gmem(eff: Eff, kinds: str, csym: Sym) -> S.Term:
    """Membership formula for global (config) location sets."""
    return _member(eff, _global_hit(kinds, csym))
