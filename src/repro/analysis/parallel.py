"""Loop-parallelism race detector (iteration independence).

A ``for`` loop may run its iterations concurrently when any two distinct
iterations *commute* -- no write/write, write/read or reduce/reduce pair
of accesses from different iterations may touch the same buffer location,
and the body must not write configuration state at all (config fields are
inherently sequential: a hardware register has no per-thread copy).

The proof obligations are assembled exactly like the §5.8 rewrite checks
in :mod:`repro.effects.api`: extract the body effect once, duplicate it
under a second fresh iteration variable ``i'`` with ``lo <= i' < i < hi``,
and discharge location-set disjointness to the SMT layer.  Note this is
*stricter* than ``check_commutes``: a reduce/reduce pair commutes for
sequential reordering, but C ``+=`` is not atomic, so it still races
under OpenMP.

On failure the detector names the exact conflicting pair of accesses by
checking each pair of effect leaves separately (each from
:func:`repro.effects.effects.leaves`, wrapped in its enclosing guards and
loop existentials by ``within``), and asks the solver for a
satisfying assignment of the overlap formula -- a concrete counterexample
(iteration numbers, sizes, the shared location).  The search for it is the
error's ``witness``: it runs only when the message is formatted.

The check takes the loop's :class:`~repro.effects.api.Ctx` from a walk
that visits it: :func:`repro.core.checks.check_proc` re-checks every
``par`` loop from its one walk of the procedure, and :func:`lint` runs
the check over every loop of a procedure from one walk, classifying each
as ``parallel`` / ``sequential(reason)`` / ``unknown`` (the analysis
itself crashed -- a bug, surfaced loudly so the detector stays total).
Only the ``parallelize`` directive, which asks about one loop, walks to
it alone (:func:`check_parallel_loop`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..core import ast as IR
from ..core.dataflow import iter_contexts
from ..core.pprint import expr_to_str
from ..core.prelude import SchedulingError, Sym
from ..effects.api import Ctx
from ..effects.effects import (
    ERead,
    EReduce,
    EWrite,
    buffers_of,
    global_writes,
    globals_of,
    leaves,
    mem,
    rename_iter,
    within,
)
from ..obs import trace as _obs
from ..smt import terms as S
from ..smt.solver import DEFAULT_SOLVER
from .absint import prove

_KIND_WORD = {"r": "read", "w": "write", "+": "reduce"}


_LEAF_KIND = {ERead: "r", EWrite: "w", EReduce: "+"}


def _leaf_accesses(eff, root: Sym, point):
    """Per-leaf membership formulas for ``root``: a list of
    ``(kind, idx_terms, formula)`` where ``formula`` says ``point`` is the
    location this single access touches, wrapped in the guards and loop
    existentials enclosing the leaf.  ``mem(eff, k, root, p)`` is the
    disjunction of these, so checking pairs of leaves refines the
    aggregate disjointness query without changing its verdict."""
    out = []
    for leaf, ctx in leaves(eff):
        if type(leaf) in _LEAF_KIND and leaf.buf is root:
            f = S.conj(*[S.eq(p, i) for p, i in zip(point, leaf.idx)])
            for node in reversed(ctx):
                f = within(node, f)
            out.append((_LEAF_KIND[type(leaf)], leaf.idx, f))
    return out


def _describe(kind: str, root: Sym, idx) -> str:
    if idx:
        return f"{_KIND_WORD[kind]} {root}[{', '.join(S.term_to_str(i) for i in idx)}]"
    return f"{_KIND_WORD[kind]} {root}"


def _counterexample(assumptions, conflict, x: Sym, x2: Sym, point, root: Sym):
    """Render a satisfying assignment of ``assumptions /\\ conflict`` as a
    human-readable witness, or None when the solver cannot pin one."""
    model = DEFAULT_SOLVER.find_model(S.conj(*assumptions, conflict))
    if not model:
        return None
    parts = []
    if x in model and x2 in model:
        parts.append(f"iterations {x.name} = {model[x2]} and {x.name} = {model[x]}")
    point_syms = [p.sym for p in point]
    vals = [model.get(ps) for ps in point_syms]
    if all(v is not None for v in vals):
        loc = f"{root}" + (f"[{', '.join(str(v) for v in vals)}]" if vals else "")
        parts.append(f"both touch {loc}")
    skip = set(point_syms) | {x, x2}
    rest = sorted(
        ((s, v) for s, v in model.items() if s not in skip),
        key=lambda kv: (kv[0].name, kv[0].id),
    )
    if rest:
        parts.append(", ".join(f"{s.name} = {v}" for s, v in rest[:6]))
    return "; ".join(parts) if parts else None


def check_parallel_loop(proc: IR.Proc, loop_path, what="parallelize"):
    """Prove the ``For`` at ``loop_path`` has independent iterations.

    Raises :class:`SchedulingError` naming the conflicting pair of
    accesses (with a concrete counterexample when the solver finds one)
    if any two distinct iterations may race."""
    loop = IR.get_stmt(proc, loop_path)
    if not isinstance(loop, IR.For):
        raise SchedulingError(f"{what}: not a loop")
    with _obs.span("analysis.parallel"):
        _check_parallel_loop(Ctx.at(proc, loop_path), loop, what)


def _check_parallel_loop(ctx: Ctx, loop: IR.For, what):
    """The race check of ``loop`` in its context ``ctx``."""
    x = loop.iter
    ex = ctx.extractor()
    lo, hi = ex._ctrl(loop.lo), ex._ctrl(loop.hi)
    # the body's effect with config state stabilized across iterations
    # (the fixpoint the fission check computes)
    a = ex.loop_body(loop.body).block_effect(loop.body)

    # config state is shared and sequential: any write in the body races
    # with the next iteration's read or write of the same register
    for g in sorted(globals_of(a), key=lambda s: (s.name, s.id)):
        if global_writes(a, g):
            raise SchedulingError(
                f"{what}: loop {x} is not parallelizable\n"
                f"  the loop body writes config field {g}; "
                f"config state is sequential"
            )

    x2 = x.copy()
    a2 = rename_iter(a, x, x2)
    bound = [
        S.le(lo, S.Var(x)),
        S.lt(S.Var(x), hi),
        S.le(lo, S.Var(x2)),
        S.lt(S.Var(x2), hi),
        S.lt(S.Var(x2), S.Var(x)),
    ]
    assumptions = ctx.assumptions.push(bound)

    bufs = buffers_of(a)
    for root in sorted(bufs, key=lambda s: (s.name, s.id)):
        rank = bufs[root]
        p = [S.Var(Sym(f"p{d}")) for d in range(rank)]
        # aggregate queries first (cheap happy path): a conflict needs at
        # least one writing/reducing side
        agg = [
            (mem(a, "w+", root, p), mem(a2, "rw+", root, p)),
            (mem(a2, "w+", root, p), mem(a, "r", root, p)),
        ]
        clean = True
        for f1, f2 in agg:
            if f1 == S.FALSE or f2 == S.FALSE:
                continue
            if not prove(assumptions, S.negate(S.conj(f1, f2)), "parallel"):
                clean = False
                break
        if clean:
            continue
        # drill down to name the exact conflicting pair of accesses
        leaves1 = _leaf_accesses(a, root, p)
        leaves2 = _leaf_accesses(a2, root, p)
        # the original (un-renamed) leaves give readable index expressions
        # for the second iteration's accesses; structure is identical
        display2 = _leaf_accesses(a, root, p)
        for k1, idx1, f1 in leaves1:
            for (k2, _idx2, f2), (_, idx2d, _) in zip(leaves2, display2):
                if k1 == "r" and k2 == "r":
                    continue
                conflict = S.conj(f1, f2)
                if prove(assumptions, S.negate(conflict), "parallel"):
                    continue
                msg = (
                    f"{what}: loop {x} is not parallelizable\n"
                    f"  conflicting pair on {root}: "
                    f"{_describe(k1, root, idx1)} (iteration {x.name}) with "
                    f"{_describe(k2, root, idx2d)} (iteration {x.name}')"
                )

                def render():
                    witness = _counterexample(assumptions, conflict, x, x2, p, root)
                    return f"{msg}\n  counterexample: {witness}" if witness else msg

                raise SchedulingError(msg, witness=render)
        # the aggregate failed but no single pair did: should not happen
        # (the aggregate is the disjunction of the pairs), but stay safe
        raise SchedulingError(
            f"{what}: loop {x} is not parallelizable\n"
            f"  cannot prove accesses to {root} disjoint across iterations"
        )


# ---------------------------------------------------------------------------
# Whole-procedure lint
# ---------------------------------------------------------------------------

PARALLEL = "parallel"
SEQUENTIAL = "sequential"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class LoopVerdict:
    """Classification of one loop of a procedure."""

    path: tuple
    header: str  # e.g. "for i in seq(0, n)"
    depth: int
    verdict: str  # parallel | sequential | unknown
    reason: str = ""

    def describe(self) -> str:
        pad = "  " * self.depth
        line = f"[{self.verdict:>10}] {pad}{self.header}"
        if self.reason:
            rlines = [ln.strip() for ln in self.reason.splitlines() if ln.strip()]
            # skip the "loop i is not parallelizable" preamble if present
            gist = rlines[1] if len(rlines) > 1 else rlines[0]
            line += f"  -- {gist}"
        return line


@dataclass
class LintReport:
    """All loop verdicts for one procedure, printable as a table."""

    proc_name: str
    verdicts: List[LoopVerdict] = field(default_factory=list)

    def counts(self) -> dict:
        out = {PARALLEL: 0, SEQUENTIAL: 0, UNKNOWN: 0}
        for v in self.verdicts:
            out[v.verdict] += 1
        return out

    def __str__(self):
        lines = [f"parallelism lint: {self.proc_name}"]
        lines += [f"  {v.describe()}" for v in self.verdicts]
        c = self.counts()
        lines.append(
            f"  {c[PARALLEL]} parallel, {c[SEQUENTIAL]} sequential, "
            f"{c[UNKNOWN]} unknown"
        )
        return "\n".join(lines)

    def __iter__(self):
        return iter(self.verdicts)


def lint_proc(proc: IR.Proc) -> LintReport:
    """Classify every loop of a raw IR procedure (see :func:`lint`), each
    in its context from one walk of ``proc``."""
    report = LintReport(proc.name)
    with _obs.span("analysis.lint"):
        for loop, path, facts, state, tenv in iter_contexts(proc):
            if not isinstance(loop, IR.For):
                continue
            depth = sum(  # loops among the enclosing statements
                isinstance(IR.get_stmt(proc, path[:k]), IR.For)
                for k in range(1, len(path))
            )
            header = (
                f"for {loop.iter} in seq({expr_to_str(loop.lo)}, "
                f"{expr_to_str(loop.hi)})"
            )
            try:
                with _obs.span("analysis.parallel"):
                    _check_parallel_loop(Ctx(facts, state, tenv), loop, "lint")
                verdict, reason = PARALLEL, ""
            except SchedulingError as err:
                verdict, reason = SEQUENTIAL, str(err)
            except Exception as err:  # analysis crash: surface, don't hide
                verdict = UNKNOWN
                reason = f"{type(err).__name__}: {err}"
            _obs.incr(f"analysis.lint.{verdict}")
            report.verdicts.append(
                LoopVerdict(path, header, depth, verdict, reason)
            )
    return report


def lint(proc) -> LintReport:
    """Classify every loop of ``proc`` as parallel / sequential / unknown.

    Accepts a raw :class:`repro.core.ast.Proc` or an API
    ``Procedure``.  Verdict counts are recorded as obs counters
    (``analysis.lint.parallel`` etc.) while tracing is enabled, so a
    compile profile shows parallelism coverage."""
    return lint_proc(getattr(proc, "_loopir_proc", proc))
