"""Whole-procedure sanitizers: uninit-read, dead-write, dead-alloc.

The effect language of §5 already has the vocabulary for whole classes of
bugs the rewrite checks never look for: reads of never-written buffer
locations, stores shadowed before anyone observes them, allocations nobody
reads.  This module turns that vocabulary into three *reporting* analyses
(findings, not exceptions -- a finding is a warning, not a rejection):

* **uninit-read** -- a read whose location is not provably covered by
  prior writes within the buffer's scope.  Checked per allocation over the
  rest of its block: the interval-box write-coverage domain
  (:mod:`repro.analysis.absint`) decides the common dense-footprint cases
  without an SMT call, and borderline cases are refined by the solver.
  Warns with a concrete witness location when the solver finds one.

* **dead-write** -- a buffer store (or reduction) whose value is provably
  never observed: no later exposed read (the ``Shadows`` sequencing
  subtraction, :func:`repro.effects.effects.mem_exposed`), and -- for
  argument buffers, which the caller observes -- a definite later
  overwrite.  Config writes get the analogous check through
  :func:`repro.effects.effects.gmem_exposed` and ``global_writes``.

* **dead-alloc** -- allocated, never read.

Findings are *proofs* for the dead-write family (reported only when
deadness is provable) and *failures to prove* for uninit-read (reported
when coverage cannot be established -- with loops credited one iteration
at a time, a cross-iteration initialization pattern can produce a spurious
warning; silence it by restructuring or by reviewing the witness).

All solver traffic is tagged with the ``sanitize`` query category.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..core import ast as IR
from ..core.dataflow import iter_contexts, lower_ctrl
from ..core.ir2smt import config_sym
from ..core.pprint import expr_to_str
from ..effects.api import fresh_point, post_effect
from ..effects.effects import (
    EffectExtractor,
    global_writes,
    gmem_exposed,
    mem,
    mem_exposed,
)
from ..obs import trace as _obs
from ..smt import terms as S
from ..smt.solver import DEFAULT_SOLVER, format_model
from . import absint

UNINIT_READ = "uninit-read"
DEAD_WRITE = "dead-write"
DEAD_CONFIG_WRITE = "dead-config-write"
DEAD_ALLOC = "dead-alloc"

KINDS = (UNINIT_READ, DEAD_WRITE, DEAD_CONFIG_WRITE, DEAD_ALLOC)


@dataclass(frozen=True)
class Finding:
    """One sanitizer diagnostic, naming the offending access and where."""

    kind: str  # one of KINDS
    proc: str
    buffer: str  # buffer or config field name
    srcinfo: object
    message: str

    def describe(self) -> str:
        return f"[{self.kind}] {self.srcinfo}: {self.message}"


@dataclass
class SanitizeReport:
    """All findings for one procedure, printable as a list."""

    proc_name: str
    findings: List[Finding] = field(default_factory=list)

    def counts(self) -> dict:
        out = {k: 0 for k in KINDS}
        for f in self.findings:
            out[f.kind] += 1
        return out

    @property
    def clean(self) -> bool:
        return not self.findings

    def __iter__(self):
        return iter(self.findings)

    def __len__(self):
        return len(self.findings)

    def __str__(self):
        lines = [f"sanitize: {self.proc_name}"]
        if not self.findings:
            lines.append("  no findings")
        lines += [f"  {f.describe()}" for f in self.findings]
        return "\n".join(lines)


def _witness(assumptions, formula, point) -> str:
    """Render a model of ``assumptions ∧ formula`` -- the concrete location
    and inputs under which the unproven read is actually uninitialized."""
    model = DEFAULT_SOLVER.find_model(S.conj(*assumptions, formula))
    if not model:
        return ""
    psyms = [v.sym for v in point]
    vals = [model.get(ps) for ps in psyms]
    parts = []
    if psyms and all(v is not None for v in vals):
        parts.append(f"location [{', '.join(str(v) for v in vals)}]")
    rest = format_model(model, 6, set(psyms))
    if rest:
        parts.append(rest)
    return f" (witness: {'; '.join(parts)})" if parts else ""


# ---------------------------------------------------------------------------
# uninit-read + dead-alloc (per allocation, over the rest of its block)
# ---------------------------------------------------------------------------


def _check_alloc(proc, path, s, assumptions, state, tenv, report, dead_allocs):
    rest = IR.block_at(proc, path)[path[-1][1] + 1 :]
    buf = s.name
    rank = len(s.type.shape()) if s.type.is_tensor_or_window() else 0
    p = fresh_point(rank)
    tenv = tenv.copy()
    tenv.enter_stmt(s)
    ex = EffectExtractor(tenv, state.copy())
    effs = ex.stmt_effects(rest)

    seen_read = False
    cum = []  # effects of earlier statements in the block
    cover = []  # interval boxes their definite writes provably cover
    for st, eff in zip(rest, effs):
        reads_here = mem_exposed(eff, "r+", buf, p)
        if reads_here != S.FALSE:
            seen_read = True
            exposed = S.conj(
                reads_here, *[S.negate(mem(c, "w", buf, p)) for c in cum]
            )
            covered = exposed == S.FALSE or absint.covers_reads(
                assumptions, eff, buf, cover
            )
            if not covered and not absint.prove(
                assumptions, S.negate(exposed), "sanitize"
            ):
                wit = _witness(assumptions, exposed, p)
                report.findings.append(
                    Finding(
                        UNINIT_READ,
                        proc.name,
                        str(buf),
                        st.srcinfo,
                        f"read of {buf} may observe uninitialized memory{wit}",
                    )
                )
        cum.append(eff)
        cover.extend(absint.write_boxes(eff, buf, assumptions))
    if not seen_read:
        dead_allocs.add(buf)
        report.findings.append(
            Finding(
                DEAD_ALLOC,
                proc.name,
                str(buf),
                s.srcinfo,
                f"{buf} is allocated but never read",
            )
        )


# ---------------------------------------------------------------------------
# dead-write (buffer stores / reductions)
# ---------------------------------------------------------------------------


def _expr_mentions(e, aliases) -> bool:
    for sub in IR.walk_exprs(e):
        if isinstance(sub, (IR.Read, IR.WindowExpr)) and sub.name in aliases:
            return True
    return False


def _block_reads(stmts, aliases) -> bool:
    """Conservative: may any statement in ``stmts`` read a buffer aliasing
    the tracked root?  Calls count as reads of every argument (the callee
    may read it); window statements extend the alias set."""
    aliases = set(aliases)
    for s in stmts:
        if isinstance(s, IR.WindowStmt):
            if s.rhs.name in aliases:
                aliases.add(s.name)
            continue
        if isinstance(s, IR.Reduce) and s.name in aliases:
            return True
        if isinstance(s, (IR.Assign, IR.Reduce)):
            if any(_expr_mentions(e, aliases) for e in IR.stmt_exprs(s)):
                return True
        elif isinstance(s, IR.Call):
            if any(_expr_mentions(a, aliases) for a in s.args):
                return True
        elif isinstance(s, IR.If):
            if _expr_mentions(s.cond, aliases):
                return True
            if _block_reads(s.body, aliases) or _block_reads(s.orelse, aliases):
                return True
        elif isinstance(s, IR.For):
            if _expr_mentions(s.lo, aliases) or _expr_mentions(s.hi, aliases):
                return True
            if _block_reads(s.body, aliases):
                return True
    return False


def _enclosing_loop_reads(proc, path, root, tenv) -> bool:
    """Does any enclosing loop's body possibly read ``root``?  If so, a
    later *iteration* may observe the store, which ``stmts_after`` cannot
    see -- the dead-write check must stand down."""
    aliases = {n for n, v in tenv.views.items() if v.root is root}
    aliases.add(root)
    for container in IR.get_enclosing(proc, path)[1:]:
        if isinstance(container, IR.For) and _block_reads(container.body, aliases):
            return True
    return False


def _check_dead_store(
    proc, path, s, assumptions, state, tenv, report, dead_allocs
):
    view = tenv.view(s.name)
    root = view.root
    if root in dead_allocs:
        return  # the whole buffer is already reported as dead
    if _enclosing_loop_reads(proc, path, root, tenv):
        return
    is_local = root not in {a.name for a in proc.args}
    idx_terms = [lower_ctrl(i, tenv, state) for i in s.idx]
    pt = list(view.compose_index(idx_terms))
    p = fresh_point(len(pt))
    wrote = S.conj(*[S.eq(pi, t) for pi, t in zip(p, pt)])
    post = post_effect(proc, path, tenv)
    exposed = mem_exposed(post, "r+", root, p)
    if exposed != S.FALSE:
        goal = S.implies(wrote, S.negate(exposed))
        if not absint.prove(assumptions, goal, "sanitize"):
            return
    overwritten = False
    later_write = mem(post, "w", root, p)
    if later_write != S.FALSE:
        overwritten = absint.prove(
            assumptions, S.implies(wrote, later_write), "sanitize"
        )
    if not is_local and not overwritten:
        return  # the caller observes argument buffers at procedure exit
    word = "store to" if isinstance(s, IR.Assign) else "reduction into"
    loc = str(s.name) + (
        f"[{', '.join(expr_to_str(i) for i in s.idx)}]" if s.idx else ""
    )
    why = "overwritten before any read" if overwritten else "never read afterwards"
    report.findings.append(
        Finding(
            DEAD_WRITE,
            proc.name,
            str(root),
            s.srcinfo,
            f"{word} {loc} is dead ({why})",
        )
    )


# ---------------------------------------------------------------------------
# dead config write
# ---------------------------------------------------------------------------


def _block_touches_config(stmts, csym) -> bool:
    """Conservative: may any statement read config field ``csym``?  Calls
    count (callee bodies and preconditions may read it)."""
    for s in stmts:
        if isinstance(s, IR.Call):
            return True
        for e in IR.stmt_exprs(s):
            for sub in IR.walk_exprs(e):
                if isinstance(sub, IR.ReadConfig):
                    if config_sym(sub.config, sub.field) is csym:
                        return True
        if isinstance(s, IR.If):
            if _block_touches_config(s.body, csym):
                return True
            if _block_touches_config(s.orelse, csym):
                return True
        elif isinstance(s, IR.For):
            if _block_touches_config(s.body, csym):
                return True
    return False


def _check_dead_config(proc, path, s, assumptions, tenv, report):
    csym = config_sym(s.config, s.field)
    for container in IR.get_enclosing(proc, path)[1:]:
        if isinstance(container, IR.For) and _block_touches_config(
            container.body, csym
        ):
            return  # a later iteration may read the written value
    post = post_effect(proc, path, tenv)
    # deadness needs a *definite* later overwrite (unguarded, loop-free):
    # config state persists past the procedure, so the caller observes it
    if not any(
        not guards and not loops for guards, loops, _v in global_writes(post, csym)
    ):
        return
    exposed = gmem_exposed(post, csym)
    if exposed != S.FALSE and not absint.prove(
        assumptions, S.negate(exposed), "sanitize"
    ):
        return
    report.findings.append(
        Finding(
            DEAD_CONFIG_WRITE,
            proc.name,
            f"{s.config.name()}.{s.field}",
            s.srcinfo,
            f"write to config {s.config.name()}.{s.field} is dead "
            f"(rewritten before any read)",
        )
    )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def sanitize_proc(proc: IR.Proc) -> SanitizeReport:
    """Run all sanitizers over a raw IR procedure (see :func:`sanitize`)."""
    report = SanitizeReport(proc.name)
    with _obs.span("analysis.sanitize"):
        ctxs = iter_contexts(proc)
        dead_allocs = set()
        for s, path, facts, state, tenv in ctxs:
            if isinstance(s, IR.Alloc) and s.type.is_numeric():
                _check_alloc(proc, path, s, facts, state, tenv, report, dead_allocs)
        for s, path, facts, state, tenv in ctxs:
            if isinstance(s, (IR.Assign, IR.Reduce)):
                _check_dead_store(
                    proc, path, s, facts, state, tenv, report, dead_allocs
                )
            elif isinstance(s, IR.WriteConfig):
                _check_dead_config(proc, path, s, facts, tenv, report)
    _obs.incr("analysis.sanitize.findings", len(report.findings))
    return report


def sanitize(proc) -> SanitizeReport:
    """Run the static sanitizers (uninit-read, dead-write, dead-config-write,
    dead-alloc) over ``proc``.

    Accepts a raw :class:`repro.core.ast.Proc` or an API ``Procedure``.
    Returns a printable :class:`SanitizeReport`; an empty ``findings`` list
    means every obligation was discharged.  Finding counts land on the
    ``analysis.sanitize.findings`` obs counter while tracing is enabled."""
    return sanitize_proc(getattr(proc, "_loopir_proc", proc))
