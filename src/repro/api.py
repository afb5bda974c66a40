"""The public Exo API: decorators and the schedulable :class:`Procedure`.

    from repro import proc, instr, config, DRAM, f32, size

    @proc
    def gemm(M: size, N: size, K: size,
             A: f32[M, K] @ DRAM, B: f32[K, N] @ DRAM, C: f32[M, N] @ DRAM):
        for i in seq(0, M):
            for j in seq(0, N):
                for k in seq(0, K):
                    C[i, j] += A[i, k] * B[k, j]

    fast = gemm.split("for i in _: _", 16, "io", "ii").reorder("for ii in _: _")

Every scheduling method returns a *new* ``Procedure``; the original is
untouched.  Each rewrite re-runs type checking and the front-end safety
checks, and provenance (equivalence modulo config pollution) is tracked
for ``call_eqv``.  Inside an autotuning search, a repeated directive
returns the revision it derived first, and a revision alpha-equivalent to
one already checked reuses that verdict (:mod:`repro.scheduling.memo`).
"""

from __future__ import annotations

import functools

from dataclasses import replace as _dc_replace

from .core import ast as IR
from .core import checks as _checks
from .core.cgen import compile_procs
from .core.configs import Config, config_from_class
from .core.interp import run_proc
from .core.prelude import SchedulingError
from .core.typecheck import typecheck_proc
from .frontend.parser import parse_function
from .obs import journal as _journal
from .obs import trace as _obs
from .scheduling import cursors as C
from .scheduling import memo as _memo
from .scheduling import primitives as P
from .scheduling.cursors import InvalidCursorError
from .scheduling.eqv import EqvNode, eqv_pollution
from .scheduling.pattern import (
    ExprMatch,
    StmtMatch,
    find_expr,
    find_stmt,
    parse_fragment_expr,
)
from .scheduling.simplify import simplify_proc


#: global counter of scheduling directives applied (Fig. 7 reports the
#: number of directives per app); reset it around a derivation to measure
SCHEDULE_OP_COUNT = [0]


class Procedure:
    """A schedulable Exo procedure (the object ``@proc`` returns)."""

    def __init__(self, loopir_proc: IR.Proc, _eqv: EqvNode | None = None,
                 _parent: "Procedure | None" = None, _fwd=None):
        # every revision is checked before it exists: a root ``@proc`` in
        # full, a derived one where its forwarder says the rewrite changed it
        # (inside a search, once per alpha-equivalence class: see memo)
        if _fwd is None:
            _checks.check_proc(loopir_proc)
        else:
            _memo.check_derived(loopir_proc, _fwd)
        self._loopir_proc = loopir_proc
        self._eqv = _eqv or EqvNode()
        #: provenance journal: the directives that derived this procedure
        #: from its root ``@proc`` (maintained by the ``_journaled`` hook)
        self._journal: tuple = ()
        self._root: "Procedure" = self
        #: derivation chain for cursor forwarding: the revision this one
        #: was derived from, and the Forwarder of the deriving rewrite
        self._parent = _parent
        self._fwd = _fwd
        # the raw IR proc carries its provenance node, so that call_eqv can
        # recover the equivalence class of a call's current target (frozen
        # dataclass: the entry lives outside its fields, and dies with it)
        loopir_proc.__dict__["_eqv"] = self._eqv

    # -- introspection --------------------------------------------------------

    def name(self) -> str:
        return self._loopir_proc.name

    def is_instr(self) -> bool:
        return self._loopir_proc.instr is not None

    def ir(self) -> IR.Proc:
        return self._loopir_proc

    def __str__(self):
        return str(self._loopir_proc)

    def __repr__(self):
        return f"<Procedure {self.name()}>"

    # -- provenance ------------------------------------------------------------

    def schedule_log(self) -> list:
        """The provenance journal: every directive (name, arguments, check
        verdict) that derived this procedure from its root ``@proc``, in
        application order."""
        return list(self._journal)

    def replay_schedule(self, base: "Procedure | None" = None) -> "Procedure":
        """Re-derive this procedure by replaying its journal against
        ``base`` (default: the root ``@proc`` it was derived from)."""
        return _journal.replay(base if base is not None else self._root,
                               self._journal)

    # -- execution & compilation ------------------------------------------------

    def interpret(self, *args, config_state=None, instr_hook=None):
        """Run the procedure on numpy buffers via the reference interpreter."""
        return run_proc(
            self._loopir_proc, *args, config_state=config_state,
            instr_hook=instr_hook,
        )

    def c_code(self) -> str:
        """Compile this procedure (and its callees) to a C source string."""
        return compile_procs([self._loopir_proc])

    # -- scheduling ------------------------------------------------------------

    def _derive(self, new_ir: IR.Proc, pollution, fwd) -> "Procedure":
        SCHEDULE_OP_COUNT[0] += 1
        new_ir, simp_fwd = simplify_proc(new_ir)
        fwd = C.compose(fwd, simp_fwd)
        new_ir = typecheck_proc(new_ir)
        if new_ir is self._loopir_proc:
            # the rebuild kept the whole tree; the revision still needs a
            # Proc of its own, where __init__ records its provenance node
            new_ir = _dc_replace(new_ir)
        node = EqvNode(self._eqv, pollution)
        return Procedure(new_ir, _eqv=node, _parent=self, _fwd=fwd)

    # -- cursors ---------------------------------------------------------------

    def find(self, pattern: str):
        """A live cursor for the single statement (or block) matching
        ``pattern``, usable as the target of any scheduling directive and
        forwardable across rewrites via :meth:`forward` (Exo 2 cursors).
        Ambiguous patterns raise, listing the candidates."""
        (m,) = find_stmt(self._loopir_proc, pattern, one=True)
        if m.count > 1:
            return C.BlockCursor(self, m.path, n=m.count)
        return C.StmtCursor(self, m.path)

    def find_all(self, pattern: str) -> list:
        """Cursors for every match of ``pattern``, in program order."""
        out = []
        for m in find_stmt(self._loopir_proc, pattern):
            if m.count > 1:
                out.append(C.BlockCursor(self, m.path, n=m.count))
            else:
                out.append(C.StmtCursor(self, m.path))
        return out

    def find_expr_cursor(self, pattern: str):
        """A cursor for the single expression matching ``pattern``."""
        (m,) = find_expr(self._loopir_proc, pattern, one=True)
        return C.ExprCursor(self, m.path, expr_path=m.expr_path)

    def forward(self, cursor):
        """Forward a cursor taken on an ancestor revision to this one, by
        composing the forwarders of every rewrite in between."""
        if not isinstance(cursor, C.Cursor):
            raise TypeError(f"forward: expected a Cursor, got {type(cursor).__name__}")
        if cursor.proc is self:
            return cursor
        chain = []
        node = self
        while node is not None and node is not cursor.proc:
            chain.append(node)
            node = node._parent
        if node is None:
            raise InvalidCursorError(
                f"cursor does not belong to this procedure or an ancestor "
                f"revision of {self.name()!r}"
            )
        path = cursor.path
        for p in reversed(chain):
            path = p._fwd.map_path(path)
        return _dc_replace(cursor, proc=self, path=path)

    def _resolve_stmt(self, target, what: str = "target") -> StmtMatch:
        """Resolve a directive target — a pattern string, a live cursor
        (forwarded here first), or a journal PathRef — to a StmtMatch."""
        if isinstance(target, C.Cursor):
            if isinstance(target, (C.ExprCursor, C.GapCursor)):
                raise SchedulingError(
                    f"{what}: expected a statement or block cursor"
                )
            cur = self.forward(target)
            cur._resolve_stmts()  # fail early if the path is stale
            return StmtMatch(cur.path, cur.count, origin="<cursor>")
        if isinstance(target, _journal.PathRef):
            path = tuple(tuple(s) for s in target.path)
            return StmtMatch(path, target.count, origin="<pathref>")
        (m,) = find_stmt(self._loopir_proc, target, one=True)
        return m

    def _resolve_exprs(self, target) -> list:
        """Resolve an expression target (pattern / ExprCursor / PathRef)
        to a list of ExprMatches."""
        if isinstance(target, C.ExprCursor):
            cur = self.forward(target)
            stmt = IR.get_stmt(self._loopir_proc, cur.path)
            return [ExprMatch(cur.path, cur.expr_path,
                              IR.get_expr(stmt, cur.expr_path))]
        if isinstance(target, _journal.PathRef) and target.expr_path is not None:
            path = tuple(tuple(s) for s in target.path)
            ep = tuple(tuple(s) for s in target.expr_path)
            stmt = IR.get_stmt(self._loopir_proc, path)
            return [ExprMatch(path, ep, IR.get_expr(stmt, ep))]
        return find_expr(self._loopir_proc, target)

    def _journal_arg(self, v):
        """Journal representation of a directive argument: live cursors
        become PathRefs (resolved against this revision), everything else
        is stored by reference."""
        if isinstance(v, C.ExprCursor):
            cur = self.forward(v)
            return _journal.PathRef(cur.path, 1, expr_path=cur.expr_path)
        if isinstance(v, C.Cursor):
            cur = self.forward(v)
            return _journal.PathRef(cur.path, cur.count)
        return v

    # -- directives ------------------------------------------------------------

    def rename(self, name: str) -> "Procedure":
        return self._derive(
            _dc_replace(self._loopir_proc, name=name),
            P.NO_POLLUTION,
            C.Forwarder(),
        )

    def simplify(self) -> "Procedure":
        return self._derive(self._loopir_proc, P.NO_POLLUTION, C.Forwarder())

    def split(self, loop, factor: int, hi: str, lo: str,
              tail: str = "guard") -> "Procedure":
        """Fig. 2 split: ``for i<N`` -> ``for io<N/c: for ii<c``."""
        m = self._resolve_stmt(loop, "split")
        ir, pol, fwd = P.split(self._loopir_proc, m, factor, hi, lo, tail)
        return self._derive(ir, pol, fwd)

    def reorder(self, loop) -> "Procedure":
        """Fig. 2 reorder: swap a loop with the one nested inside it."""
        m = self._resolve_stmt(loop, "reorder")
        ir, pol, fwd = P.reorder_loops(self._loopir_proc, m)
        return self._derive(ir, pol, fwd)

    def unroll(self, loop) -> "Procedure":
        m = self._resolve_stmt(loop, "unroll")
        ir, pol, fwd = P.unroll(self._loopir_proc, m)
        return self._derive(ir, pol, fwd)

    def inline(self, call) -> "Procedure":
        m = self._resolve_stmt(call, "inline")
        ir, pol, fwd = P.inline_call(self._loopir_proc, m)
        return self._derive(ir, pol, fwd)

    def set_memory(self, name: str, mem) -> "Procedure":
        ir, pol, fwd = P.set_memory(self._loopir_proc, name, mem)
        return self._derive(ir, pol, fwd)

    def set_precision(self, name: str, typ) -> "Procedure":
        ir, pol, fwd = P.set_precision(self._loopir_proc, name, typ)
        return self._derive(ir, pol, fwd)

    def call_eqv(self, eqv_proc: "Procedure", call) -> "Procedure":
        """Fig. 2 call_eqv: swap a call for an equivalent procedure."""
        m = self._resolve_stmt(call, "call_eqv")
        call_stmt = IR.get_stmt(self._loopir_proc, m.path)
        if not isinstance(call_stmt, IR.Call):
            raise SchedulingError("call_eqv: pattern must match a call")
        old_node = call_stmt.proc.__dict__.get("_eqv")
        if old_node is None:
            raise SchedulingError(
                "call_eqv: the current callee has no provenance record"
            )
        pollution = eqv_pollution(old_node, eqv_proc._eqv)
        ir, pol, fwd = P.call_eqv(
            self._loopir_proc, m, eqv_proc._loopir_proc, pollution
        )
        return self._derive(ir, pol, fwd)

    def bind_expr(self, new_name: str, expr) -> "Procedure":
        ms = self._resolve_exprs(expr)
        ir, pol, fwd = P.bind_expr(self._loopir_proc, ms, new_name)
        return self._derive(ir, pol, fwd)

    def stage_mem(self, block, window: str, new_name: str) -> "Procedure":
        """Fig. 2 stage_mem: stage a window of a buffer around a block."""
        m = self._resolve_stmt(block, "stage_mem")
        wexpr = parse_fragment_expr(self._loopir_proc, m.path, window)
        if not isinstance(wexpr, IR.WindowExpr):
            if isinstance(wexpr, IR.Read):
                wexpr = IR.WindowExpr(
                    wexpr.name,
                    tuple(IR.Point(i) for i in wexpr.idx),
                    None,
                    wexpr.srcinfo,
                )
            else:
                raise SchedulingError("stage_mem: window must be buf[lo:hi, ...]")
        ir, pol, fwd = P.stage_mem(self._loopir_proc, m, wexpr, new_name)
        return self._derive(ir, pol, fwd)

    def bind_config(self, expr, config: Config, field: str) -> "Procedure":
        ms = self._resolve_exprs(expr)
        ir, pol, fwd = P.bind_config(self._loopir_proc, ms[0], config, field)
        return self._derive(ir, pol, fwd)

    def expand_dim(self, alloc, extent: str, index: str) -> "Procedure":
        """Give a per-iteration allocation an extra dimension indexed by a
        loop iterator (the enabling step before lift_alloc)."""
        m = self._resolve_stmt(alloc, "expand_dim")
        ext_e = parse_fragment_expr(self._loopir_proc, m.path, extent)
        idx_e = parse_fragment_expr(self._loopir_proc, m.path, index)
        ir, pol, fwd = P.expand_dim(self._loopir_proc, m, ext_e, idx_e)
        return self._derive(ir, pol, fwd)

    def lift_alloc(self, alloc, n_lifts: int = 1) -> "Procedure":
        m = self._resolve_stmt(alloc, "lift_alloc")
        ir, pol, fwd = P.lift_alloc(self._loopir_proc, m, n_lifts)
        return self._derive(ir, pol, fwd)

    def fission_after(self, stmt, n_lifts: int = 1) -> "Procedure":
        m = self._resolve_stmt(stmt, "fission_after")
        ir, pol, fwd = P.fission_after(self._loopir_proc, m, n_lifts)
        return self._derive(ir, pol, fwd)

    def reorder_stmts(self, first) -> "Procedure":
        """Swap the matched statement block with the statement after it."""
        m = self._resolve_stmt(first, "reorder_stmts")
        ir, pol, fwd = P.reorder_stmts(self._loopir_proc, m)
        return self._derive(ir, pol, fwd)

    def reorder_before(self, stmt) -> "Procedure":
        """Move the matched statement before its predecessor."""
        m = self._resolve_stmt(stmt, "reorder_before")
        fld, idx = m.path[-1]
        if idx == 0:
            raise SchedulingError("reorder_before: nothing precedes the statement")
        prev = P.StmtMatch(m.path[:-1] + ((fld, idx - 1),), 1)
        ir, pol, fwd = P.reorder_stmts(self._loopir_proc, prev)
        return self._derive(ir, pol, fwd)

    def configwrite_at(self, stmt, config: Config, field: str,
                       rhs: str) -> "Procedure":
        """§5.7 "new config write": insert ``config.field = rhs`` after stmt."""
        m = self._resolve_stmt(stmt, "configwrite_at")
        rhs_e = parse_fragment_expr(self._loopir_proc, m.path, rhs)
        ir, pol, fwd = P.configwrite_after(self._loopir_proc, m, config, field, rhs_e)
        return self._derive(ir, pol, fwd)

    def configwrite_root(self, config: Config, field: str, rhs: str) -> "Procedure":
        rhs_e = parse_fragment_expr(self._loopir_proc, (("body", 0),), rhs)
        ir, pol, fwd = P.configwrite_root(self._loopir_proc, config, field, rhs_e)
        return self._derive(ir, pol, fwd)

    def replace(self, subproc: "Procedure", block) -> "Procedure":
        """§3.4 unification-based replacement / instruction selection."""
        m = self._resolve_stmt(block, "replace")
        ir, pol, fwd = P.replace(self._loopir_proc, m, subproc._loopir_proc)
        return self._derive(ir, pol, fwd)

    def replace_all(self, subproc: "Procedure") -> "Procedure":
        """Replace every block matching ``subproc``'s body shape."""
        out = self
        progress = True
        while progress:
            progress = False
            matches = _candidate_blocks(out._loopir_proc, subproc._loopir_proc)
            for m in matches:
                try:
                    ir, pol, fwd = P.replace(
                        out._loopir_proc, m, subproc._loopir_proc
                    )
                except SchedulingError:
                    continue
                out = out._derive(ir, pol, fwd)
                progress = True
                break
        return out

    def add_guard(self, stmt, cond: str) -> "Procedure":
        m = self._resolve_stmt(stmt, "add_guard")
        cond_e = parse_fragment_expr(self._loopir_proc, m.path, cond)
        ir, pol, fwd = P.add_guard(self._loopir_proc, m, cond_e)
        return self._derive(ir, pol, fwd)

    def fuse_loop(self, first_loop) -> "Procedure":
        m = self._resolve_stmt(first_loop, "fuse_loop")
        ir, pol, fwd = P.fuse_loops(self._loopir_proc, m)
        return self._derive(ir, pol, fwd)

    def lift_if(self, loop) -> "Procedure":
        m = self._resolve_stmt(loop, "lift_if")
        ir, pol, fwd = P.lift_if(self._loopir_proc, m)
        return self._derive(ir, pol, fwd)

    def partition_loop(self, loop, cut: int) -> "Procedure":
        m = self._resolve_stmt(loop, "partition_loop")
        ir, pol, fwd = P.partition_loop(self._loopir_proc, m, cut)
        return self._derive(ir, pol, fwd)

    def remove_loop(self, loop) -> "Procedure":
        m = self._resolve_stmt(loop, "remove_loop")
        ir, pol, fwd = P.remove_loop(self._loopir_proc, m)
        return self._derive(ir, pol, fwd)

    def parallelize(self, loop) -> "Procedure":
        """Mark a loop parallel after proving its iterations independent
        (no cross-iteration buffer conflict, no config writes); the C
        backend then emits ``#pragma omp parallel for`` for it."""
        m = self._resolve_stmt(loop, "parallelize")
        ir, pol, fwd = P.parallelize(self._loopir_proc, m)
        return self._derive(ir, pol, fwd)

    def lint(self):
        """Run the race detector over every loop, classifying each as
        ``parallel`` / ``sequential(reason)`` / ``unknown``; returns a
        printable :class:`repro.analysis.LintReport`."""
        from .analysis import lint as _lint

        return _lint(self._loopir_proc)

    def sanitize(self):
        """Run the static sanitizers (uninit-read, dead-write,
        dead-config-write, dead-alloc) over the procedure; returns a
        printable :class:`repro.analysis.SanitizeReport` whose ``findings``
        list is empty when every obligation was discharged."""
        from .analysis import sanitize as _sanitize

        return _sanitize(self._loopir_proc)

    def delete_pass(self) -> "Procedure":
        ir, pol, fwd = P.delete_pass(self._loopir_proc)
        return self._derive(ir, pol, fwd)

    # -- autotuning ---------------------------------------------------------

    def tune(self, space=None, config=None, *, choices=None, build=None,
             **config_kwargs):
        """Search for a schedule of this procedure (see
        :mod:`repro.autotune`), returning the
        :class:`~repro.autotune.search.SearchResult`.

        Pass a prebuilt :class:`~repro.autotune.Space` (its ``base`` is
        then ignored in favor of ``self``), or ``choices=[Choice(...)]``
        + ``build=fn`` to declare a parameter space inline; with neither,
        an action space over this procedure's loops is searched.
        Remaining keyword arguments construct the
        :class:`~repro.autotune.TuneConfig` (``seed=``, ``budget=``,
        ``measure=``, ``model=``, ``sizes=``, ...).  Not a rewrite: the
        result is a report, and winners carry their own journals.
        """
        from . import autotune as _at

        if space is None:
            if choices is not None or build is not None:
                space = _at.Space(self.name(), self, choices=choices or (),
                                  build=build)
            else:
                space = _at.Space.action_space(self.name(), self)
        elif space.base is not self:
            rebound = _at.Space(space.name, self, choices=space.choices,
                                build=space.build)
            rebound._action_kwargs = space._action_kwargs
            rebound.depth = space.depth
            space = rebound
        if config is None:
            config = _at.TuneConfig(**config_kwargs)
        elif config_kwargs:
            raise ValueError("pass either config= or keyword knobs, not both")
        return _at.search(space, config)


# ---------------------------------------------------------------------------
# Provenance + tracing hooks for every scheduling directive
# ---------------------------------------------------------------------------
#
# Each public directive is wrapped so that (a) its wall time is traced under
# ``sched.directive.<name>``, (b) the derived procedure's journal extends its
# parent's with a RewriteRecord (directive, args, verdict),
# and (c) rejected rewrites land in ``repro.obs.journal.FAILED_LOG`` while
# tracing is enabled.  ``schedule_log()`` / ``replay_schedule()`` above are
# the read side.  While a search's derivation table is open
# (:mod:`repro.scheduling.memo`), a call it has seen -- same parent object,
# same directive, equal arguments -- returns the revision it derived the
# first time, or re-raises (and, when tracing, re-logs) its rejection.

_DIRECTIVES = (
    "rename", "simplify", "split", "reorder", "unroll", "inline",
    "set_memory", "set_precision", "call_eqv", "bind_expr", "stage_mem",
    "bind_config", "expand_dim", "lift_alloc", "fission_after",
    "reorder_stmts", "reorder_before", "configwrite_at", "configwrite_root",
    "replace", "replace_all", "add_guard", "fuse_loop", "lift_if",
    "partition_loop", "remove_loop", "parallelize", "delete_pass",
)


def _journaled(name, fn):
    @functools.wraps(fn)
    def wrapped(self, *args, **kwargs):
        table = _memo.current()
        key = None if table is None else _memo.directive_key(
            self, name, args, kwargs)
        if key is not None and key in table.directives:
            _obs.incr("sched.memo.directive_hits")
            out = table.directives[key]
            if isinstance(out, SchedulingError):
                if _obs.enabled():
                    _journal.record_failure(self.name(), name, args, out)
                raise out.with_traceback(None)
            return out
        try:
            with _obs.span(f"sched.directive.{name}"):
                out = fn(self, *args, **kwargs)
        except SchedulingError as err:
            if _obs.enabled():
                _journal.record_failure(self.name(), name, args, err)
            if key is not None:
                table.directives[key] = err
            raise
        if isinstance(out, Procedure) and out is not self:
            out._journal = self._journal + (
                _journal.make_record(
                    name, args, kwargs, _journal.VERDICT_OK,
                    resolve=self._journal_arg
                ),
            )
            out._root = self._root
        if key is not None:
            table.directives[key] = out
        return out

    return wrapped


for _dname in _DIRECTIVES:
    setattr(Procedure, _dname, _journaled(_dname, getattr(Procedure, _dname)))
del _dname


def _candidate_blocks(proc: IR.Proc, callee: IR.Proc):
    """Blocks whose leading statement shape matches the callee body, block
    by block in pre-order (a block is entered at its first position)."""
    want = len([s for s in callee.body if not isinstance(s, IR.Pass)])
    first = callee.body[0]
    out = []
    for path, block, i0 in IR.walk_paths(proc.body):
        if i0:
            continue
        for i, s in enumerate(block):
            if type(s) is type(first) and i + want <= len(block):
                out.append(StmtMatch(path[:-1] + ((path[-1][0], i),), want))
    return out


# ---------------------------------------------------------------------------
# Decorators
# ---------------------------------------------------------------------------


def proc(fn) -> Procedure:
    """Parse a Python function as an Exo procedure."""
    ir = typecheck_proc(parse_function(fn))
    return Procedure(ir)


def instr(c_instr: str, c_global: str = ""):
    """Declare an instruction: the body is the semantic spec; code
    generation emits the C template instead (§3.2.2)."""

    def decorator(fn) -> Procedure:
        info = IR.InstrInfo(c_instr, c_global)
        ir = typecheck_proc(parse_function(fn, info))
        return Procedure(ir)

    return decorator


_SRC_COUNTER = [0]


def procs_from_source(src: str, extra_globals: dict | None = None) -> dict:
    """Execute a source string defining ``@proc`` functions and return the
    resulting Procedures by name.

    This is the metaprogramming entry point the paper's x86 case study
    relies on: specialized kernel variants are generated by formatting size
    literals into a template and scheduling the result (§7.2, §7.3)."""
    import linecache

    _SRC_COUNTER[0] += 1
    filename = f"<repro-metaprog-{_SRC_COUNTER[0]}>"
    linecache.cache[filename] = (
        len(src), None, src.splitlines(True), filename
    )
    env = {"proc": proc, "instr": instr, "config": config}
    if extra_globals:
        env.update(extra_globals)
    exec(compile(src, filename, "exec"), env)
    return {k: v for k, v in env.items() if isinstance(v, Procedure)}


def config(cls):
    """Declare a global configuration struct (§3.2.3)."""
    return config_from_class(cls)


__all__ = [
    "Procedure",
    "proc",
    "instr",
    "config",
    "compile_procs",
]
