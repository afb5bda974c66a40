"""Schedule provenance journal: which rewrites produced this procedure?

Every scheduling directive on :class:`repro.api.Procedure` appends a
:class:`RewriteRecord` to the derived procedure's journal — the directive
name, its arguments (including the match pattern it was steered by), and
the safety-check verdict (always ``"ok"``: a rewrite enters the journal
only after its safety checks ran and passed).  The journal is cumulative
from the root ``@proc``, so ``proc.schedule_log()`` is the full derivation
and :func:`replay` re-executes it mechanically:

    fast = gemm.split("for i in _: _", 16, "io", "ii").reorder("for ii in _: _")
    again = replay(gemm, fast.schedule_log())
    assert str(again) == str(fast)

Directives that *fail* their safety check raise and therefore never enter
any procedure's journal; while tracing is enabled they are recorded in the
module-level :data:`FAILED_LOG` instead, so "which rewrite was rejected,
and why" survives the exception.

Journals hold argument objects by reference (procedures, configs, memory
classes), which keeps :func:`replay` exact; :func:`record_to_dict`
stringifies them for JSON export.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

#: rewrites that raised SchedulingError while tracing was enabled:
#: (proc_name, op, args, error message)
FAILED_LOG: List[tuple] = []

#: the verdict every journalled rewrite carries: its safety checks ran and
#: passed (a rewrite that fails them raises and is never journalled)
VERDICT_OK = "ok"


@dataclass(frozen=True)
class PathRef:
    """A journal-stable stand-in for a cursor argument: the statement path
    (and block length / expression path) the cursor had resolved to when
    the directive ran.  Pattern-string directives journal their strings
    unchanged, so pre-cursor journals replay byte-identically; cursor
    directives journal PathRefs, which the directive target resolution
    accepts directly — replay stays exact either way."""

    path: tuple
    count: int = 1
    expr_path: Optional[tuple] = None


@dataclass(frozen=True)
class RewriteRecord:
    """One applied scheduling directive."""

    op: str  # directive name, e.g. "split"
    args: tuple  # positional arguments, by reference
    kwargs: tuple = ()  # sorted (key, value) pairs
    verdict: str = VERDICT_OK

    def describe(self) -> str:
        parts = [_short(a) for a in self.args]
        parts += [f"{k}={_short(v)}" for k, v in self.kwargs]
        return f"{self.op}({', '.join(parts)}) [{self.verdict}]"


def _short(v, limit: int = 40) -> str:
    s = repr(v)
    return s if len(s) <= limit else s[: limit - 3] + "..."


def make_record(op: str, args: tuple, kwargs: dict, verdict: str,
                resolve=None) -> RewriteRecord:
    """Build a record of one applied directive.

    ``resolve`` (supplied by the directive layer) maps live cursor
    arguments to serializable :class:`PathRef` stand-ins; other arguments
    pass through by reference."""
    if resolve is not None:
        args = tuple(resolve(a) for a in args)
        kwargs = {k: resolve(v) for k, v in kwargs.items()}
    return RewriteRecord(
        op=op,
        args=tuple(args),
        kwargs=tuple(sorted(kwargs.items())),
        verdict=verdict,
    )


def record_failure(proc_name: str, op: str, args: tuple, err: Exception):
    FAILED_LOG.append((proc_name, op, tuple(args), str(err)))


def record_to_dict(rec: RewriteRecord) -> dict:
    """JSON-safe rendering of one record (args stringified)."""

    def safe(v):
        if isinstance(v, (int, float, str, bool)) or v is None:
            return v
        return repr(v)

    return {
        "op": rec.op,
        "args": [safe(a) for a in rec.args],
        "kwargs": {k: safe(v) for k, v in rec.kwargs},
        "verdict": rec.verdict,
    }


def replay(base, records) -> "object":
    """Re-apply ``records`` to ``base`` (a Procedure), returning the result.

    The journal stores argument objects by reference, so every directive —
    including ``call_eqv``/``replace``, whose arguments are procedures —
    replays exactly as first applied."""
    from ..api import Procedure

    if not isinstance(base, Procedure):
        # an arbitrary object may coincidentally have directive-named
        # attributes (str.split!), producing baffling errors — reject early
        raise TypeError(f"replay: base must be a Procedure, got {type(base).__name__}")
    p = base
    for rec in records:
        method = getattr(p, rec.op, None)
        if method is None:
            raise ValueError(f"replay: {type(p).__name__} has no directive {rec.op!r}")
        p = method(*rec.args, **dict(rec.kwargs))
    return p
