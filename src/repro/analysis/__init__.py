"""Static analyses built on the effect/SMT stack.

Unlike :mod:`repro.effects.api`, whose checks gate individual rewrites,
this package hosts *whole-program* analyses that report facts about a
procedure:

* :mod:`repro.analysis.parallel` -- the loop-parallelism race detector.
  Proves a loop's iterations commute; backs both the ``parallelize``
  scheduling directive and the ``lint`` coverage report.

* :mod:`repro.analysis.absint` -- interval / affine-bounds abstract
  interpretation.  A capped Fourier-Motzkin engine over linear integer
  constraints; its ``prove`` is the one route by which every safety
  obligation reaches the SMT solver, fast path first
  (``analysis.absint.*`` obs counters record goals tried / discharged /
  fell-through), plus the interval-box write-coverage domain used by the
  sanitizers.

* :mod:`repro.analysis.sanitize` -- whole-procedure sanitizers reporting
  reads of possibly-uninitialized memory, provably dead buffer and config
  writes, and never-read allocations as :class:`Finding`s (warnings, not
  errors).
"""

from . import absint
from .parallel import (
    LintReport,
    LoopVerdict,
    check_parallel_loop,
    lint,
    lint_proc,
)
from .sanitize import (
    DEAD_ALLOC,
    DEAD_CONFIG_WRITE,
    DEAD_WRITE,
    UNINIT_READ,
    Finding,
    SanitizeReport,
    sanitize,
    sanitize_proc,
)

__all__ = [
    "absint",
    "check_parallel_loop",
    "lint",
    "lint_proc",
    "LintReport",
    "LoopVerdict",
    "sanitize",
    "sanitize_proc",
    "SanitizeReport",
    "Finding",
    "UNINIT_READ",
    "DEAD_WRITE",
    "DEAD_CONFIG_WRITE",
    "DEAD_ALLOC",
]
