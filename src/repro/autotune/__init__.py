"""Cost-model-guided schedule search (autotuning) subsystem.

The paper's premise is that schedules are *programs* over rewrite
primitives; this package searches that program space automatically:

* :mod:`.space`  — declarative parameter spaces and cursor-targeted
  action enumeration; every candidate is built through the public
  ``Procedure`` directives, so the existing safety checks validate each
  rewrite and illegal schedules are pruned, never emitted.
* :mod:`.cost`   — an analytical cost model over scheduled IR
  (trip-count-weighted flops, per-``Memory`` traffic, accelerator-
  instruction credit) that ranks candidates; the closed-form x86 kernel
  pricing lives in ``machine/x86_sim.py``.
* :mod:`.search` — deterministic seeded random + beam search, with an
  optional *measured* mode that builds and times the top-k candidates
  one after another, each binary in its own child process.
* :mod:`.tune_db` — winners persisted as provenance journals so tuned
  schedules replay byte-identically, plus ``BENCH_tune.json`` reporting.
"""

from .cost import (
    Cost,
    MachineModel,
    GEMMINI_MODEL,
    X86_MODEL,
    cost_of,
    model_by_name,
)
from .space import Action, Candidate, Choice, Space, enumerate_actions
from .search import SearchResult, TuneConfig, search
from .tune_db import TuneDB, tune_report

__all__ = [
    "Action",
    "Candidate",
    "Choice",
    "Cost",
    "GEMMINI_MODEL",
    "MachineModel",
    "SearchResult",
    "Space",
    "TuneConfig",
    "TuneDB",
    "X86_MODEL",
    "cost_of",
    "enumerate_actions",
    "model_by_name",
    "search",
    "tune_report",
]
