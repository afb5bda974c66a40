"""Search drivers for the autotuner (tentpole part 3).

Two strategies, both deterministic under a fixed seed:

* **Parameter mode** — exhaustive over the declared grid when it fits
  the candidate budget, otherwise a seeded-random sample of it (the RNG
  is a private ``random.Random(seed)``; global RNG state is untouched).
* **Action mode** — beam search over primitive-application sequences:
  each round expands every beam state with the deterministic action
  enumeration (seeded-sampled down to ``branch`` per state), prices the
  survivors with the cost model, and keeps the ``beam_width`` cheapest.
  A successor is built incrementally: its one new action is applied to
  the beam state's already-checked procedure, never replayed from the
  base.

Ranking uses :func:`repro.autotune.cost.cost_of` cycles with the
candidate's parameter key as a deterministic tiebreak, so equal-cost
runs always elect the same winner.

**Measured mode** re-ranks the modeled top-k by timing each candidate's
C with ``machine/x86_sim.py::run_c`` on seeded inputs of the ``sizes``
shape, one candidate after another in rank order, so each timing has the
host to itself.  Every candidate runs as its own binary in a child
process under a wall-clock timeout: a candidate that fails to build,
crashes or times out gets the failure recorded on the candidate and the
search continues.  Without a C compiler every top-k candidate records
that, and the modeled winner stands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..analysis.absint import verdict_store
from ..core.interp import dtype_of
from ..machine.x86_sim import run_c
from ..obs import trace as _obs
from ..scheduling.memo import derivation_table
from .cost import MachineModel, X86_MODEL, _eval, cost_of
from .space import Candidate, Space

__all__ = ["TuneConfig", "SearchResult", "search"]


@dataclass(frozen=True)
class TuneConfig:
    """Knobs of one tuning run.  Everything that affects the outcome is
    here, so (space, config) -> winner is a pure function."""

    seed: int = 0
    budget: int = 64  # max candidates built per run
    beam_width: int = 4  # action mode: states kept per round
    branch: int = 16  # action mode: actions tried per state per round
    model: MachineModel = X86_MODEL
    sizes: Optional[Dict[str, int]] = None  # size-arg assignment for costing
    measure: bool = False  # re-rank top-k by wall clock
    top_k: int = 3
    measure_timeout_s: float = 60.0
    measure_reps: int = 3


@dataclass
class SearchResult:
    space: str
    config: TuneConfig
    best: Optional[Candidate]
    candidates: List[Candidate] = field(default_factory=list)  # all built
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ranked(self) -> List[Candidate]:
        """Surviving candidates, cheapest first."""
        ok = [c for c in self.candidates if c.ok and c.cost is not None]
        return sorted(ok, key=_rank_key)

    def summary(self) -> dict:
        return {
            "space": self.space,
            "seed": self.config.seed,
            "model": self.config.model.name,
            "measure_mode": self.config.measure,
            "winner": self.best.describe() if self.best else None,
            "winner_cycles": (
                round(self.best.cost.cycles, 1)
                if self.best and self.best.cost else None
            ),
            "winner_measured_s": self.best.measured_s if self.best else None,
            **self.stats,
        }


def _rank_key(c: Candidate):
    return (c.cost.cycles if c.cost else float("inf"), c.params_key())


def _price(c: Candidate, config: TuneConfig) -> Candidate:
    if c.ok:
        c.cost = cost_of(c.proc, config.sizes, config.model)
    return c


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def _search_grid(space: Space, config: TuneConfig, rng: random.Random):
    grid = space.grid()
    if len(grid) > config.budget:
        grid = rng.sample(grid, config.budget)
    out = []
    for params in grid:
        out.append(_price(space.build_candidate(params), config))
    return out


def _search_beam(space: Space, config: TuneConfig, rng: random.Random):
    built = 0
    base = _price(space.build_candidate({"actions": []}), config)
    if not base.ok:
        return [base]
    all_cands = [base]
    beam = [base]
    seen = {base.params_key()}
    for _depth in range(space.depth):
        successors: List[Candidate] = []
        for state in beam:
            actions = space.neighbors(state.proc)
            if len(actions) > config.branch:
                actions = rng.sample(actions, config.branch)
            for act in actions:
                if built >= config.budget:
                    break
                params = {"actions": list(state.params["actions"]) + [act]}
                key = tuple(a.key() for a in params["actions"])
                if key in seen:
                    continue
                seen.add(key)
                built += 1
                cand = _price(space.build_candidate(params, parent=state),
                              config)
                all_cands.append(cand)
                if cand.ok:
                    successors.append(cand)
        if not successors or built >= config.budget:
            break
        beam = sorted(successors, key=_rank_key)[: config.beam_width]
    return all_cands


# ---------------------------------------------------------------------------
# Measured mode
# ---------------------------------------------------------------------------

def _measure_inputs(proc, sizes: Optional[Dict[str, int]], seed: int):
    """Seeded arguments from ``proc``'s signature: control values from
    ``sizes``, tensors of the shapes they give filled from ``seed``."""
    rng = np.random.default_rng(seed)
    env, args = {}, []
    for a in proc.ir().args:
        if a.type.is_numeric():
            shape = tuple(_eval(e, env) for e in a.type.shape())
            args.append(rng.random(shape).astype(dtype_of(a.type)))
        elif str(a.name) in (sizes or {}):
            env[a.name] = int(sizes[str(a.name)])
            args.append(env[a.name])
        else:
            raise ValueError(f"measured mode needs a concrete value for "
                             f"size arg {str(a.name)!r} (pass sizes={{...}})")
    return args


def _measure(cands: List[Candidate], config: TuneConfig):
    """Time each candidate with ``run_c``, in rank order, one at a time.
    A candidate whose inputs violate its preconditions, or that fails to
    build, crashes, hangs or finds no C compiler records the reason on
    itself and the next one is timed."""
    for c in cands:
        try:
            inputs = _measure_inputs(c.proc, config.sizes, config.seed)
            c.measured_s = run_c(c.proc, *inputs, reps=config.measure_reps,
                                 timeout=config.measure_timeout_s)
            _obs.incr("autotune.candidates_measured")
        except Exception as e:
            c.measure_error = f"{type(e).__name__}: {e}"
            _obs.incr("autotune.measure_failures")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def search(space: Space, config: TuneConfig = TuneConfig()) -> SearchResult:
    """Run one tuning search over ``space``.  Deterministic for a fixed
    (space, config): same candidates, same ranking, same winner.

    The candidates re-derive their parents' proof obligations under fresh
    ``Sym`` ids, share directive prefixes and reach the same revision by
    different paths, so the search runs inside one
    :func:`~repro.analysis.absint.verdict_store` and one
    :func:`~repro.scheduling.memo.derivation_table`, both dropped when it
    returns."""
    rng = random.Random(config.seed)
    with verdict_store(), derivation_table(), \
            _obs.span("sched.autotune_search"):
        if space.is_action_space:
            cands = _search_beam(space, config, rng)
        else:
            cands = _search_grid(space, config, rng)

        survivors = sorted(
            (c for c in cands if c.ok and c.cost is not None), key=_rank_key
        )
        best = survivors[0] if survivors else None

        if config.measure and survivors:
            top = survivors[: config.top_k]
            _measure(top, config)
            timed = [c for c in top if c.measured_s is not None]
            if timed:
                best = min(
                    timed, key=lambda c: (c.measured_s, c.params_key())
                )

    stats = {
        "candidates": len(cands),
        "pruned": sum(1 for c in cands if not c.ok),
        "survivors": len(survivors),
        "measured": sum(1 for c in cands if c.measured_s is not None),
        "measure_failures": sum(
            1 for c in cands if c.measure_error is not None
        ),
    }
    return SearchResult(
        space=space.name, config=config, best=best,
        candidates=cands, stats=stats,
    )
