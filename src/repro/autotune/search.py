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

**Measured mode** re-ranks the modeled top-k by actually compiling and
timing each candidate's generated C through the host toolchain
(``machine/x86_sim.py::compile_and_run``) in a ``multiprocessing`` pool:
one worker process per candidate, per-candidate wall-clock timeouts, and
crash isolation — a candidate that fails to build, crashes, or times out
gets the failure recorded on the candidate and the search continues.
When no C compiler is present the interpreter times candidates in-process
instead (pure Python cannot crash the tuner, so no isolation is needed).
"""

from __future__ import annotations

import multiprocessing as mp
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.absint import verdict_store
from ..obs import trace as _obs
from .cost import MachineModel, X86_MODEL, cost_of
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
    workers: int = 2


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

_CTYPES = {"f16": "_Float16", "f32": "float", "f64": "double",
           "i8": "int8_t", "i32": "int32_t", "R": "float"}


def _harness_source(proc, sizes: Optional[Dict[str, int]],
                    reps: int) -> Tuple[str, tuple]:
    """Generate (C source with a timing main, ()) for a candidate.

    Buffers are static arrays sized by evaluating the signature's shape
    expressions under ``sizes`` (size-literal procedures need none),
    LCG-filled; the main runs the kernel ``reps`` times and prints the
    best wall-clock milliseconds.
    """
    from .cost import _eval  # shared little evaluator

    ir = proc._loopir_proc
    env = {}
    decls, fills, callargs = [], [], []
    for a in ir.args:
        if not a.type.is_numeric():
            name = a.name.name if hasattr(a.name, "name") else str(a.name)
            if sizes is None or name not in sizes:
                raise ValueError(
                    f"measured mode needs a concrete value for size arg "
                    f"{name!r} (pass sizes={{...}})"
                )
            env[a.name] = int(sizes[name])
            callargs.append(str(env[a.name]))
            continue
        n = 1
        for e in a.type.shape():
            d = _eval(e, env)
            if d is None:
                raise ValueError(
                    f"cannot evaluate shape of {a.name} for the harness"
                )
            n *= d
        n = max(1, n)
        ct = _CTYPES.get(str(a.type.basetype()), "float")
        nm = f"buf_{a.name.name if hasattr(a.name, 'name') else a.name}"
        decls.append(f"static {ct} {nm}[{n}];")
        fills.append(
            f"    for (long i = 0; i < {n}; i++) {{ s = s*1664525u+1013904223u; "
            f"{nm}[i] = ({ct})((s >> 16) % 64) / 64; }}"
        )
        callargs.append(nm)
    kernel = proc.c_code()
    flags = ["-D_POSIX_C_SOURCE=199309L"]
    prelude = ""
    if "_mm512" in kernel or "_mm256" in kernel:
        prelude = "#include <immintrin.h>\n"
        flags.append("-mavx512f")
    src = prelude + kernel + f"""
#include <stdio.h>
#include <stdint.h>
#include <time.h>

{chr(10).join(decls)}

int main(void) {{
    unsigned s = 1u;
{chr(10).join(fills)}
    double best = 1e30;
    for (int r = 0; r < {reps}; r++) {{
        struct timespec t0, t1;
        clock_gettime(CLOCK_MONOTONIC, &t0);
        {ir.name}({', '.join(callargs)});
        clock_gettime(CLOCK_MONOTONIC, &t1);
        double ms = (t1.tv_sec-t0.tv_sec)*1e3 + (t1.tv_nsec-t0.tv_nsec)/1e6;
        if (ms < best) best = ms;
    }}
    printf("%.6f\\n", best);
    return 0;
}}
"""
    return src, tuple(flags)


def _measure_worker(payload):
    """Pool worker: compile and time one candidate's C source.  Runs in a
    separate process so a miscompiled candidate can at worst kill this
    worker, never the tuner."""
    idx, c_source, flags, timeout_s = payload
    try:
        from ..machine.x86_sim import compile_and_run

        out = compile_and_run(c_source, extra_flags=flags, timeout=timeout_s)
        return idx, float(out.strip().splitlines()[0]) / 1e3, None
    except BaseException as e:  # noqa: BLE001 — isolation boundary
        return idx, None, f"{type(e).__name__}: {e}"


def _measure_compiled(cands: List[Candidate], config: TuneConfig):
    payloads = []
    for i, c in enumerate(cands):
        try:
            src, flags = _harness_source(
                c.proc, config.sizes, config.measure_reps
            )
            payloads.append((i, src, flags, config.measure_timeout_s))
        except Exception as e:
            c.measure_error = f"{type(e).__name__}: {e}"
            _obs.incr("autotune.measure_failures")
    if not payloads:
        return
    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                         else "spawn")
    with ctx.Pool(processes=min(config.workers, len(payloads))) as pool:
        asyncs = [(p[0], pool.apply_async(_measure_worker, (p,)))
                  for p in payloads]
        for idx, ar in asyncs:
            try:
                # generous outer guard: the subprocess timeout inside the
                # worker should fire first; this catches a hung worker
                _, secs, err = ar.get(timeout=config.measure_timeout_s * 2 + 30)
            except Exception as e:  # mp.TimeoutError, crashed worker, ...
                secs, err = None, f"{type(e).__name__}: {e}"
            cand = cands[idx]
            if secs is None:
                cand.measure_error = err
                _obs.incr("autotune.measure_failures")
            else:
                cand.measured_s = secs
                _obs.incr("autotune.candidates_measured")


def _measure_interp(cands: List[Candidate], config: TuneConfig):
    """No-compiler fallback: time the interpreter in-process."""
    import time

    import numpy as np

    for c in cands:
        try:
            ir = c.proc._loopir_proc
            env, args = {}, []
            for a in ir.args:
                if a.type.is_numeric():
                    from .cost import _eval

                    shape = [_eval(e, env) for e in a.type.shape()] or [1]
                    if any(d is None for d in shape):
                        raise ValueError(f"unevaluable shape for {a.name}")
                    dt = {"f64": np.float64, "i8": np.int8,
                          "i32": np.int32}.get(str(a.type.basetype()),
                                               np.float32)
                    args.append(np.zeros([max(1, d) for d in shape], dt))
                else:
                    name = a.name.name if hasattr(a.name, "name") else str(a.name)
                    v = (config.sizes or {}).get(name)
                    if v is None:
                        raise ValueError(f"no size for {name!r}")
                    env[a.name] = int(v)
                    args.append(int(v))
            t0 = time.perf_counter()
            c.proc.interpret(*args)
            c.measured_s = time.perf_counter() - t0
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
    ``Sym`` ids, so the search runs inside one
    :func:`~repro.analysis.absint.verdict_store`, dropped when it
    returns."""
    rng = random.Random(config.seed)
    with verdict_store(), _obs.span("sched.autotune_search"):
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
            from ..machine.x86_sim import find_cc

            if find_cc() is not None:
                _measure_compiled(top, config)
            else:
                _measure_interp(top, config)
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
