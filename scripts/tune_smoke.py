#!/usr/bin/env python
"""CI smoke for the autotuner: fixed-seed, modeled-cost-only, <= 30
candidates, winner determinism asserted across two runs.

Runs the :mod:`repro.autotune` grid search over the SGEMM tuning space
(30 points) twice with seed 0 and checks:

* both runs elect the same winner (parameters and scheduled IR);
* the winner's modeled cost is no worse than the hand-written §7.2
  SGEMM schedule's;
* every candidate either passed the safety checks or was pruned with a
  recorded reason — no unchecked schedule is ever emitted;
* the winner replays byte-identically from its recorded journal;
* a depth-3 action-space beam search over ``sgemm_tune_base()``, which
  builds every candidate on its parent, elects the same candidates
  (descriptions, ok flags, error texts, costs) and winner C as rebuilding
  each one by replaying its whole action prefix from the base.

Writes ``BENCH_tune.json`` through the shared artifact machinery in
``benchmarks/conftest.py`` (``record_artifact`` / ``flush_artifacts``).
"""

from __future__ import annotations

import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, os.path.join(REPO, "benchmarks"))

import conftest  # noqa: E402 — benchmarks/conftest.py (artifact registry)

from repro import obs  # noqa: E402
from repro.apps.x86_sgemm import (  # noqa: E402
    TUNE_K,
    TUNE_M,
    TUNE_N,
    sgemm_exo,
    sgemm_space,
    sgemm_tune_base,
)
from repro.autotune import (  # noqa: E402
    Space,
    TuneConfig,
    TuneDB,
    X86_MODEL,
    cost_of,
    search,
    tune_report,
)


def main() -> int:
    obs.enable()
    obs.reset()

    cfg = TuneConfig(seed=0, budget=30)
    r1 = search(sgemm_space(), cfg)
    r2 = search(sgemm_space(), cfg)

    assert r1.best is not None, "search found no legal candidate"
    assert r1.best.describe() == r2.best.describe(), (
        f"winner not deterministic: {r1.best.describe()} "
        f"!= {r2.best.describe()}"
    )
    assert str(r1.best.proc) == str(r2.best.proc), "winner IR differs"

    sizes = {"M": TUNE_M, "N": TUNE_N, "K": TUNE_K}
    hand = cost_of(sgemm_exo(6, 4), sizes, X86_MODEL)
    assert r1.best.cost.cycles <= hand.cycles, (
        f"tuned {r1.best.cost.cycles} worse than hand-written {hand.cycles}"
    )
    assert all(c.ok or c.error for c in r1.candidates), (
        "candidate emitted without a checked journal or a prune reason"
    )

    # winner replays byte-identically from its persisted journal
    db = TuneDB()
    db.put("sgemm", r1)
    base = sgemm_space().base
    replayed = db.replay("sgemm", base)
    assert str(replayed) == str(r1.best.proc), "replay is not byte-identical"

    # incremental beam candidates equal their from-base replays
    space = Space.action_space("sgemm_beam", sgemm_tune_base(), depth=3)
    beam = search(space, TuneConfig(seed=0, budget=40))
    for c in beam.candidates:
        again = space.build_candidate(c.params)
        if again.ok:
            again.cost = cost_of(again.proc, None, X86_MODEL)
        got = (c.describe(), c.ok, c.error, c.cost and c.cost.cycles)
        want = (again.describe(), again.ok, again.error,
                again.cost and again.cost.cycles)
        assert got == want, f"incremental {got} != replayed {want}"
    replayed = space.build_candidate(beam.best.params)
    assert replayed.proc.c_code() == beam.best.proc.c_code(), (
        "incremental beam winner's C differs from its from-base replay"
    )

    conftest.record_artifact("BENCH_tune.json", tune_report({"sgemm": r1}))
    paths = conftest.flush_artifacts()

    print(f"winner: {r1.best.describe()}")
    print(f"modeled cycles: tuned {r1.best.cost.cycles:.0f}  "
          f"hand-written {hand.cycles:.0f}")
    print(f"candidates: {r1.stats['candidates']}  "
          f"pruned: {r1.stats['pruned']}")
    print(f"beam: {beam.stats['candidates']} candidates, winner "
          f"{beam.best.describe()} matches its from-base replay")
    print("wrote:", ", ".join(os.path.relpath(p, REPO) for p in paths))
    return 0


if __name__ == "__main__":
    sys.exit(main())
