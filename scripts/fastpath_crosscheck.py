#!/usr/bin/env python
"""Cross-check the affine fast path against the solver.

Runs the jobs of ``scripts/obligation_digest.py`` (the eight golden-C app
kernels with lint and sanitize, and a depth-3 beam search), records every
goal that ``absint.try_prove`` discharged together with its facts, and
then asks a fresh ``Solver`` -- no verdict cache shared with the run -- to
prove each of them.  The fast path only ever answers *proved* or
*unknown*, so a discharged goal the solver cannot prove is a soundness
bug in the fast path; the script exits 1 and prints the first few.

Run:  python scripts/fastpath_crosscheck.py
"""

from __future__ import annotations

import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, os.path.join(REPO, "scripts"))


def discharged_goals():
    """``(facts terms, goal)`` of every goal the fast path proved while the
    digest's jobs ran, in order, each distinct pair once."""
    from obligation_digest import _jobs

    from repro.analysis import absint

    seen = {}
    inner = absint.try_prove

    def recorded(facts, goal):
        ok = inner(facts, goal)
        if ok:
            seen.setdefault((facts.terms, goal), None)
        return ok

    absint.try_prove = recorded
    try:
        _jobs()
    finally:
        absint.try_prove = inner
    return list(seen)


def main() -> int:
    from repro.smt import terms as S
    from repro.smt.solver import Solver

    goals = discharged_goals()
    solver = Solver()
    start = time.perf_counter()
    failed = [
        (terms, goal) for terms, goal in goals
        if not solver.prove(S.implies(S.conj(*terms), goal))
    ]
    elapsed = time.perf_counter() - start
    print(f"discharged: {len(goals)}")
    print(f"solver-proved: {len(goals) - len(failed)}")
    print(f"solver_s: {elapsed:.1f}")
    for _terms, goal in failed[:5]:
        print(f"NOT VALID: {S.term_to_str(goal)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
