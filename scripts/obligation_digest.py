#!/usr/bin/env python
"""Digest of every proof obligation a fixed workload poses.

Wraps the three entry points through which obligations reach a decision
procedure -- ``absint.try_prove`` (the affine fast path),
``Solver.prove`` and ``Solver.find_model`` -- records each call's
arguments in order, and runs two jobs in one process:

* derive the eight app kernels pinned by ``tests/apps/test_golden_c.py``
  (Gemmini matmul and conv, x86 conv and SGEMM), emit their C, and run
  ``analysis.lint`` and ``analysis.sanitize`` over each;
* the depth-3 action-space beam search over ``sgemm_tune_base()``
  (seed 0, budget 40).

It prints the call count per entry point; ``facts``, the total number
of fact terms in the ``Facts`` contexts passed to ``try_prove``; and two
sha256 digests of the obligation stream: ``raw`` hashes each
obligation's ``repr`` as is, so it includes every ``Sym``'s process-wide
id; ``renumbered`` first renumbers the ``Sym`` ids within each
obligation by first appearance, so it only moves when the formulas or
their order do.

Running it twice must print the same raw digest: an obligation stream
that depends on object addresses does not (CI runs it three times).

Run:  python scripts/obligation_digest.py
"""

from __future__ import annotations

import hashlib
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

_SYM_ID = re.compile(r"#(\d+)")


def _renumber(text: str) -> str:
    ids = {}
    return _SYM_ID.sub(
        lambda m: "#" + str(ids.setdefault(m.group(1), len(ids))), text
    )


def _record(log):
    """Wrap the three obligation entry points so each call appends
    ``(kind, repr of its arguments, number of assumptions)`` to ``log``
    (the assumptions are ``try_prove``'s first argument)."""
    from repro.analysis import absint
    from repro.smt.solver import Solver

    def wrap(owner, name, kind):
        inner = getattr(owner, name)

        def recorded(*args):
            # drop the solver instance: its repr carries an address
            shown = args[1:] if isinstance(owner, type) else args
            facts = len(shown[0].terms) if kind == "try_prove" else 0
            log.append((kind, repr(shown), facts))
            return inner(*args)

        setattr(owner, name, recorded)

    wrap(absint, "try_prove", "try_prove")
    wrap(Solver, "prove", "prove")
    wrap(Solver, "find_model", "find_model")


def _kernels():
    from repro.apps import gemmini_conv, x86_conv
    from repro.apps.gemmini_matmul import (matmul_exo, matmul_exo_blocked,
                                           matmul_oldlib)
    from repro.apps.x86_sgemm import sgemm_exo

    return [
        matmul_exo,
        matmul_oldlib,
        lambda: matmul_exo_blocked(4, 4),
        lambda: matmul_exo_blocked(4, 4, True),
        gemmini_conv.conv_exo,
        gemmini_conv.conv_oldlib,
        x86_conv.conv_exo,
        sgemm_exo,
    ]


def _jobs():
    from repro import analysis
    from repro.apps.x86_sgemm import sgemm_tune_base
    from repro.autotune import Space, TuneConfig, search

    for build in _kernels():
        p = build()
        p.c_code()
        analysis.lint(p)
        analysis.sanitize(p)
    space = Space.action_space("sgemm_beam", sgemm_tune_base(), depth=3)
    search(space, TuneConfig(seed=0, budget=40))


def digest() -> dict:
    log = []
    _record(log)
    _jobs()
    counts = {"try_prove": 0, "prove": 0, "find_model": 0, "facts": 0}
    raw = hashlib.sha256()
    renumbered = hashlib.sha256()
    for kind, text, facts in log:
        counts[kind] += 1
        counts["facts"] += facts
        raw.update(f"{kind}\t{text}\n".encode())
        renumbered.update(f"{kind}\t{_renumber(text)}\n".encode())
    return {**counts, "raw": raw.hexdigest(),
            "renumbered": renumbered.hexdigest()}


def main() -> int:
    for k, v in digest().items():
        print(f"{k}: {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
