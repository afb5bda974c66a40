#!/usr/bin/env python
"""Digest of every proof obligation a fixed workload poses.

Wraps the three entry points through which obligations reach a decision
procedure -- ``absint.try_prove`` (the affine fast path),
``Solver.prove`` and ``Solver.find_model`` -- records each call's
arguments in order, records each ``replace()`` decision
(``primitives.unify_call``: the callee's name, the block's path and
length, and the call found or the error raised), and runs two jobs in
one process:

* derive the eight app kernels pinned by ``tests/apps/test_golden_c.py``
  (Gemmini matmul and conv, x86 conv and SGEMM), emit their C, and run
  ``analysis.lint`` and ``analysis.sanitize`` over each;
* the depth-3 action-space beam search over ``sgemm_tune_base()``
  (seed 0, budget 40).

It prints the call count per entry point (``unify`` counts the
``replace()`` decisions); ``refuted``, the number of row systems
``absint._refute`` ran on (a system already in the verdict store that
each recipe and search opens is not run again); ``reused``, the number
of revisions whose check ``memo.check_derived`` skipped because an
alpha-equivalent revision of the same content key had passed (only the
beam search opens a derivation table); ``facts``, the total number
of fact terms in the ``Facts`` contexts passed to ``try_prove``;
``discharged``, the number of ``try_prove`` calls that answered True
(the fast path's verdicts); and two sha256 digests of the obligation
stream, each line an obligation's ``repr`` followed by its result's:
``raw`` hashes each line as is, so it includes every ``Sym``'s
process-wide id; ``renumbered`` first renumbers the ``Sym`` ids within
each line by first appearance, so it only moves when the formulas, their
order or their verdicts do.  An equal ``renumbered`` digest thus
certifies the same questions answered the same way, and the same blocks
replaced by the same calls.

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


def _record(log, refuted, reused):
    """Wrap the three obligation entry points so each call appends
    ``(kind, repr of its arguments, number of assumptions, result)`` to
    ``log`` (the assumptions are ``try_prove``'s first argument),
    ``unify_call`` so each ``replace()`` decision appends its callee,
    site and outcome, ``absint._refute`` so each run appends to
    ``refuted`` (outside ``log``: a store hit poses no new question), and
    ``memo.alpha_equiv_procs`` so each match it confirms -- a revision
    whose check is skipped -- appends to ``reused``."""
    from repro.analysis import absint
    from repro.core.pprint import stmt_to_lines
    from repro.scheduling import memo, primitives
    from repro.smt.solver import Solver

    def wrap(owner, name, kind):
        inner = getattr(owner, name)

        def recorded(*args):
            # drop the solver instance: its repr carries an address
            shown = args[1:] if isinstance(owner, type) else args
            facts = len(shown[0].terms) if kind == "try_prove" else 0
            text = repr(shown)
            result = inner(*args)
            log.append((kind, text, facts, result))
            return result

        setattr(owner, name, recorded)

    wrap(absint, "try_prove", "try_prove")
    wrap(Solver, "prove", "prove")
    wrap(Solver, "find_model", "find_model")

    uncached_refute = absint._refute

    def counted_refute(cons):
        refuted.append(None)
        return uncached_refute(cons)

    absint._refute = counted_refute

    alpha_equiv_procs = memo.alpha_equiv_procs

    def counted_match(seen, proc):
        same = alpha_equiv_procs(seen, proc)
        if same:
            reused.append(None)
        return same

    memo.alpha_equiv_procs = counted_match

    unify_call = primitives.unify_call

    def recorded_unify(proc, path, count, callee):
        text = repr((callee.name, path, count))
        try:
            call = unify_call(proc, path, count, callee)
        except Exception as e:
            # ``args``, not ``str(e)``: formatting would run a pending
            # counterexample search and pose obligations of its own
            log.append(("unify", text, 0, f"{type(e).__name__}{e.args!r}"))
            raise
        log.append(("unify", text, 0, " ".join(stmt_to_lines(call, 0))))
        return call

    primitives.unify_call = recorded_unify


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
    log, refuted, reused = [], [], []
    _record(log, refuted, reused)
    _jobs()
    counts = {"try_prove": 0, "prove": 0, "find_model": 0, "unify": 0,
              "refuted": len(refuted), "reused": len(reused), "facts": 0,
              "discharged": 0}
    raw = hashlib.sha256()
    renumbered = hashlib.sha256()
    for kind, text, facts, result in log:
        counts[kind] += 1
        counts["facts"] += facts
        counts["discharged"] += kind == "try_prove" and result is True
        line = f"{kind}\t{text}\t{result!r}"
        raw.update(f"{line}\n".encode())
        renumbered.update(f"{_renumber(line)}\n".encode())
    return {**counts, "raw": raw.hexdigest(),
            "renumbered": renumbered.hexdigest()}


def main() -> int:
    for k, v in digest().items():
        print(f"{k}: {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
