"""Every proof obligation takes its facts from one walk, each fact once.

An obligation's assumptions are its walk context's facts: the
procedure's assumptions (seeded once by the ``Walker``) followed by the
enclosing loop bounds and branch conditions.  These tests record every
assumption list handed to ``absint.try_prove`` -- which ``absint.prove``
passes its own list to, so they cover both -- and count the ``Walker``
runs of ``check_proc``, ``lint`` and ``sanitize``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import analysis
from repro.analysis import absint
from repro.analysis import parallel as par_mod
from repro.api import procs_from_source
from repro.apps import gemmini_conv, x86_conv
from repro.apps.gemmini_matmul import (matmul_exo, matmul_exo_blocked,
                                       matmul_oldlib)
from repro.apps.x86_sgemm import sgemm_exo
from repro.core import dataflow
from repro.core.checks import check_proc
from repro.core.ir2smt import proc_assumptions
from repro.smt import terms as S

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, DRAM, f32, size\n"
)


def _proc(body):
    return list(procs_from_source(HEADER + body).values())[-1]


@pytest.fixture
def assumption_lists(monkeypatch):
    """Every assumption list passed to ``try_prove`` while the test runs."""
    seen = []
    inner = absint.try_prove

    def recorded(assumptions, goal):
        seen.append(list(assumptions))
        return inner(assumptions, goal)

    monkeypatch.setattr(absint, "try_prove", recorded)
    return seen


@pytest.fixture
def walker_runs(monkeypatch):
    """The number of ``Walker.run`` calls while the test runs."""
    runs = [0]
    inner = dataflow.Walker.run

    def counted(self, *args):
        runs[0] += 1
        return inner(self, *args)

    monkeypatch.setattr(dataflow.Walker, "run", counted)
    return runs


def _duplicated(lists):
    return [a for a in lists if len(set(a)) != len(a)]


# the eight kernels of the golden-C table, derived afresh (the builders
# are cached; ``__wrapped__`` skips the cache of the outermost one)
KERNELS = [
    ("matmul_exo", matmul_exo.__wrapped__),
    ("matmul_oldlib", matmul_oldlib.__wrapped__),
    ("matmul_exo_blocked_4x4", lambda: matmul_exo_blocked.__wrapped__(4, 4)),
    ("matmul_exo_blocked_4x4_relu",
     lambda: matmul_exo_blocked.__wrapped__(4, 4, True)),
    ("gemmini_conv_exo", gemmini_conv.conv_exo.__wrapped__),
    ("gemmini_conv_oldlib", gemmini_conv.conv_oldlib.__wrapped__),
    ("x86_conv_exo", x86_conv.conv_exo.__wrapped__),
    ("sgemm_exo", sgemm_exo.__wrapped__),
]


class TestEachFactOnce:
    def test_proc_assumptions_lists_each_fact_once(self):
        p = _proc(
            """
@proc
def f(n: size, x: f32[n] @ DRAM, y: f32[n, n] @ DRAM):
    assert n >= 1
    x[0] = y[0, 0]
"""
        )
        facts = proc_assumptions(p.ir())
        n = p.ir().args[0].name
        assert facts == [S.ge(S.Var(n), S.IntC(1))]

    @pytest.mark.parametrize("build", [k[1] for k in KERNELS],
                             ids=[k[0] for k in KERNELS])
    def test_golden_derivation_lint_and_sanitize(self, build,
                                                 assumption_lists):
        p = build()
        p.c_code()
        analysis.lint(p)
        analysis.sanitize(p)
        assert assumption_lists
        assert _duplicated(assumption_lists) == []

    def test_par_loop_recheck(self, assumption_lists, monkeypatch):
        races = []
        inner = par_mod._check_parallel_loop

        def counted(*args):
            races.append(args[-1])
            return inner(*args)

        monkeypatch.setattr(par_mod, "_check_parallel_loop", counted)
        p = _proc(
            """
@proc
def f(n: size, m: size, x: f32[n, m] @ DRAM):
    assert m % 4 == 0
    for i in par(0, n):
        for j in seq(0, m):
            x[i, j] = 1.0
"""
        )
        races.clear()
        q = p.split("for j in _: _", 4, "jo", "ji", tail="perfect")
        assert "for i in par(0, n):" in str(q)
        assert races == ["par loop"]  # the rewrite re-checked the par loop
        assert _duplicated(assumption_lists) == []


class TestOneWalk:
    def test_check_proc_walks_once_over_two_par_loops(self, walker_runs):
        p = _proc(
            """
@proc
def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in par(0, n):
        x[i] = 1.0
    for j in par(0, n):
        y[j] = x[j]
"""
        )
        walker_runs[0] = 0
        # a fresh Proc object: no context of it is memoized yet
        check_proc(dataclasses.replace(p.ir()))
        assert walker_runs[0] == 1

    SRC = """
@proc
def f(n: size, m: size, x: f32[n, m] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        for j in seq(0, m):
            x[i, j] = 1.0
    for k in seq(1, n):
        y[k] = y[k - 1]
"""

    def test_lint_walks_once_per_procedure(self, walker_runs):
        p = _proc(self.SRC)
        walker_runs[0] = 0
        report = analysis.lint(dataclasses.replace(p.ir()))
        assert [v.verdict for v in report] == [
            "parallel", "parallel", "sequential"
        ]
        assert walker_runs[0] == 1

    def test_sanitize_walks_once_per_procedure(self, walker_runs):
        p = _proc(self.SRC)
        walker_runs[0] = 0
        # the store to x is checked for deadness against what follows it
        assert analysis.sanitize(dataclasses.replace(p.ir())).clean
        assert walker_runs[0] == 1
