"""Failure paths of the effect-analysis entry points.

The happy paths of :func:`check_config_pollution` and
:func:`check_remove_loop` are exercised all over the scheduling tests;
these tests drive the checkers *directly* on IR paths and pin down the
error messages the failure branches produce.
"""

from __future__ import annotations

import pytest

from repro.api import procs_from_source
from repro.core.configs import Config
from repro.core.ir2smt import config_sym
from repro.core.prelude import SchedulingError
from repro.core import types as T
from repro.effects.api import (check_config_pollution, check_remove_loop,
                               check_reorder_stmts)

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, DRAM, f32, i8, size, stride\n"
)


def _ir(body, extra=None):
    p = list(procs_from_source(HEADER + body, extra_globals=extra).values())[-1]
    return p._loopir_proc


class TestConfigPollutionFailures:
    def _cfg(self, name):
        return Config(name, [("v", T.int_t)])

    def test_exposed_read_after_pollution_rejected(self):
        cfg = self._cfg("CfgPolA")
        ir = _ir(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    CfgPolA.v = 3
    for i in seq(0, n):
        if CfgPolA.v == 3:
            x[i] = 0.0
""",
            extra={"CfgPolA": cfg},
        )
        csym = config_sym(cfg, "v")
        with pytest.raises(SchedulingError) as exc:
            check_config_pollution(ir, (("body", 0),), [csym])
        assert "may read polluted config" in str(exc.value)
        assert "CfgPolA_v" in str(exc.value)

    def test_rewrite_before_read_is_insensitive(self):
        cfg = self._cfg("CfgPolB")
        ir = _ir(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    CfgPolB.v = 3
    CfgPolB.v = 4
    for i in seq(0, n):
        if CfgPolB.v == 4:
            x[i] = 0.0
""",
            extra={"CfgPolB": cfg},
        )
        # polluting the first write is fine: the second write shadows it
        check_config_pollution(ir, (("body", 0),), [config_sym(cfg, "v")])

    def test_no_fields_is_a_no_op(self):
        ir = _ir(
            """
@proc
def f(x: f32[1] @ DRAM):
    x[0] = 0.0
"""
        )
        check_config_pollution(ir, (("body", 0),), [])


class TestRemoveLoopFailures:
    def test_iterator_used_in_body_rejected(self):
        ir = _ir(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    assert n > 0
    for i in seq(0, n):
        x[i] = 0.0
"""
        )
        with pytest.raises(SchedulingError) as exc:
            check_remove_loop(ir, (("body", 0),))
        assert "is used in the loop body" in str(exc.value)

    def test_possibly_zero_trip_count_rejected(self):
        ir = _ir(
            """
@proc
def f(n: size, x: f32[1] @ DRAM):
    for i in seq(0, n - 1):
        x[0] = 0.0
"""
        )
        # sizes are only known positive, so n - 1 may be zero iterations
        with pytest.raises(SchedulingError) as exc:
            check_remove_loop(ir, (("body", 0),))
        assert "at least one iteration" in str(exc.value)

    def test_non_idempotent_body_rejected(self):
        ir = _ir(
            """
@proc
def f(n: size, x: f32[1] @ DRAM):
    assert n > 0
    for i in seq(0, n):
        x[0] += 1.0
"""
        )
        with pytest.raises(SchedulingError) as exc:
            check_remove_loop(ir, (("body", 0),))
        assert "idempotency" in str(exc.value)

    def test_idempotent_body_accepted(self):
        ir = _ir(
            """
@proc
def f(n: size, x: f32[1] @ DRAM):
    assert n > 0
    for i in seq(0, n):
        x[0] = 1.0
"""
        )
        check_remove_loop(ir, (("body", 0),))


class TestRejectionOrder:
    def test_reorder_lists_buffers_in_declaration_order(self):
        # the shared buffers are checked in the first block's access order,
        # not in the order of a set of Syms (which follows object addresses)
        names = [f"a{k}" for k in range(8)]
        shuffled = ["a1", "a7", "a4", "a2", "a0", "a5", "a3", "a6"]
        args = ", ".join(f"{n}: f32[4] @ DRAM" for n in names)
        first = "".join(f"    {n}[0] = 1.0\n" for n in names)
        second = "".join(f"    {n}[0] = 2.0\n" for n in shuffled)
        src = f"\n@proc\ndef f({args}):\n{first}{second}"
        for _ in range(5):  # fresh Syms, at fresh addresses, each time
            with pytest.raises(SchedulingError) as exc:
                check_reorder_stmts(_ir(src), (("body", 0),), 8, 8)
            listed = [
                line.split(" accesses to ")[1].split()[0]
                for line in str(exc.value).splitlines()
            ]
            assert list(dict.fromkeys(listed)) == names
