"""Instruction-trace extraction.

Because Exo programs are static control programs, the sequence of
``@instr`` calls a kernel issues is determined entirely by its control
arguments.  :func:`trace_kernel` records one :class:`Event` per
instruction call by running the kernel's *compiled trace*:
:mod:`repro.core.pygen` lowers the procedure once, on its first trace, to
a Python function whose loops are ``range`` loops and whose operand
regions come from offsets and strides.  Instruction bodies are skipped,
which makes tracing a 12544x64x256 GEMM (~10^8 scalar operations, but
only ~10^5 instructions) cheap.

:class:`Tracer` is the reference: the interpreter runs the kernel with a
hook that records each call and, with ``functional=True``, then executes
the instruction body.  The :class:`Tracer` in timing mode is the oracle
the compiled traces are differential-tested against.

Each event records precise memory *intervals* for every buffer operand,
which is what lets the timing simulators resolve RAW/WAR hazards exactly.
``Region.base`` is the operand's *buffer identity*: every dynamic
allocation is its own buffer, and tensor arguments that view one root
array share its identity.  Identities are unique within one trace; two
traces of the same kernel may number them differently.  A freed buffer's
memory is never treated as reused: a kernel is charged WAR hazards
between loop iterations only when it reuses one allocation across them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np


@dataclass(slots=True)
class Region:
    """A (possibly strided) byte region within one underlying allocation.

    Modeled as a rectangle: ``[lo, hi)`` bounds the whole span, while
    ``pitch`` (bytes between consecutive rows) and ``[col_lo, col_hi)``
    (byte range within a row, relative to the row start) distinguish
    column-disjoint tiles of the same array -- without this, adjacent
    accumulator tiles would appear to conflict and serialize the model.
    """

    base: int  # buffer identity (see the module docstring)
    lo: int
    hi: int  # exclusive
    bytes: int  # dense payload size (excludes stride gaps)
    space: str  # "dram" or the Memory class name of the buffer
    pitch: int = 0
    col_lo: int = 0
    col_hi: int = 0

    def overlaps(self, other: "Region") -> bool:
        if self.base != other.base:
            return False
        if self.lo >= other.hi or other.lo >= self.hi:
            return False
        if self.pitch and self.pitch == other.pitch:
            if self.col_hi <= other.col_lo or other.col_hi <= self.col_lo:
                return False
        return True


@dataclass(slots=True)
class Event:
    """One instruction call.  Read-only: compiled traces share one ``ctrl``
    dict among the events of a call site whose control arguments are
    constants, and consumers must not mutate ``ctrl``, ``operands`` or
    their Regions."""

    name: str
    ctrl: Dict[str, int]
    operands: Dict[str, Region]


def root_of(view: np.ndarray):
    """The array that owns the memory ``view`` aliases."""
    base = view.base if view.base is not None else view
    while getattr(base, "base", None) is not None:
        base = base.base
    return base


def _region_of(view: np.ndarray, space: str) -> Region:
    base = root_of(view)
    start = view.__array_interface__["data"][0]
    base_start = base.__array_interface__["data"][0]
    lo = start - base_start
    span = view.itemsize
    for extent, stride_b in zip(view.shape, view.strides):
        if extent > 0:
            span += (extent - 1) * abs(stride_b)
    pitch = 0
    col_lo = col_hi = 0
    if view.ndim >= 2 and view.strides[-1] == view.itemsize:
        pitch = view.strides[-2]
        if pitch > 0:
            col_lo = lo % pitch
            col_hi = col_lo + view.shape[-1] * view.itemsize
            if col_hi > pitch:  # row wider than the pitch: degenerate
                pitch = 0
                col_lo = col_hi = 0
    return Region(
        base=id(base),
        lo=lo,
        hi=lo + span,
        bytes=int(view.size * view.itemsize),
        space=space,
        pitch=pitch,
        col_lo=col_lo,
        col_hi=col_hi,
    )


class Tracer:
    """Collects the instruction trace of one interpreted kernel execution.

    The root of every operand stays pinned for the tracer's lifetime, so
    the ``id()`` that identifies it is never reused by a later allocation:
    each dynamic allocation is its own buffer."""

    def __init__(self, functional: bool = False):
        self.functional = functional
        self.events: List[Event] = []
        self.pinned: Dict[int, object] = {}

    def hook(self, proc_ir, env) -> bool:
        ctrl = {}
        operands = {}
        for formal in proc_ir.args:
            val = env[formal.name]
            if isinstance(val, np.ndarray) and val.ndim > 0:
                space = formal.mem.name() if formal.mem is not None else "dram"
                root = root_of(val)
                self.pinned.setdefault(id(root), root)
                operands[str(formal.name)] = _region_of(val, space)
            elif isinstance(val, np.ndarray):
                ctrl[str(formal.name)] = float(val[()])
            else:
                ctrl[str(formal.name)] = val
        self.events.append(Event(proc_ir.name, ctrl, operands))
        return not self.functional

    def run(self, procedure, *args):
        """Interpret ``procedure``, returning the recorded event list."""
        procedure.interpret(*args, instr_hook=self.hook)
        return self.events


def trace_kernel(procedure, *args) -> List[Event]:
    """The instruction trace of ``procedure`` on ``args``, from its
    compiled trace (instruction bodies are skipped)."""
    from ..core.pygen import trace

    return trace(procedure.ir(), args)


def count_by_name(events) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for e in events:
        out[e.name] = out.get(e.name, 0) + 1
    return out
