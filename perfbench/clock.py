"""CPU time of units of work, scaled to a fixed reference speed.

On a shared machine the same Python work takes from 1x to 1.7x the CPU
time, in episodes that last from seconds to minutes (other tenants
contend for the core and its caches).  Two measures keep the benchmark's
times comparable across runs:

* the cyclic garbage collector is off inside a timed unit and runs
  between units (as ``timeit`` does), so collections triggered by heap
  growth from earlier units do not land in later ones;
* a fixed pure-Python reference routine runs at the start and end of
  every unit, and between directives whenever a segment of the unit has
  run for :data:`SEGMENT_S`; each segment's CPU time, and the directive
  latencies that ended in it, are scaled by ``REFERENCE_S / (mean
  reference time at its two ends)``.  The routine uses only the
  interpreter and builtins, so no change to ``repro`` can speed it up or
  slow it down; on a quiet machine it takes about ``REFERENCE_S``, so a
  scaled time reads as CPU seconds at that speed.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import List, Optional

#: CPU seconds of :func:`reference_work` on a quiet machine (Intel Xeon
#: with AVX-512, Python 3.11)
REFERENCE_S = 0.045

#: CPU seconds after which a unit is split into a new segment
SEGMENT_S = 1.0


def _tree(depth: int, i: int):
    if depth == 0:
        return i % 17
    op = "+" if (depth + i) % 2 else "*"
    return (op, _tree(depth - 1, 3 * i + 1), _tree(depth - 1, 5 * i + 2))


def _fold(t) -> int:
    if isinstance(t, tuple):
        op, a, b = t
        x, y = _fold(a), _fold(b)
        return x + y if op == "+" else x * y % 1000003
    return t


def reference_work() -> int:
    """Allocate, walk and index small trees: the same interpreter paths
    (calls, tuples, dicts, isinstance) that dominate ``repro``."""
    acc = 0
    seen = {}
    for i in range(100):
        t = _tree(10, i)
        acc += _fold(t)
        seen[(i % 7, str(acc % 97))] = t
    return acc


def reference_s() -> float:
    t0 = time.process_time()
    reference_work()
    return time.process_time() - t0


class Clock:
    """Accumulates raw and scaled CPU seconds over :meth:`unit` blocks.

    ``samples`` is the list latency samples (in any unit of time) are
    appended to; samples that end in a segment are scaled with it."""

    def __init__(self, samples: List[float]):
        self.samples = samples
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._t0: Optional[float] = None  # start of the open segment
        self._ref = 0.0
        self._first = 0

    def reset(self):
        self.raw_s = self.scaled_s = 0.0

    @contextmanager
    def unit(self):
        """Time one unit of work (units do not nest)."""
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            self._open(reference_s())
            try:
                yield
            finally:
                self._close()
                self._t0 = None
        finally:
            if was_enabled:
                gc.enable()

    def tick(self):
        """Between directives: start a new segment once the open one has
        run for :data:`SEGMENT_S`."""
        if self._t0 is not None and time.process_time() - self._t0 >= SEGMENT_S:
            self._open(self._close())

    def _open(self, ref: float):
        self._ref = ref
        self._first = len(self.samples)
        self._t0 = time.process_time()

    def _close(self) -> float:
        raw = time.process_time() - self._t0
        ref = reference_s()
        factor = REFERENCE_S / ((self._ref + ref) / 2)
        first = self._first
        self.samples[first:] = [s * factor for s in self.samples[first:]]
        self.raw_s += raw
        self.scaled_s += raw * factor
        return ref
