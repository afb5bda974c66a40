"""Statistics, metric naming and failure accounting shared by the workloads.

Nothing here depends on ``repro``, so the self-tests in
``perfbench/tests`` exercise it without deriving any kernel.
"""

from __future__ import annotations

import math
import re
import sys
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

#: a percentile is reported only when at least this many samples lie
#: beyond it, so p50 needs 20 samples and p90 needs 100
MIN_TAIL = 10

_NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
_UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]+")


@dataclass(frozen=True)
class Percentile:
    """A percentile estimate together with the sample count behind it."""

    value: float
    samples: int


def percentile(samples: Sequence[float], q: float) -> Optional[Percentile]:
    """The ``q``-th percentile of ``samples``, or None when fewer than
    :data:`MIN_TAIL` samples lie beyond its nearest rank.

    The value is the Harrell-Davis estimate, a Beta-weighted average of
    the order statistics.  A benchmark's latency samples come from a fixed
    set of operations, whose sorted latencies have gaps; a single order
    statistic jumps across such a gap whenever noise swaps two samples,
    while the weighted average moves smoothly."""
    if not 0 < q < 100:
        raise ValueError(f"percentile q must lie in (0, 100), got {q}")
    n = len(samples)
    rank = math.ceil(q * n / 100.0)  # 1-based nearest rank
    if n == 0 or n - rank < MIN_TAIL:
        return None
    return Percentile(harrell_davis(sorted(samples), q / 100.0), n)


def harrell_davis(ordered: Sequence[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of sorted samples:
    sample i of n is weighted by the Beta(p(n+1), (1-p)(n+1)) probability
    of [(i-1)/n, i/n], integrated on a grid much finer than 1/n."""
    n = len(ordered)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    m = max(20000, 20 * n)
    x = np.linspace(0.0, 1.0, m + 1)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    log_pdf -= math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    pdf = np.exp(log_pdf)
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1]) / (2 * m)])
    weights = np.diff(np.interp(np.arange(n + 1) / n, x, cdf))
    return float(np.dot(weights / weights.sum(), ordered))


def min_samples(q: float) -> int:
    """The fewest samples for which :func:`percentile` reports ``q``."""
    n = 1
    while n - math.ceil(q * n / 100.0) < MIN_TAIL:
        n += 1
    return n


def geomean(values: Sequence[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError(f"geomean needs positive values, got {list(values)}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def check_name(name: str) -> str:
    """Validate a metric name: ``[A-Za-z0-9_.-]+``, starting with a letter
    or digit, at most 64 characters."""
    if (
        not isinstance(name, str)
        or len(name) > 64
        or not _NAME_RE.fullmatch(name)
        or not name[0].isalnum()
    ):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def check_unit(unit: str) -> str:
    if not isinstance(unit, str) or len(unit) > 16 or not _UNIT_RE.fullmatch(unit):
        raise ValueError(f"invalid metric unit {unit!r}")
    return unit


class MetricSet:
    """Named metric values with units, validated as they are added."""

    def __init__(self):
        self._values: Dict[str, dict] = {}

    def add(self, name: str, value: float, unit: str):
        check_name(name)
        check_unit(unit)
        if name in self._values:
            raise ValueError(f"metric {name!r} reported twice")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"metric {name!r} is not a number: {value!r}")
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value!r}")
        self._values[name] = {"value": value, "unit": unit}

    def value(self, name: str) -> float:
        return self._values[name]["value"]

    def as_dict(self) -> Dict[str, dict]:
        return {k: dict(v) for k, v in self._values.items()}


@dataclass
class Tally:
    """Counts operations attempted and failed.

    Every failure is printed to stderr with its traceback and counted; a
    failed operation is never retried or dropped from the count."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def run(self, what: str, fn: Callable, *args, **kwargs):
        """Run one operation; return its result, or None when it raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - the benchmark's reporting boundary
            self._fail(what, traceback.format_exc())
            return None

    def check(self, what: str, fn: Callable):
        """Count one correctness gate.  ``fn()`` returns ``ok`` or
        ``(ok, detail)``; a false ``ok`` or an exception is a failure."""
        self.attempted += 1
        try:
            res = fn()
        except Exception:  # noqa: BLE001 - the benchmark's reporting boundary
            self._fail(what, traceback.format_exc())
            return
        ok, detail = res if isinstance(res, tuple) else (res, "")
        if not ok:
            self._fail(what, detail or "check failed")

    def _fail(self, what: str, detail: str):
        self.failed += 1
        self.failures.append(what)
        print(f"FAILED {what}: {detail}", file=sys.stderr, flush=True)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
