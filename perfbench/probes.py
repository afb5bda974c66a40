"""Benchmark-side probes around the public entry points of each layer.

The benchmark measures layers from outside: it wraps the calls it makes
into ``repro`` (scheduling directives on ``Procedure``,
``Space.build_candidate``, the cost model the search calls, and its own
calls to ``c_code``, ``trace_kernel``, ``GemminiSim.run`` and
``compile_and_run``) and records

* the CPU latency of every outermost directive call, always (the
  ``directive_p50_ms`` / ``directive_p90_ms`` end-to-end metrics), and
* in a traced run only, one span per call: name, start, end and the span
  that caused it.  Spans are kept in memory and written out when the run
  ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class SpanLog:
    """In-memory spans of one traced run (one trace id per run)."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        if attrs:
            rec["attrs"] = attrs
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def totals(self) -> Dict[str, List[float]]:
        """``{name: [count, total_s, self_s]}`` over the recorded spans."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, List[float]] = {}
        for s in self.spans:
            dur = s["end"] - s["start"]
            agg = out.setdefault(s["name"], [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += max(0.0, dur - child[s["id"]])
        return out

    def write(self, path: str):
        with open(path, "w") as f:
            json.dump({"trace_id": self.trace_id, "spans": self.spans}, f)
            f.write("\n")


class Probes:
    """Directive latencies plus optional spans for one benchmark process."""

    def __init__(self):
        self.directive_ms: List[float] = []
        self.failed_directives = 0
        self.log: Optional[SpanLog] = None
        #: off while correctness gates replay schedules, so only set-up and
        #: timed passes contribute directive samples
        self.recording = True
        #: called after every recorded directive (the clock's segment tick)
        self.after_directive: Optional[Callable[[], None]] = None
        self._depth = 0

    @contextmanager
    def span(self, name: str, **attrs):
        if self.log is None:
            yield None
        else:
            with self.log.span(name, **attrs) as rec:
                yield rec

    def install(self, repro_api, autotune_space, autotune_search):
        """Wrap the directives of a freshly imported ``repro``.

        Called after every (re-)import, since set-up imports ``repro``
        afresh on each repetition."""
        proc_cls = repro_api.Procedure
        for name in repro_api._DIRECTIVES:
            setattr(proc_cls, name, self._directive(name, getattr(proc_cls, name)))
        space_cls = autotune_space.Space
        space_cls.build_candidate = self._spanned(
            "autotune.build_candidate", space_cls.build_candidate
        )
        # the search prices candidates through its own module-level name
        autotune_search.cost_of = self._spanned(
            "autotune.cost_of", autotune_search.cost_of
        )

    def _directive(self, name: str, fn):
        probes = self

        @functools.wraps(fn)
        def timed(proc, *args, **kwargs):
            # skip directives issued by another directive
            if probes._depth or not probes.recording:
                return fn(proc, *args, **kwargs)
            probes._depth += 1
            t0 = time.process_time()
            try:
                with probes.span("scheduling.directive", op=name):
                    return fn(proc, *args, **kwargs)
            except Exception:
                probes.failed_directives += 1
                raise
            finally:
                probes.directive_ms.append((time.process_time() - t0) * 1e3)
                probes._depth -= 1
                if probes.after_directive is not None:
                    probes.after_directive()

        return timed

    def _spanned(self, span_name: str, fn):
        probes = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with probes.span(span_name):
                return fn(*args, **kwargs)

        return wrapped
