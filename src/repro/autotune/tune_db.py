"""Winner persistence + reporting for the autotuner (tentpole part 4).

A tuned schedule is not a binary blob: it is its **provenance journal** —
the exact sequence of directive applications that produced it
(:mod:`repro.obs.journal`).  :class:`TuneDB` stores winners in that form,
so :meth:`TuneDB.replay` regenerates the tuned procedure *byte-
identically* (same pretty-printed IR, same C) from the base algorithm,
on any machine, with the safety checks re-run on every step.

Entries also carry a JSON-safe rendering.  Most directive arguments are
primitives or :class:`~repro.obs.journal.PathRef`\\ s and round-trip
losslessly; the two reference-valued kinds — ``Memory`` classes
(``set_memory``) and procedure arguments (``replace`` / ``call_eqv``) —
are encoded as ``{"$memory": name}`` / ``{"$proc": name}`` and resolved
at decode time from the built-in memory registry and a caller-supplied
``procs`` mapping.

:func:`tune_report` assembles the ``BENCH_tune.json`` payload from one
or more :class:`~repro.autotune.search.SearchResult`\\ s plus the
``autotune.*`` obs counters.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from ..obs import trace as _obs
from ..obs.journal import PathRef, RewriteRecord, replay as _replay

__all__ = ["TuneDB", "tune_report", "encode_record", "decode_record"]


# ---------------------------------------------------------------------------
# JSON codec for journal records
# ---------------------------------------------------------------------------


def _known_memories() -> Dict[str, type]:
    from ..core import memory as M

    out = {"DRAM": M.DRAM, "StaticMemory": M.StaticMemory}
    for modname in ("platforms.avx512", "platforms.gemmini"):
        try:
            mod = __import__(f"repro.{modname}", fromlist=["_"])
        except Exception:
            continue
        for k, v in vars(mod).items():
            if isinstance(v, type) and issubclass(v, M.Memory):
                out[k] = v
    return out


def _encode_arg(v):
    if isinstance(v, (int, float, str, bool)) or v is None:
        return v
    if isinstance(v, PathRef):
        return {"$pathref": {
            "path": [list(p) for p in v.path],
            "count": v.count,
            "expr_path": ([list(p) for p in v.expr_path]
                          if v.expr_path is not None else None),
        }}
    if isinstance(v, type):  # Memory subclass (set_memory)
        return {"$memory": v.__name__}
    name = getattr(v, "name", None)
    if callable(name):  # api.Procedure (replace / call_eqv)
        return {"$proc": name()}
    raise TypeError(f"cannot persist directive argument {v!r}")


def _decode_arg(v, procs: Optional[Dict] = None):
    if not isinstance(v, dict):
        return v
    if "$pathref" in v:
        d = v["$pathref"]
        return PathRef(
            path=tuple((f, i) for f, i in d["path"]),
            count=d["count"],
            expr_path=(tuple(map(tuple, d["expr_path"]))
                       if d.get("expr_path") is not None else None),
        )
    if "$memory" in v:
        mems = _known_memories()
        try:
            return mems[v["$memory"]]
        except KeyError:
            raise ValueError(
                f"unknown Memory class {v['$memory']!r} in tune entry"
            ) from None
    if "$proc" in v:
        if not procs or v["$proc"] not in procs:
            raise ValueError(
                f"tune entry references procedure {v['$proc']!r}: pass it "
                f"via procs={{name: Procedure}}"
            )
        return procs[v["$proc"]]
    return v


def encode_record(rec: RewriteRecord) -> dict:
    """Lossless JSON encoding (raises on an unpersistable argument)."""
    return {
        "op": rec.op,
        "args": [_encode_arg(a) for a in rec.args],
        "kwargs": [[k, _encode_arg(v)] for k, v in rec.kwargs],
        "verdict": rec.verdict,
    }


def decode_record(d: dict, procs: Optional[Dict] = None) -> RewriteRecord:
    """Inverse of :func:`encode_record`.  Entries written before records
    dropped their ``"pattern"`` key still decode: the key is ignored (the
    pattern is one of the ``args``)."""
    return RewriteRecord(
        op=d["op"],
        args=tuple(_decode_arg(a, procs) for a in d["args"]),
        kwargs=tuple((k, _decode_arg(v, procs)) for k, v in d["kwargs"]),
        verdict=d.get("verdict", "ok"),
    )


# ---------------------------------------------------------------------------
# The DB
# ---------------------------------------------------------------------------


class TuneDB:
    """Keyed store of tuning winners, optionally backed by a JSON file.

    Each entry holds the winner's journal both *by reference* (exact
    in-process replay, including procedure-valued arguments) and in the
    JSON encoding (cross-process persistence)."""

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.entries: Dict[str, dict] = {}
        self._records: Dict[str, List[RewriteRecord]] = {}
        if path and os.path.exists(path):
            with open(path) as f:
                self.entries = json.load(f)

    def put(self, key: str, result) -> dict:
        """Store the winner of ``result`` (a SearchResult) under ``key``."""
        best = result.best
        if best is None or best.proc is None:
            raise ValueError(f"search {result.space!r} produced no winner")
        records = list(best.proc.schedule_log())
        entry = {
            "space": result.space,
            "seed": result.config.seed,
            "model": result.config.model.name,
            "params": {k: _short(v) for k, v in best.params.items()
                       if k != "actions"},
            "schedule": [encode_record(r) for r in records],
            "modeled_cycles": (round(best.cost.cycles, 1)
                               if best.cost else None),
            "measured_s": best.measured_s,
            "stats": dict(result.stats),
        }
        if "actions" in best.params:
            entry["actions"] = [a.describe() for a in best.params["actions"]]
        self.entries[key] = entry
        self._records[key] = records
        _obs.incr("autotune.db_puts")
        return entry

    def get(self, key: str) -> dict:
        return self.entries[key]

    def keys(self):
        return sorted(self.entries)

    def replay(self, key: str, base, procs: Optional[Dict] = None):
        """Regenerate the tuned procedure from ``base`` by replaying the
        stored journal (in-memory records when available, decoded JSON
        otherwise).  Safety checks re-run on every step."""
        records = self._records.get(key)
        if records is None:
            records = [decode_record(d, procs)
                       for d in self.entries[key]["schedule"]]
        _obs.incr("autotune.db_replays")
        return _replay(base, records)

    def save(self, path: Optional[str] = None) -> str:
        path = path or self.path
        if not path:
            raise ValueError("TuneDB has no path; pass one to save()")
        with open(path, "w") as f:
            json.dump(self.entries, f, indent=2, sort_keys=True)
            f.write("\n")
        return path


def _short(v):
    return v.__name__ if isinstance(v, type) else v


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def tune_report(results: Dict[str, "object"]) -> dict:
    """The ``BENCH_tune.json`` payload: per-search summaries plus the
    ``autotune.*`` counters accumulated this session."""
    counters = {
        k: v
        for k, v in _obs.TRACER.counter_totals().items()
        if k.startswith("autotune.")
    }
    return {
        "searches": {name: r.summary() for name, r in sorted(results.items())},
        "counters": counters,
    }
