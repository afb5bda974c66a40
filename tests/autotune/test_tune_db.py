"""Tests for winner persistence (autotune/tune_db.py): JSON round-trip of
journal records and byte-identical replay of stored winners."""

from __future__ import annotations

import pytest

from repro import DRAM, obs
from repro.api import procs_from_source
from repro.autotune import Choice, Space, TuneConfig, TuneDB, search
from repro.autotune.tune_db import decode_record, encode_record
from repro.obs.journal import PathRef, RewriteRecord

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, DRAM, f32, size\n"
)


def _p(body):
    return list(procs_from_source(HEADER + body).values())[-1]


@pytest.fixture(autouse=True)
def _clean_obs():
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    yield
    obs.reset()
    if not was_enabled:
        obs.disable()


@pytest.fixture
def scal():
    return _p(
        """
@proc
def scal(x: f32[96] @ DRAM):
    for i in seq(0, 96):
        x[i] = 2.0 * x[i]
"""
    )


def _space(base):
    def build(b, factor):
        return b.split("for i in _: _", factor, "io", "ii", tail="perfect")

    return Space("scal", base, choices=[Choice("factor", (2, 4, 8))],
                 build=build)


class TestCodec:
    def test_primitives_roundtrip(self):
        rec = RewriteRecord(op="split", args=("for i in _: _", 4, "io", "ii"),
                            kwargs=(("tail", "perfect"),), verdict="ok")
        back = decode_record(encode_record(rec))
        assert back == rec

    def test_pathref_roundtrip(self):
        ref = PathRef(path=(("body", 0), ("body", 1)), count=2,
                      expr_path=(("rhs", 0),))
        rec = RewriteRecord(op="reorder", args=(ref,), kwargs=(),
                            verdict="ok")
        back = decode_record(encode_record(rec))
        assert back.args[0] == ref

    def test_pathref_expr_steps_of_every_length_roundtrip(self):
        # expression steps are (field,), (field, i) or (field, i, sub)
        ref = PathRef(path=(("body", 0),), count=1,
                      expr_path=(("rhs",), ("args", 1), ("idx", 0, "lo")))
        rec = RewriteRecord(op="bind_expr", args=("t", ref), kwargs=(),
                            verdict="ok")
        assert decode_record(encode_record(rec)).args[1] == ref

    def test_old_entry_with_pattern_key_decodes(self):
        """Entries written while records carried a sniffed ``pattern``
        still decode; the key is ignored."""
        old = {"op": "split", "args": ["for i in _: _", 4, "io", "ii"],
               "kwargs": [["tail", "perfect"]], "pattern": "for i in _: _",
               "verdict": "ok"}
        back = decode_record(old)
        assert back == RewriteRecord(
            op="split", args=("for i in _: _", 4, "io", "ii"),
            kwargs=(("tail", "perfect"),), verdict="ok")
        assert "pattern" not in encode_record(back)

    def test_memory_roundtrip(self):
        rec = RewriteRecord(op="set_memory", args=("t", DRAM), kwargs=(),
                            verdict="ok")
        enc = encode_record(rec)
        assert enc["args"][1] == {"$memory": "DRAM"}
        assert decode_record(enc).args[1] is DRAM

    def test_unknown_memory_rejected(self):
        with pytest.raises(ValueError):
            decode_record({"op": "set_memory",
                           "args": [{"$memory": "HBM3"}],
                           "kwargs": [], "pattern": None, "verdict": "ok"})

    def test_proc_arg_needs_mapping(self, scal):
        rec = RewriteRecord(op="call_eqv", args=(scal,), kwargs=(),
                            verdict="ok")
        enc = encode_record(rec)
        assert enc["args"][0] == {"$proc": "scal"}
        with pytest.raises(ValueError):
            decode_record(enc)
        assert decode_record(enc, procs={"scal": scal}).args[0] is scal


class TestDB:
    def test_put_get_replay(self, scal):
        r = search(_space(scal), TuneConfig(seed=0, budget=8))
        db = TuneDB()
        entry = db.put("scal", r)
        assert entry["space"] == "scal"
        assert db.get("scal")["modeled_cycles"] == round(r.best.cost.cycles, 1)
        assert db.keys() == ["scal"]

        replayed = db.replay("scal", scal)
        assert str(replayed) == str(r.best.proc)

    def test_save_load_replay_from_json(self, scal, tmp_path):
        """The cross-process path: decode the persisted JSON journal and
        replay it on the base — still byte-identical."""
        r = search(_space(scal), TuneConfig(seed=0, budget=8))
        path = str(tmp_path / "tune.json")
        db = TuneDB()
        db.put("scal", r)
        db.save(path)

        fresh = TuneDB(path)  # no in-memory records: decodes JSON
        assert fresh.keys() == ["scal"]
        replayed = fresh.replay("scal", scal)
        assert str(replayed) == str(r.best.proc)
        assert replayed.c_code() == r.best.proc.c_code()

    def test_put_without_winner_raises(self, scal):
        sp = Space("scal", scal, choices=[Choice("factor", (7,))],
                   build=lambda b, factor: b.split(
                       "for i in _: _", factor, "io", "ii", tail="perfect"))
        r = search(sp, TuneConfig(seed=0, budget=8))
        assert r.best is None
        with pytest.raises(ValueError):
            TuneDB().put("scal", r)

    def test_save_needs_path(self):
        with pytest.raises(ValueError):
            TuneDB().save()

    def test_counters(self, scal):
        r = search(_space(scal), TuneConfig(seed=0, budget=8))
        db = TuneDB()
        db.put("scal", r)
        db.replay("scal", scal)
        totals = obs.trace.TRACER.counter_totals()
        assert totals["autotune.db_puts"] == 1
        assert totals["autotune.db_replays"] == 1
