"""Subsystem acceptance tests (ISSUE 5): with a fixed seed, tuning the
x86 SGEMM and the Fig-4a Gemmini matmul finds schedules whose modeled
cost is no worse than the hand-written ones, every searched candidate
passes the safety checks or is pruned, and the winners replay
byte-identically from their persisted journals."""

from __future__ import annotations

import pytest

from repro import DRAM, f32, obs, proc, size
from repro.autotune import (
    GEMMINI_MODEL,
    TuneConfig,
    TuneDB,
    X86_MODEL,
    cost_of,
    search,
)
from repro.obs.journal import VERDICT_OK


@proc
def scal(n: size, x: f32[n] @ DRAM):
    assert n % 8 == 0
    for i in seq(0, n):
        x[i] = 2.0 * x[i]


@pytest.fixture(autouse=True)
def _clean_obs():
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    yield
    obs.reset()
    if not was_enabled:
        obs.disable()


def _assert_all_checked(result):
    """Every candidate was either pruned (error recorded, no proc) or
    emitted with an all-ok-verdict journal — zero unchecked schedules."""
    for c in result.candidates:
        if c.ok:
            assert all(r.verdict == VERDICT_OK for r in c.proc.schedule_log())
        else:
            assert c.error


class TestSgemmAcceptance:
    def test_tuned_sgemm_beats_or_matches_handwritten(self):
        from repro.apps.x86_sgemm import (
            TUNE_K, TUNE_M, TUNE_N, sgemm_exo, sgemm_space,
        )

        r = search(sgemm_space(), TuneConfig(seed=0, budget=30))
        assert r.best is not None
        _assert_all_checked(r)

        hand = cost_of(sgemm_exo(6, 4),
                       {"M": TUNE_M, "N": TUNE_N, "K": TUNE_K}, X86_MODEL)
        assert r.best.cost.cycles <= hand.cycles

        # non-dividing register tiles (mr=5 against 192) must be pruned
        assert r.stats["pruned"] > 0

    def test_sgemm_winner_replays_byte_identically(self):
        from repro.apps.x86_sgemm import sgemm_space

        space = sgemm_space()
        r = search(space, TuneConfig(seed=0, budget=30))
        db = TuneDB()
        db.put("sgemm", r)

        # in-memory journal replay
        rep = db.replay("sgemm", space.base)
        assert str(rep) == str(r.best.proc)
        assert rep.c_code() == r.best.proc.c_code()

    def test_sgemm_winner_survives_json_roundtrip(self, tmp_path):
        from repro.apps.x86_sgemm import make_microkernel, sgemm_space

        space = sgemm_space()
        r = search(space, TuneConfig(seed=0, budget=30))
        db = TuneDB()
        db.put("sgemm", r)
        path = str(tmp_path / "db.json")
        db.save(path)

        # cross-process path: decode JSON, resolve the micro-kernel
        # procedures by name, replay on the base algorithm
        mr = r.best.params["mr"]
        nv = r.best.params["nv"]
        algo, sched = make_microkernel(mr, nv)
        procs = {algo.name(): algo, sched.name(): sched}
        fresh = TuneDB(path)
        rep = fresh.replay("sgemm", space.base, procs=procs)
        assert str(rep) == str(r.best.proc)
        assert rep.c_code() == r.best.proc.c_code()


class TestGemminiAcceptance:
    SIZES = {"N": 512, "M": 512, "K": 512}

    def test_tuned_matmul_matches_handwritten_fig4a(self):
        from repro.apps.gemmini_matmul import matmul_exo, matmul_space

        r = search(matmul_space(),
                   TuneConfig(seed=0, budget=10, model=GEMMINI_MODEL,
                              sizes=self.SIZES))
        assert r.best is not None
        _assert_all_checked(r)

        hand = cost_of(matmul_exo(), self.SIZES, GEMMINI_MODEL)
        assert r.best.cost.cycles <= hand.cycles

        # the tuner must rediscover the paper's Fig-4a result: hoisted
        # configs (Exo-lib) beat per-DMA fused configs (Old-lib), because
        # every fused config write flushes the accelerator pipeline
        assert r.best.params == {"style": "hoisted", "stage": True}
        fused = [c for c in r.candidates
                 if c.ok and c.params["style"] == "fused"]
        assert fused and all(
            c.cost.cycles > r.best.cost.cycles for c in fused
        )

    def test_unstaged_instr_selection_is_pruned_not_emitted(self):
        from repro.apps.gemmini_matmul import matmul_space

        r = search(matmul_space(),
                   TuneConfig(seed=0, budget=10, model=GEMMINI_MODEL,
                              sizes=self.SIZES))
        pruned = [c for c in r.candidates if not c.ok]
        assert {tuple(sorted(c.params.items())) for c in pruned} == {
            (("stage", False), ("style", "fused")),
            (("stage", False), ("style", "hoisted")),
        }

    def test_matmul_winner_replays_byte_identically(self, tmp_path):
        from repro.apps.gemmini_matmul import matmul_base, matmul_space
        from repro.platforms import gemmini as G

        r = search(matmul_space(),
                   TuneConfig(seed=0, budget=10, model=GEMMINI_MODEL,
                              sizes=self.SIZES))
        db = TuneDB()
        db.put("fig4a", r)
        rep = db.replay("fig4a", matmul_base)
        assert str(rep) == str(r.best.proc)
        assert rep.c_code() == r.best.proc.c_code()

        # and across the JSON boundary, resolving instr procs by name
        path = str(tmp_path / "db.json")
        db.save(path)
        procs = {}
        for v in vars(G).values():
            name = getattr(v, "name", None)
            if callable(name):
                try:
                    procs[name()] = v
                except Exception:
                    pass
        rep2 = TuneDB(path).replay("fig4a", matmul_base, procs=procs)
        assert str(rep2) == str(r.best.proc)


class TestMeasuredMode:
    @staticmethod
    def _measured_scal_search(**config):
        from repro.autotune import Choice, Space

        def build(b, factor):
            return b.split("for i in _: _", factor, "io", "ii",
                           tail="perfect")

        sp = Space("scal", scal, choices=[Choice("factor", (2, 4, 8))],
                   build=build)
        knobs = dict(seed=0, budget=8, measure=True, top_k=2,
                     measure_reps=1, measure_timeout_s=60.0, sizes={"n": 64})
        knobs.update(config)
        return search(sp, TuneConfig(**knobs))

    def test_measured_rerank_is_crash_isolated(self):
        """Measured mode on a tiny kernel: each candidate compiles and runs
        as its own binary, and the search records a timing or an error per
        top-k candidate."""
        r = self._measured_scal_search()
        assert r.best is not None
        assert r.stats["measured"] + r.stats["measure_failures"] == 2
        if r.stats["measured"]:
            assert r.best.measured_s is not None

    def test_without_a_compiler_the_modeled_winner_stands(self, monkeypatch):
        from repro.machine import x86_sim

        monkeypatch.setattr(x86_sim, "find_cc", lambda: None)
        r = self._measured_scal_search()
        top = r.ranked[:2]
        assert all("no C compiler found" in c.measure_error for c in top)
        assert all(c.measured_s is None for c in top)
        assert r.stats["measured"] == 0
        assert r.stats["measure_failures"] == 2
        assert r.best is r.ranked[0]

    def test_abort_and_hang_are_per_candidate_failures(self, monkeypatch,
                                                      tmp_path):
        """The first-ranked candidate's binary aborts and the second's
        spins past the timeout: both are recorded as failures, the third
        is still timed and wins, and the spinning child is gone."""
        import errno
        import os

        from repro.machine import x86_sim

        if x86_sim.find_cc() is None:
            pytest.skip("no C compiler")
        pid_file = tmp_path / "spin.pid"
        mains = [
            "#include <stdlib.h>\nint main(void) { abort(); }\n",
            "#include <stdio.h>\n#include <unistd.h>\n"
            "int main(void) {\n"
            f'    FILE *f = fopen("{pid_file}", "w");\n'
            '    fprintf(f, "%d", (int)getpid());\n'
            "    fclose(f);\n"
            "    for (volatile unsigned long x = 0;; x++) {}\n"
            "}\n",
        ]
        real = x86_sim.harness_source

        def harness(proc, args, reps):
            if mains:
                return mains.pop(0)
            return real(proc, args, reps)

        monkeypatch.setattr(x86_sim, "harness_source", harness)
        r = self._measured_scal_search(top_k=3, measure_timeout_s=1.0)
        aborted, hung, timed = r.ranked[:3]
        assert "RuntimeError" in aborted.measure_error
        assert "TimeoutExpired" in hung.measure_error
        assert timed.measure_error is None and timed.measured_s is not None
        assert r.best is timed
        assert r.stats["measured"] == 1
        assert r.stats["measure_failures"] == 2
        spin_pid = int(pid_file.read_text())
        with pytest.raises(OSError) as gone:
            os.kill(spin_pid, 0)
        assert gone.value.errno == errno.ESRCH

    def test_measured_kernel_is_called_not_inlined(self, monkeypatch,
                                                   tmp_path):
        """Measured mode's program for ``scal(n, x)`` at n = 4096, built
        with ``-O2 -S``, reaches the kernel through an indirect call and
        holds no ``addps`` between two ``clock_gettime`` calls: called
        directly, gcc times a constant-size copy inlined into ``main``."""
        import re
        import subprocess

        from repro.autotune import Choice, Space
        from repro.machine.x86_sim import find_cc

        cc = find_cc()
        if cc is None:
            pytest.skip("no C compiler")
        builds, real_run = [], subprocess.run

        def run(cmd, *args, **kwargs):
            if cmd[0] == cc:
                src = next(c for c in cmd if c.endswith(".c"))
                with open(src) as f:
                    builds.append((cmd[1:cmd.index(src)], f.read()))
            return real_run(cmd, *args, **kwargs)

        monkeypatch.setattr(subprocess, "run", run)
        sp = Space("scal", scal, choices=[Choice("schedule", ("base",))],
                   build=lambda b, schedule: b)
        r = search(sp, TuneConfig(budget=1, measure=True, top_k=1,
                                  measure_reps=1, sizes={"n": 4096}))
        monkeypatch.setattr(subprocess, "run", real_run)
        assert r.stats["measured"] == 1 and len(builds) == 1

        flags, source = builds[0]
        (tmp_path / "h.c").write_text(source)
        real_run([cc, *flags, "-S", str(tmp_path / "h.c"),
                  "-o", str(tmp_path / "h.s")], check=True)
        main = (tmp_path / "h.s").read_text().split("\nmain:")[1]
        main = main[:main.index(".cfi_endproc")]
        timed = re.split(r"call\s+clock_gettime\S*", main)[1:-1]
        assert timed, "main holds no pair of clock_gettime calls"
        assert any(re.search(r"call\s+\*", seg) for seg in timed)
        assert not any("addps" in seg for seg in timed)
