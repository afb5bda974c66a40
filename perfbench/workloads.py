"""The four benchmark workloads: compile, tune, simulate and native.

Each workload has a ``setup`` (repeated by the runner, each time on a
freshly imported ``repro``), an untimed ``prepare`` that makes the seeded
inputs, a timed ``run_pass`` that returns the pass's determinism record,
and ``check``, the correctness gates.  The seed feeds only the inputs the
gates and kernels run on; the searches use a fixed seed so that their
winners, and every figure derived from them, do not depend on it.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from statistics import median
from typing import Dict, List, Tuple

import numpy as np

import native
from clock import Clock
from metrics import Tally, geomean
from probes import Probes

#: ResNet-50 (batch 4) GEMM shapes of Fig. 4a, as N x M x K
FIG4A_SHAPES = (
    (768, 64, 64),
    (768, 64, 256),
    (192, 128, 512),
    (192, 512, 128),
    (768, 256, 64),
    (64, 512, 512),
    (256, 256, 256),
    (128, 1024, 128),
)

#: problem size the Gemmini searches price candidates at
GEMMINI_TUNE_SIZES = {"N": 512, "M": 512, "K": 512}

EPS32 = float(np.finfo(np.float32).eps)


def _mod(name: str):
    """The currently imported ``repro`` module ``name`` (set-up re-imports
    ``repro``, so modules are looked up at call time, never cached)."""
    return importlib.import_module(name)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cold():
    """Drop every cross-derivation cache so a pass derives from scratch:
    the app builders' ``lru_cache``s, the solver's verdict caches and the
    cost model's memo."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("repro.apps."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    solver = _mod("repro.smt.solver").DEFAULT_SOLVER
    solver.qcache.clear()
    solver._prove_cache.clear()
    solver._feas_cache.clear()
    _mod("repro.autotune.cost").clear_cost_cache()


class Context:
    """What every workload shares: the seed, probes, failure tally, the
    scratch directory, the clock, and the layer counters of the current
    pass."""

    def __init__(self, seed: int, probes: Probes, tally: Tally, workdir: str):
        self.seed = seed
        self.probes = probes
        self.tally = tally
        self.workdir = workdir
        self.clock = Clock(probes.directive_ms)
        probes.after_directive = self.clock.tick
        self.layer: Dict[str, float] = {}

    def unit(self):
        """Time one unit of Python work (see :mod:`clock`)."""
        return self.clock.unit()

    def rng(self, stream: int) -> np.random.Generator:
        """An input generator for one purpose, fixed by (seed, stream)."""
        return np.random.default_rng([self.seed, stream])

    def count(self, key: str, n: float):
        self.layer[key] = self.layer.get(key, 0) + n

    def emit(self, proc) -> str:
        """``proc.c_code()``, timed and counted as the cgen layer."""
        with self.probes.span("core.cgen.c_code"):
            src = proc.c_code()
        self.count("core.cgen.c_lines", src.count("\n"))
        return src


class Workload:
    name = ""
    #: True when one pass spends the whole time budget itself
    budgeted = False
    #: fewest set-up repetitions (the runner adds more when set-up must
    #: supply the directive samples for a p90)
    setup_reps = 3

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.gen_c_lines = 0

    def setup(self):
        """Build what the timed passes need (``repro`` is freshly imported)."""

    def prepare(self):
        """Make the seeded inputs (untimed)."""

    def run_pass(self, budget_s: float) -> dict:
        raise NotImplementedError

    def check(self):
        """Correctness gates, counted into the tally."""

    def work_s(self, scaled_s: List[float]) -> float:
        """The workload's unit-of-work time: by default the median over
        passes of the pass's scaled CPU seconds."""
        return median(scaled_s)

    def figures(self, raw_s: float) -> List[Tuple[str, float, str]]:
        """The workload's own named figures, as (name, value, unit), given
        the median raw CPU seconds of a pass."""
        return []


def _f32(rng, shape):
    return rng.uniform(-1, 1, shape).astype(np.float32)


def _small_i8(rng, shape):
    return rng.integers(-1, 2, shape).astype(np.int8)


def _within_fp_bound(got, ref64, mag64, length) -> Tuple[bool, str]:
    bound = 2 * length * EPS32 * mag64 + 1e-6
    worst = float(np.max(np.abs(got.astype(np.float64) - ref64) / bound))
    return worst <= 1.0, f"max error / bound = {worst:.3g}"


def _conv_ref(inp, w):
    """Direct 3x3 conv (NHWC) in float64: (sum, sum of magnitudes)."""
    b, h, wd, _ = inp.shape
    oy, ox = h - 2, wd - 2
    acc = np.zeros((b, oy, ox, w.shape[3]))
    mag = np.zeros_like(acc)
    x64, w64 = inp.astype(np.float64), w.astype(np.float64)
    for ky in range(3):
        for kx in range(3):
            window = x64[:, ky:ky + oy, kx:kx + ox, :]
            acc += window @ w64[ky, kx]
            mag += np.abs(window) @ np.abs(w64[ky, kx])
    return acc, mag


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


class Compile(Workload):
    """Cold derivation plus C emission of the seven paper kernels."""

    name = "compile"

    @staticmethod
    def builders():
        gm = _mod("repro.apps.gemmini_matmul")
        gc = _mod("repro.apps.gemmini_conv")
        xs = _mod("repro.apps.x86_sgemm")
        xc = _mod("repro.apps.x86_conv")
        return (
            ("matmul_exo", gm.matmul_exo),
            ("matmul_oldlib", gm.matmul_oldlib),
            ("matmul_exo_blocked_4x4", lambda: gm.matmul_exo_blocked(4, 4)),
            ("gemmini_conv_exo", gc.conv_exo),
            ("gemmini_conv_oldlib", gc.conv_oldlib),
            ("x86_sgemm_exo", xs.sgemm_exo),
            ("x86_conv_exo", xc.conv_exo),
        )

    def setup(self):
        self.builders()  # imports the app modules (parsing their @procs)

    def run_pass(self, budget_s: float) -> dict:
        cold()
        tally = self.ctx.tally
        self.kernels = {}
        sources = []
        for name, build in self.builders():
            with self.ctx.unit():
                proc = tally.run(f"derive {name}", build)
                if proc is None:
                    continue
                self.kernels[name] = proc
                src = tally.run(f"emit C for {name}", self.ctx.emit, proc)
            sources.append(src or "")
        c = "".join(sources)
        self.gen_c_lines = c.count("\n")
        return {"gen_c_lines": self.gen_c_lines, "c_sha256": sha256(c)}

    def _gate(self, name: str, run_kernel, expect):
        def gate():
            proc = self.kernels.get(name)
            if proc is None:
                return False, "kernel was not derived"
            return expect(run_kernel(proc))

        self.ctx.tally.check(f"{name} output", gate)

    def check(self):
        gm = _mod("repro.apps.gemmini_matmul")
        gc = _mod("repro.apps.gemmini_conv")
        rng = self.ctx.rng(1)

        # Gemmini int8 kernels: equal to the unscheduled algorithm's output
        # under the interpreter (|values| <= 1 keeps every sum in int8)
        n, m, k = 64, 64, 16
        a, b = _small_i8(rng, (n, k)), _small_i8(rng, (k, m))
        ref = np.zeros((n, m), np.int8)
        gm.matmul_base.interpret(n, m, k, a, b, ref)

        def run_matmul(proc):
            out = np.zeros((n, m), np.int8)
            proc.interpret(n, m, k, a, b, out)
            return out

        def equal_to(expected):
            return lambda out: (
                np.array_equal(out, expected),
                f"{int(np.sum(out != expected))} elements differ",
            )

        for name in ("matmul_exo", "matmul_oldlib", "matmul_exo_blocked_4x4"):
            self._gate(name, run_matmul, equal_to(ref))

        cb, oy, ox, oc, ic = 1, 1, 32, 32, 16
        while True:  # redraw until every output fits in int8
            inp = _small_i8(rng, (cb, oy + 2, ox + 2, ic))
            w = _small_i8(rng, (3, 3, ic, oc))
            if np.abs(_conv_ref(inp, w)[0]).max() <= 127:
                break
        conv_ref = np.zeros((cb, oy, ox, oc), np.int8)
        gc._conv_algorithm("conv_unscheduled").interpret(
            cb, oy, ox, oc, ic, inp, w, conv_ref
        )

        def run_gconv(proc):
            out = np.zeros((cb, oy, ox, oc), np.int8)
            proc.interpret(cb, oy, ox, oc, ic, inp, w, out)
            return out

        for name in ("gemmini_conv_exo", "gemmini_conv_oldlib"):
            self._gate(name, run_gconv, equal_to(conv_ref))

        # x86 float kernels: equal to numpy within float32 rounding
        sm, sn, sk = 12, 128, 16
        a, b = _f32(rng, (sm, sk)), _f32(rng, (sk, sn))

        def run_sgemm(proc):
            out = np.zeros((sm, sn), np.float32)
            proc.interpret(sm, sn, sk, a, b, out)
            return out

        a64, b64 = a.astype(np.float64), b.astype(np.float64)
        self._gate("x86_sgemm_exo", run_sgemm, lambda out: _within_fp_bound(
            out, a64 @ b64, np.abs(a64) @ np.abs(b64), sk))

        xb, xy, xx, xoc, xic = 1, 2, 8, 32, 8
        inp, w = _f32(rng, (xb, xy + 2, xx + 2, xic)), _f32(rng, (3, 3, xic, xoc))
        acc, mag = _conv_ref(inp, w)

        def run_xconv(proc):
            out = np.zeros((xb, xy, xx, xoc), np.float32)
            proc.interpret(xb, xy, xx, xoc, xic, inp, w, out)
            return out

        self._gate("x86_conv_exo", run_xconv, lambda out: _within_fp_bound(
            out, np.maximum(acc, 0.0), mag, 9 * xic))

    def figures(self, raw_s):
        return [("compile_s", raw_s, "s")]


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------


class Tune(Workload):
    """Fixed-seed, modeled-cost searches: two parameter grids and two
    depth-4 action-space beam searches."""

    name = "tune"

    def searches(self):
        at = _mod("repro.autotune")
        gm = _mod("repro.apps.gemmini_matmul")
        xs = _mod("repro.apps.x86_sgemm")
        gem = dict(model=at.GEMMINI_MODEL, sizes=GEMMINI_TUNE_SIZES)
        return (
            ("sgemm_grid", xs.sgemm_space, at.TuneConfig(seed=0, budget=30)),
            ("matmul_grid", gm.matmul_space,
             at.TuneConfig(seed=0, budget=6, **gem)),
            ("sgemm_beam",
             lambda: at.Space.action_space("sgemm_beam", xs.sgemm_tune_base(),
                                           depth=4),
             at.TuneConfig(seed=0, budget=200)),
            ("matmul_beam",
             lambda: at.Space.action_space("matmul_beam", gm.matmul_base,
                                           depth=4),
             at.TuneConfig(seed=0, budget=200, **gem)),
        )

    def setup(self):
        self.searches()

    def run_pass(self, budget_s: float) -> dict:
        cold()
        search = _mod("repro.autotune").search
        tally = self.ctx.tally
        self.results = {}
        c_lines = 0
        for name, make_space, cfg in self.searches():
            def one():
                space = make_space()
                with self.ctx.probes.span("autotune.search", space=name):
                    return space, search(space, cfg)

            with self.ctx.unit():
                out = tally.run(f"search {name}", one)
                if out is None:
                    continue
                space, res = out
                self.results[name] = (space, res)
                if res.best is not None:
                    src = tally.run(f"emit C for {name} winner",
                                    self.ctx.emit, res.best.proc)
                    c_lines += (src or "").count("\n")
        self.gen_c_lines = c_lines
        self.candidates = sum(len(r.candidates) for _, r in self.results.values())
        winners = {
            name: [r.best.describe(), r.best.cost.cycles]
            for name, (_, r) in sorted(self.results.items()) if r.best
        }
        return {"gen_c_lines": c_lines, "winners": winners}

    def check(self):
        tally = self.ctx.tally
        at = _mod("repro.autotune")
        ok = _mod("repro.obs.journal").VERDICT_OK
        for name, _space, _cfg in self.searches():
            if name not in self.results:
                tally.check(f"{name} search", lambda: (False, "search raised"))
                continue
            space, res = self.results[name]

            def survivors_checked(res=res):
                bad = [c.describe() for c in res.candidates if c.ok and any(
                    r.verdict != ok for r in c.proc.schedule_log())]
                return not bad, f"unchecked survivors: {bad}"

            def replays(space=space, res=res, name=name):
                if res.best is None:
                    return False, "no winner"
                db = at.TuneDB()
                db.put(name, res)
                again = db.replay(name, space.base)
                same = (str(again) == str(res.best.proc)
                        and again.c_code() == res.best.proc.c_code())
                return same, "replayed winner differs"

            tally.check(f"{name} survivors carry OK verdicts", survivors_checked)
            tally.check(f"{name} winner replays byte-identically", replays)

    def winner_cycles(self) -> float:
        return geomean([r.best.cost.cycles for _, r in self.results.values()
                        if r.best is not None])

    def figures(self, raw_s):
        return [
            ("tune_s", raw_s, "s"),
            ("candidates_per_s", self.candidates / raw_s, "1/s"),
            ("winner_cycles", self.winner_cycles(), "cycles"),
        ]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _tile_for(dim16: int) -> int:
    """Largest macro-tile factor in {4, 3, 2, 1} dividing dim/16 (as in
    the Fig. 4a benchmark)."""
    for t in (4, 3, 2):
        if dim16 % t == 0:
            return t
    return 1


class Simulate(Workload):
    """Trace and simulate the Fig. 4a shapes for the Exo-lib and Old-lib
    kernels, which set-up derives."""

    name = "simulate"

    def setup(self):
        gm = _mod("repro.apps.gemmini_matmul")
        tiles = sorted({(_tile_for(n // 16), _tile_for(m // 16))
                        for n, m, _ in FIG4A_SHAPES})
        self.exo = {t: gm.matmul_exo_blocked(*t) for t in tiles}
        self.old = gm.matmul_oldlib()
        c = "".join(self.ctx.emit(p) for p in [*self.exo.values(), self.old])
        self.gen_c_lines = c.count("\n")

    def prepare(self):
        rng = self.ctx.rng(2)
        self.inputs = [
            (_small_i8(rng, (n, k)), _small_i8(rng, (k, m)))
            for n, m, k in FIG4A_SHAPES
        ]

    def run_pass(self, budget_s: float) -> dict:
        trace_kernel = _mod("repro.machine.trace").trace_kernel
        sim = _mod("repro.machine.gemmini_sim").GemminiSim()
        span = self.ctx.probes.span
        self.util = []  # (shape, exo utilization, old utilization)
        cycles = 0.0
        for (n, m, k), (a, b) in zip(FIG4A_SHAPES, self.inputs):
            utils = []
            for proc in (self.exo[(_tile_for(n // 16), _tile_for(m // 16))],
                         self.old):
                c = np.zeros((n, m), np.int8)
                with self.ctx.unit():
                    with span("machine.trace_kernel", kernel=proc.name()):
                        events = trace_kernel(proc, n, m, k, a, b, c)
                    with span("machine.gemmini_sim.run", kernel=proc.name()):
                        res = sim.run(events)
                self.ctx.count("machine.trace_events", len(events))
                cycles += res.cycles
                utils.append(res.utilization)
            self.util.append(((n, m, k), *utils))
        self.ctx.count("machine.sim_cycles", cycles)
        return {"util_pct": self.util_pct(), "sim_cycles": cycles,
                "gen_c_lines": self.gen_c_lines}

    def util_pct(self) -> float:
        return 100.0 * geomean([exo for _, exo, _ in self.util])

    def check(self):
        for shape, exo, old in self.util:
            self.ctx.tally.check(
                f"Exo-lib beats Old-lib on {'x'.join(map(str, shape))}",
                lambda exo=exo, old=old: (
                    exo > old, f"Exo-lib {exo:.4f} <= Old-lib {old:.4f}"),
            )

    def figures(self, raw_s):
        return [("simulate_s", raw_s, "s"), ("util_pct", self.util_pct(), "%")]


# ---------------------------------------------------------------------------
# native
# ---------------------------------------------------------------------------


class Native(Workload):
    """gcc-built AVX-512 SGEMM and Fig-6 conv, run on one thread."""

    name = "native"
    budgeted = True
    #: its set-up directives take milliseconds each, so their percentiles
    #: need more samples of each to hold steady
    setup_reps = 8
    KERNELS = ("sgemm", "conv")
    #: shares of the time budget spent running each kernel (the rest goes
    #: to the two gcc builds and the file I/O)
    SHARE = {"sgemm": 0.35, "conv": 0.45}
    MIN_REPS = 5

    def setup(self):
        self.kernels = native.derive_kernels()
        self.sources = {k: self.ctx.emit(p) for k, p in self.kernels.items()}
        self.gen_c_lines = sum(s.count("\n") for s in self.sources.values())

    def prepare(self):
        self.problems = native.make_problems(self.ctx.seed)
        self.harness = {
            k: native.harness_source(self.sources[k], self.kernels[k].name(),
                                     self.problems[k],
                                     native.reference_source(k), f"ref_{k}")
            for k in self.KERNELS
        }
        self.runs = {k: [] for k in self.KERNELS}

    def run_pass(self, budget_s: float) -> dict:
        compile_and_run = _mod("repro.machine.x86_sim").compile_and_run
        digest = {}
        for k in self.KERNELS:
            with self.ctx.probes.span("machine.compile_and_run", kernel=k):
                run = self.ctx.tally.run(
                    f"build and run {k}", native.build_and_run,
                    compile_and_run, self.harness[k], self.problems[k],
                    self.ctx.workdir, f"{k}-{self.ctx.seed}",
                    budget_s * self.SHARE[k] * 1e3, self.MIN_REPS,
                )
            if run is None:
                continue
            self.runs[k].append(run)
            self.ctx.count("machine.cc_build_s", run.build_s)
            self.ctx.count("machine.native_run_s", run.run_s)
            digest[k] = hashlib.sha256(run.output.tobytes()).hexdigest()
        return {"gen_c_lines": self.gen_c_lines, "output_sha256": digest}

    def gflops(self, k: str) -> float:
        reps = [ms for run in self.runs[k] for ms in run.rep_ms]
        if not reps:
            raise RuntimeError(f"{k}: no timed repetitions")
        return self.problems[k].flops / (median(reps) * 1e6)

    def work_s(self, scaled_s):
        """Seconds per GFLOP of generated code at the reference kernels'
        quiet-machine speed: per kernel, the median of (kernel time /
        reference time) over repetitions, divided by the reference's
        GFLOP/s; geomean over the kernels."""
        scaled = []
        for k in self.KERNELS:
            ratios = [ms / ref for run in self.runs[k]
                      for ms, ref in zip(run.rep_ms, run.ref_ms)]
            if not ratios:
                raise RuntimeError(f"{k}: no timed repetitions")
            scaled.append(native.REFERENCE_GFLOPS[k] / median(ratios))
        return 1.0 / geomean(scaled)

    def check(self):
        for k in self.KERNELS:
            if not self.runs[k]:
                self.ctx.tally.check(f"{k} output", lambda: (False, "no run"))
            for i, run in enumerate(self.runs[k]):
                self.ctx.tally.check(
                    f"{k} output (run {i}) matches numpy",
                    lambda run=run, k=k: native.within_bound(
                        self.problems[k], run.output),
                )

    def figures(self, raw_s):
        return [("sgemm_gflops", self.gflops("sgemm"), "GFLOP/s"),
                ("conv_gflops", self.gflops("conv"), "GFLOP/s")]


WORKLOADS = {w.name: w for w in (Compile, Tune, Simulate, Native)}
