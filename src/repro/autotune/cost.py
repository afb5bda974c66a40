"""Analytic cost model over scheduled LoopIR.

:func:`cost_of` is the IR-driven model the search loop ranks candidates
by.  It walks a scheduled procedure under a concrete size assignment,
accumulating trip-count-weighted scalar flops, *accelerator-instruction*
flops (work inside ``@instr`` call bodies, priced at the machine's
vector/systolic throughput — the "credit" a schedule earns by
``replace()``-ing loop nests with instructions), per-``Memory``-class byte
traffic (DRAM vs scratchpad vs accumulator vs register), trip-weighted
config writes (a pipeline flush on accelerators), and call / loop
overheads.  A :class:`MachineModel` converts those counts into a scalar
cycle estimate (:attr:`Cost.cycles`).  The model is intentionally
*relative*: it exists to rank candidate schedules.  It is separate from
the closed-form x86 pricing of :mod:`repro.machine.x86_sim`
(``price_x86``), and no test compares their cycle counts.

Costs are cached by (procedure text, sizes, model); repeated queries for
the same candidate — common when beam search revisits a state — are
answered from the cache (``autotune.cost_cache_hits``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..core import ast as IR
from ..core.interp import dtype_of
from ..core.memory import DRAM
from ..obs import trace as _obs

# ---------------------------------------------------------------------------
# Machine models for the IR-driven cost
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MachineModel:
    """Converts IR-derived counts into a cycle estimate.

    ``bandwidth`` maps ``Memory`` subclass *names* to effective
    bytes/cycle; memories not listed fall back to ``default_bandwidth``.
    ``instr_flops_per_cycle`` is the throughput credited to work inside
    ``@instr`` call bodies (vector unit / systolic array);
    ``scalar_flops_per_cycle`` prices un-``replace()``-d scalar loops.
    ``config_write_cycles`` is the per-write pipeline-flush charge.
    """

    name: str
    scalar_flops_per_cycle: float
    instr_flops_per_cycle: float
    bandwidth: Mapping[str, float]
    default_bandwidth: float
    config_write_cycles: float = 0.0
    call_overhead_cycles: float = 0.0
    loop_overhead_cycles: float = 1.0
    freq_ghz: float = 1.0


#: one AVX-512 core: 32 sp flops/cycle vectorized vs ~2 scalar; register
#: traffic is effectively free, cache-filtered DRAM traffic is not
X86_MODEL = MachineModel(
    name="x86",
    scalar_flops_per_cycle=2.0,
    instr_flops_per_cycle=32.0,
    bandwidth={"DRAM": 64.0, "AVX512": 512.0, "StaticMemory": 128.0},
    default_bandwidth=64.0,
    config_write_cycles=0.0,
    call_overhead_cycles=18.0,
    loop_overhead_cycles=1.0,
    freq_ghz=4.3,
)

#: Gemmini: a 16x16 weight-stationary systolic array (512 MACs/cycle),
#: DMA-fed scratchpad/accumulator, and config writes that flush the
#: accelerator pipeline (the Fig. 4a effect the search must discover)
GEMMINI_MODEL = MachineModel(
    name="gemmini",
    scalar_flops_per_cycle=0.5,
    instr_flops_per_cycle=512.0,
    bandwidth={"DRAM": 16.0, "SCRATCHPAD": 64.0, "ACCUM": 64.0},
    default_bandwidth=16.0,
    config_write_cycles=200.0,
    call_overhead_cycles=2.0,
    loop_overhead_cycles=1.0,
    freq_ghz=1.0,
)

_MODELS = {m.name: m for m in (X86_MODEL, GEMMINI_MODEL)}


def model_by_name(name: str) -> MachineModel:
    try:
        return _MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown machine model {name!r} (have {sorted(_MODELS)})"
        ) from None


def _elem_bytes(typ) -> int:
    """Bytes per element of a data type."""
    return np.dtype(dtype_of(typ)).itemsize


# ---------------------------------------------------------------------------
# The Cost record
# ---------------------------------------------------------------------------


@dataclass
class Cost:
    """Accumulated counts for one (procedure, sizes) pair plus the cycle
    estimate under a :class:`MachineModel`.  Ordered by ``cycles``."""

    model: MachineModel
    flops: float = 0.0  # total arithmetic ops (scalar + instr)
    scalar_flops: float = 0.0
    instr_flops: float = 0.0
    instrs: float = 0.0  # @instr invocations (trip-weighted)
    calls: float = 0.0  # all call invocations
    loop_iters: float = 0.0
    config_writes: float = 0.0
    traffic: Dict[str, float] = field(default_factory=dict)  # mem name -> bytes
    exact: bool = True  # False when a bound/guard had to be approximated

    def add_traffic(self, mem: str, nbytes: float):
        self.traffic[mem] = self.traffic.get(mem, 0.0) + nbytes

    @property
    def compute_cycles(self) -> float:
        m = self.model
        return (
            self.scalar_flops / m.scalar_flops_per_cycle
            + self.instr_flops / m.instr_flops_per_cycle
        )

    @property
    def mem_cycles(self) -> float:
        m = self.model
        return sum(
            nbytes / m.bandwidth.get(mem, m.default_bandwidth)
            for mem, nbytes in self.traffic.items()
        )

    @property
    def overhead_cycles(self) -> float:
        m = self.model
        return (
            self.config_writes * m.config_write_cycles
            + self.calls * m.call_overhead_cycles
            + self.loop_iters * m.loop_overhead_cycles
        )

    @property
    def cycles(self) -> float:
        return self.compute_cycles + self.mem_cycles + self.overhead_cycles

    def gflops(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return self.flops / (self.cycles / (self.model.freq_ghz * 1e9)) / 1e9

    def summary(self) -> dict:
        return {
            "model": self.model.name,
            "cycles": round(self.cycles, 1),
            "flops": self.flops,
            "scalar_flops": self.scalar_flops,
            "instr_flops": self.instr_flops,
            "instrs": self.instrs,
            "config_writes": self.config_writes,
            "traffic_bytes": {k: round(v, 1) for k, v in sorted(self.traffic.items())},
            "exact": self.exact,
        }

    def __str__(self):
        t = ", ".join(f"{k}={v:.0f}B" for k, v in sorted(self.traffic.items()))
        return (
            f"Cost<{self.model.name}>(cycles={self.cycles:.0f}, "
            f"flops={self.flops:.0f} [{self.instr_flops:.0f} instr], "
            f"cfg={self.config_writes:.0f}, traffic=[{t}])"
        )


# ---------------------------------------------------------------------------
# IR walk
# ---------------------------------------------------------------------------


def _eval(e: IR.Expr, env: Dict) -> Optional[int]:
    """Evaluate a control expression to an int under ``env`` (Sym -> int);
    None when it mentions an unbound variable or non-affine construct."""
    if isinstance(e, IR.Const):
        v = e.val
        return int(v) if isinstance(v, (int, bool)) else None
    if isinstance(e, IR.Read) and not e.idx:
        return env.get(e.name)
    if isinstance(e, IR.USub):
        v = _eval(e.arg, env)
        return -v if v is not None else None
    if isinstance(e, IR.BinOp):
        l, r = _eval(e.lhs, env), _eval(e.rhs, env)
        if l is None or r is None:
            return None
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r
        if e.op == "*":
            return l * r
        if e.op == "/":
            return l // r if r else None
        if e.op == "%":
            return l % r if r else None
        return None
    return None


def _arith_ops(e: IR.Expr) -> int:
    """Arithmetic operation count of a data expression.  Index expressions
    are addressing, not flops — they are not descended into, so rewrites
    that only reshape the iteration space (``split``, ``reorder``) leave
    the flop count invariant."""
    if isinstance(e, IR.BinOp):
        return 1 + _arith_ops(e.lhs) + _arith_ops(e.rhs)
    if isinstance(e, IR.USub):
        return 1 + _arith_ops(e.arg)
    if isinstance(e, IR.Extern):
        return 1 + sum(_arith_ops(a) for a in e.args)
    return 0


class _CostWalker:
    """Accumulates a :class:`Cost` over a procedure body.

    ``env`` binds control symbols to ints; ``mems``/``elems`` bind buffer
    symbols to their ``Memory``-class name and element byte width.  Calls
    recurse into the callee with formals bound from actuals, flipping
    ``in_instr`` for ``@instr`` callees so their interior work earns the
    accelerator throughput credit.
    """

    def __init__(self, model: MachineModel):
        self.cost = Cost(model)

    # -- environment construction ------------------------------------------

    @staticmethod
    def _mem_name(mem) -> str:
        return (mem or DRAM).name()

    def _bind_args(self, proc: IR.Proc, sizes: Mapping[str, int]):
        env: Dict = {}
        mems: Dict = {}
        elems: Dict = {}
        for a in proc.args:
            if a.type.is_numeric():
                mems[a.name] = self._mem_name(a.mem)
                elems[a.name] = _elem_bytes(a.type)
            else:
                v = sizes.get(a.name.name) if sizes else None
                if v is not None:
                    env[a.name] = int(v)
        return env, mems, elems

    # -- the walk -----------------------------------------------------------

    def run(self, proc: IR.Proc, sizes: Mapping[str, int],
            in_instr: bool = False):
        env, mems, elems = self._bind_args(proc, sizes)
        self._block(proc.body, 1.0, env, mems, elems, in_instr)
        return self.cost

    def _charge_flops(self, n: float, in_instr: bool):
        self.cost.flops += n
        if in_instr:
            self.cost.instr_flops += n
        else:
            self.cost.scalar_flops += n

    def _charge_reads(self, e: IR.Expr, w: float, mems, elems):
        for sub in IR.walk_exprs(e):
            if isinstance(sub, IR.Read) and sub.name in mems:
                self.cost.add_traffic(mems[sub.name], w * elems[sub.name])

    def _block(self, stmts, w, env, mems, elems, in_instr):
        for s in stmts:
            self._stmt(s, w, env, mems, elems, in_instr)

    def _stmt(self, s, w, env, mems, elems, in_instr):
        c = self.cost
        if isinstance(s, (IR.Assign, IR.Reduce)):
            ops = _arith_ops(s.rhs) + (1 if isinstance(s, IR.Reduce) else 0)
            self._charge_flops(w * ops, in_instr)
            for e in list(s.idx) + [s.rhs]:
                self._charge_reads(e, w, mems, elems)
            if s.name in mems:
                nbytes = w * elems[s.name]
                c.add_traffic(mems[s.name], nbytes)
                if isinstance(s, IR.Reduce):  # read-modify-write
                    c.add_traffic(mems[s.name], nbytes)
        elif isinstance(s, IR.WriteConfig):
            c.config_writes += w
        elif isinstance(s, IR.If):
            # guards (split tails etc.) are charged in full: an upper bound
            # that keeps guarded schedules priced >= their perfect twins
            self._charge_reads(s.cond, w, mems, elems)
            self._block(s.body, w, env, mems, elems, in_instr)
            self._block(s.orelse, w, env, mems, elems, in_instr)
        elif isinstance(s, IR.For):
            lo, hi = _eval(s.lo, env), _eval(s.hi, env)
            if lo is None or hi is None:
                trip, c.exact = 1.0, False
            else:
                trip = float(max(0, hi - lo))
            # loops inside an @instr body describe lane semantics executed
            # by the functional unit — no scalar loop-control overhead
            if not in_instr:
                c.loop_iters += w * trip
            self._block(s.body, w * trip, env, mems, elems, in_instr)
        elif isinstance(s, IR.WindowStmt):
            if s.rhs.name in mems:
                mems[s.name] = mems[s.rhs.name]
                elems[s.name] = elems[s.rhs.name]
        elif isinstance(s, IR.Alloc):
            if s.type.is_numeric():
                mems[s.name] = self._mem_name(s.mem)
                elems[s.name] = _elem_bytes(s.type)
        elif isinstance(s, IR.Call):
            self._call(s, w, env, mems, elems, in_instr)

    def _call(self, s: IR.Call, w, env, mems, elems, in_instr):
        c = self.cost
        callee = s.proc
        is_instr = callee.instr is not None
        if is_instr:
            # an @instr call is an inlined intrinsic / hardware instruction,
            # not a function call — its issue cost is the instr-throughput
            # credit, so no per-call overhead
            c.instrs += w
            # a *fused* accelerator instruction carries its config write in
            # the C template only (e.g. Gemmini's config_ld+mvin pairs) —
            # charge the pipeline flush from the emitted instruction stream
            # unless the Exo body already accounts for it via WriteConfig
            tmpl = getattr(callee.instr, "c_instr", "") or ""
            if "config" in tmpl and not any(
                isinstance(x, IR.WriteConfig) for x in IR.walk_stmts(callee.body)
            ):
                c.config_writes += w
        else:
            c.calls += w
        sub_env: Dict = {}
        sub_mems: Dict = {}
        sub_elems: Dict = {}
        for formal, actual in zip(callee.args, s.args):
            if formal.type.is_numeric():
                base = getattr(actual, "name", None)
                if base in mems:
                    sub_mems[formal.name] = mems[base]
                    sub_elems[formal.name] = elems[base]
                else:
                    sub_mems[formal.name] = self._mem_name(formal.mem)
                    sub_elems[formal.name] = _elem_bytes(formal.type)
            else:
                v = _eval(actual, env)
                if v is not None:
                    sub_env[formal.name] = v
        self._block(
            callee.body, w, sub_env, sub_mems, sub_elems, in_instr or is_instr
        )


# ---------------------------------------------------------------------------
# Public entry + memo cache
# ---------------------------------------------------------------------------

_COST_CACHE: Dict[Tuple, Cost] = {}


def clear_cost_cache():
    _COST_CACHE.clear()


def cost_of(proc, sizes: Mapping[str, int] | None = None,
            model: MachineModel = X86_MODEL) -> Cost:
    """Model the cost of a (scheduled) procedure at concrete ``sizes``.

    ``proc`` may be a public ``Procedure`` or a raw IR proc; ``sizes``
    maps size-argument *names* to ints (size-literal procedures need
    none).  Deterministic, side-effect free, memoized.
    """
    ir = getattr(proc, "_loopir_proc", proc)
    key = (
        str(ir),
        tuple(sorted(sizes.items())) if sizes else (),
        model.name,
    )
    hit = _COST_CACHE.get(key)
    if hit is not None:
        _obs.incr("autotune.cost_cache_hits")
        return hit
    _obs.incr("autotune.cost_cache_misses")
    with _obs.span("analysis.autotune_cost"):
        out = _CostWalker(model).run(ir, sizes or {})
    _COST_CACHE[key] = out
    return out
