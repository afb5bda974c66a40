"""Trace-driven timing simulator for the Gemmini accelerator (§7.1).

Gemmini is a *decoupled access/execute* design: independent load, execute,
and store controllers consume a shared instruction queue, synchronizing
through scratchpad/accumulator dependencies.  The model here reproduces the
behaviours the paper's evaluation turns on:

* **configuration flushes** -- a config instruction drains every controller
  before it applies, so the Old-lib strategy of re-configuring the DMA on
  every transfer serializes the whole machine (this is the 3.5x of Fig. 4a);
* **DMA cost** -- per-row request overhead plus per-byte transfer time, so
  wide, contiguous mvins are cheaper per byte than row-at-a-time ones;
* **overlap** -- each functional unit is busy for the *occupancy* of its
  instruction while dependents wait for its *latency*; units run
  concurrently when the trace's memory intervals carry no hazard;
* the **Hardware** loop-unroller bound -- perfect overlap: the maximum of
  the per-unit busy times plus a fixed startup (the dynamically-scheduled
  hardware of Fig. 4 approaches exactly this).

Default parameters model Gemmini's standard instantiation: a 16x16 int8
systolic array (256 MACs/cycle), 16 bytes/cycle of DMA bandwidth, and a
short configuration drain.

Hazards.  Per buffer, the model remembers the last :data:`HAZARD_WINDOW`
*updates* (separately for reads and writes) as ``(interval, when)``
entries; an access waits for the latest ``when`` among the remembered
updates it overlaps.  The window counts updates, not stored entries: each
entry carries its buffer's update number and leaves when it falls
:data:`HAZARD_WINDOW` updates behind.  Besides that, a scan drops every
entry whose ``when`` is at or before the scanning instruction's issue
time.  Dropping is exact: issue times never decrease (every cost is
non-negative, which :class:`GemminiParams` enforces), and each later
instruction starts waiting from at least its own issue time, so such an
entry can never again raise anyone's start.  A history also keeps an upper
bound on its entries' ``when``; an access that is already ready by then
skips the scan.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, NamedTuple, Optional

from .trace import Event

DIM = 16
PEAK_MACS_PER_CYCLE = DIM * DIM  # 256


@dataclass
class GemminiParams:
    dma_bytes_per_cycle: float = 32.0
    dma_row_overhead: float = 1.0  # cycles per DRAM row request
    matmul_occupancy: float = 16.0  # systolic array busy time per 16x16x16
    matmul_latency: float = 32.0  # until results usable downstream
    config_drain: float = 10.0  # extra cycles after pipeline drain
    startup: float = 100.0  # kernel launch overhead
    #: cycles the in-order host core needs to issue one custom instruction.
    #: This is exactly the resource Gemmini's optional *hardware loop
    #: unrollers* add silicon to remove (§7.1): software-issued schedules
    #: are capped by it, the Hardware bound is not.
    issue_cost: float = 8.0

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) >= 0:
                raise ValueError(f"GemminiParams.{f.name} must be >= 0, "
                                 f"not {getattr(self, f.name)!r}")
        if not self.dma_bytes_per_cycle > 0:
            raise ValueError("GemminiParams.dma_bytes_per_cycle must be > 0")


#: which operands each instruction reads / writes
_READS = {
    "ld_i8": ("src",), "do_ld_i8": ("src",),
    "ld_i8_b": ("src",), "do_ld_i8_b": ("src",),
    "matmul_acc_i8": ("a", "b", "res"),
    "st_acc_i8": ("src",), "st_acc_i8_noact": ("src",),
    "do_st_acc_i8": ("src",), "do_st_acc_i8_noact": ("src",),
    "zero_acc_i32": (),
}
_WRITES = {
    "ld_i8": ("dst",), "do_ld_i8": ("dst",),
    "ld_i8_b": ("dst",), "do_ld_i8_b": ("dst",),
    "matmul_acc_i8": ("res",),
    "st_acc_i8": ("dst",), "st_acc_i8_noact": ("dst",),
    "do_st_acc_i8": ("dst",), "do_st_acc_i8_noact": ("dst",),
    "zero_acc_i32": ("dst",),
}
_UNIT = {
    "ld_i8": "LD", "do_ld_i8": "LD", "ld_i8_b": "LD", "do_ld_i8_b": "LD",
    "zero_acc_i32": "LD",
    "matmul_acc_i8": "EX",
    "st_acc_i8": "ST", "st_acc_i8_noact": "ST",
    "do_st_acc_i8": "ST", "do_st_acc_i8_noact": "ST",
}
_UNITS = ("LD", "EX", "ST")
_EX = _UNITS.index("EX")
_CONFIGS = {"config_ld", "config_ld_b", "config_st", "config_matmul"}
#: fused instructions implicitly rewrite their config register -> flush
_FUSED = {"ld_i8", "ld_i8_b", "st_acc_i8", "st_acc_i8_noact"}
#: DMA instructions: the operand whose bytes (and ``n`` rows) they move
_DMA = {
    "ld_i8": "src", "do_ld_i8": "src", "ld_i8_b": "src", "do_ld_i8_b": "src",
    "st_acc_i8": "dst", "st_acc_i8_noact": "dst",
    "do_st_acc_i8": "dst", "do_st_acc_i8_noact": "dst",
}
_MATMUL = "matmul_acc_i8"


class _Op(NamedTuple):
    """What the timing model needs of one instruction name."""

    unit: int  # index into _UNITS
    reads: tuple  # operand names read
    writes: tuple  # operand names written
    flushes: bool  # drains every controller before it applies
    config: bool  # a pure config instruction: no data movement
    matmul: bool  # counts MACs; dependents wait for matmul_latency
    issue: float  # host cycles to issue it
    dma: Optional[str]  # the operand a DMA's occupancy is priced from
    occupancy: float  # the occupancy when ``dma`` is None


def _op_table(p: GemminiParams) -> Dict[str, _Op]:
    """The entry of every instruction name the model knows."""
    table = {}
    for name in (*_UNIT, *sorted(_CONFIGS)):
        if name in _CONFIGS:
            occ = p.config_drain
        elif name == "zero_acc_i32":
            occ = 2.0
        elif name == _MATMUL:
            occ = p.matmul_occupancy
        else:
            occ = 1.0
        table[name] = _Op(
            _UNITS.index(_UNIT.get(name, "EX")), _READS.get(name, ()),
            _WRITES.get(name, ()), name in _CONFIGS or name in _FUSED,
            name in _CONFIGS, name == _MATMUL,
            (2.0 if name == _MATMUL else 1.0) * p.issue_cost,
            _DMA.get(name), occ)
    return table


@dataclass
class SimResult:
    cycles: float
    macs: int
    flushes: int
    events: int
    dma_cycles: float
    ex_cycles: float

    @property
    def utilization(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return self.macs / (PEAK_MACS_PER_CYCLE * self.cycles)


#: hazard-state updates remembered per buffer, separately for reads and
#: writes: an access conflicting only with an older update is not delayed
HAZARD_WINDOW = 96


class _History(list):
    """One buffer's remembered updates (of one kind, read or write): its
    live ``(lo, hi, pitch, col_lo, col_hi, when, seq)`` entries in update
    order, with the number of updates so far and an upper bound on
    ``when``."""

    __slots__ = ("count", "bound")

    def __init__(self):
        self.count = 0
        self.bound = 0.0

    def delay(self, r, ready: float, issued: float) -> float:
        """``ready`` raised to the latest ``when`` of an entry overlapping
        ``r`` (``Region.overlaps``); drops the entries at or before
        ``issued``, which can delay no instruction from now on.  Callers
        skip it when ``bound <= ready``: no entry could raise ``ready``."""
        lo, hi = r.lo, r.hi
        pitch, col_lo, col_hi = r.pitch, r.col_lo, r.col_hi
        bound = issued
        dead = False
        for olo, ohi, opitch, ocol_lo, ocol_hi, when, _ in self:
            if when <= issued:
                dead = True
            else:
                if when > bound:
                    bound = when
                if (when > ready and lo < ohi and olo < hi
                        and not (pitch and pitch == opitch
                                 and (col_hi <= ocol_lo or ocol_hi <= col_lo))):
                    ready = when
        if dead:
            self[:] = [e for e in self if e[5] > issued]
        self.bound = bound
        return ready


class GemminiSim:
    """Replay an instruction trace through the decoupled timing model."""

    def __init__(self, params: GemminiParams | None = None):
        self.p = params or GemminiParams()
        self._ops = _op_table(self.p)
        #: an instruction the model does not know: one cycle on EX
        self._other = _Op(_EX, (), (), False, False, False,
                          self.p.issue_cost, None, 1.0)

    def _occupancy(self, op: _Op, ev: Event) -> float:
        if op.dma is None:
            return op.occupancy
        p = self.p
        return (int(ev.ctrl.get("n", DIM)) * p.dma_row_overhead
                + ev.operands[op.dma].bytes / p.dma_bytes_per_cycle)

    def _latency(self, ev: Event) -> float:
        """The busy time of ``ev`` on its unit."""
        return self._occupancy(self._ops.get(ev.name, self._other), ev)

    def run(self, events: List[Event]) -> SimResult:
        p = self.p
        ops_of = self._ops.get
        other = self._other
        config_drain = p.config_drain
        matmul_latency = p.matmul_latency
        unit_free = [p.startup] * len(_UNITS)
        last_write: Dict[int, _History] = {}
        last_read: Dict[int, _History] = {}
        macs = 0
        flushes = 0
        dma_cycles = 0.0
        ex_cycles = 0.0

        issue_free = p.startup
        for ev in events:
            op = ops_of(ev.name, other)
            unit, reads, writes, flush, config, matmul, issue, dma, occ = op
            # the host core issues every instruction in order
            issued = issue_free = issue_free + issue
            if flush:
                flushes += 1
                start = max(max(unit_free), issued) + config_drain
                issue_free = start
                unit_free = [start] * len(_UNITS)
                if config:
                    continue  # pure config: no data movement
            if dma is not None:
                occ = self._occupancy(op, ev)
            ops = ev.operands
            ready = unit_free[unit]
            if issued > ready:
                ready = issued
            reads = [ops[name] for name in reads if name in ops]
            writes = [ops[name] for name in writes if name in ops]
            for r in reads:
                hist = last_write.get(r.base)
                if hist is not None and hist.bound > ready:
                    ready = hist.delay(r, ready, issued)
            for r in writes:
                hist = last_write.get(r.base)
                if hist is not None and hist.bound > ready:
                    ready = hist.delay(r, ready, issued)
                hist = last_read.get(r.base)
                if hist is not None and hist.bound > ready:
                    ready = hist.delay(r, ready, issued)
            start = ready
            if matmul:
                finish = start + matmul_latency
                ctrl = ev.ctrl
                macs += (
                    int(ctrl.get("n", DIM))
                    * int(ctrl.get("m", DIM))
                    * int(ctrl.get("k", DIM))
                )
                ex_cycles += occ
            else:
                finish = start + occ
                if unit != _EX:
                    dma_cycles += occ
            unit_free[unit] = start + occ
            for hazards, regions in ((last_read, reads), (last_write, writes)):
                for r in regions:
                    hist = hazards.get(r.base)
                    if hist is None:
                        hist = hazards[r.base] = _History()
                    hist.count = count = hist.count + 1
                    hist.append((r.lo, r.hi, r.pitch, r.col_lo, r.col_hi,
                                 finish, count))
                    if finish > hist.bound:
                        hist.bound = finish
                    # an update pushes out at most the one entry that is
                    # now HAZARD_WINDOW updates old
                    if hist[0][6] <= count - HAZARD_WINDOW:
                        del hist[0]

        return SimResult(
            cycles=max(unit_free),
            macs=macs,
            flushes=flushes,
            events=len(events),
            dma_cycles=dma_cycles,
            ex_cycles=ex_cycles,
        )

    def ideal_bound(self, events: List[Event]) -> SimResult:
        """The hardware-loop-unroller bound: perfect overlap of the three
        controllers, no flush penalties (the dynamic hardware keeps its
        configuration in the loop-unroller state)."""
        p = self.p
        busy = [0.0] * len(_UNITS)
        macs = 0
        for ev in events:
            op = self._ops.get(ev.name, self._other)
            if op.config:
                continue
            busy[op.unit] += self._occupancy(op, ev)
            if op.matmul:
                macs += (
                    int(ev.ctrl.get("n", DIM))
                    * int(ev.ctrl.get("m", DIM))
                    * int(ev.ctrl.get("k", DIM))
                )
        ld, ex, st = busy
        return SimResult(
            cycles=max(busy) + p.startup,
            macs=macs,
            flushes=0,
            events=len(events),
            dma_cycles=ld + st,
            ex_cycles=ex,
        )
