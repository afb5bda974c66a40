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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

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
_UNIT_INDEX = {name: _UNITS.index(unit) for name, unit in _UNIT.items()}
_CONFIGS = {"config_ld", "config_ld_b", "config_st", "config_matmul"}
#: fused instructions implicitly rewrite their config register -> flush
_FUSED = {"ld_i8", "ld_i8_b", "st_acc_i8", "st_acc_i8_noact"}


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


def _hazard_ready(hist, region, ready: float) -> float:
    """``ready`` raised to the latest time in ``hist`` (one buffer's update
    window) of an interval overlapping ``region`` (``Region.overlaps``)."""
    lo, hi = region.lo, region.hi
    pitch, col_lo, col_hi = region.pitch, region.col_lo, region.col_hi
    for olo, ohi, opitch, ocol_lo, ocol_hi, when in hist:
        if (when > ready and lo < ohi and olo < hi
                and not (pitch and pitch == opitch
                         and (col_hi <= ocol_lo or ocol_hi <= col_lo))):
            ready = when
    return ready


class GemminiSim:
    """Replay an instruction trace through the decoupled timing model."""

    def __init__(self, params: GemminiParams | None = None):
        self.p = params or GemminiParams()

    def _latency(self, ev: Event) -> float:
        p = self.p
        name = ev.name
        if name in _CONFIGS:
            return p.config_drain
        if name in ("ld_i8", "do_ld_i8", "ld_i8_b", "do_ld_i8_b"):
            src = ev.operands["src"]
            rows = int(ev.ctrl.get("n", DIM))
            return rows * p.dma_row_overhead + src.bytes / p.dma_bytes_per_cycle
        if name in ("st_acc_i8", "st_acc_i8_noact", "do_st_acc_i8",
                    "do_st_acc_i8_noact"):
            dst = ev.operands["dst"]
            rows = int(ev.ctrl.get("n", DIM))
            return rows * p.dma_row_overhead + dst.bytes / p.dma_bytes_per_cycle
        if name == "zero_acc_i32":
            return 2.0
        if name == "matmul_acc_i8":
            return p.matmul_occupancy
        return 1.0

    def run(self, events: List[Event]) -> SimResult:
        p = self.p
        issue_cost = p.issue_cost
        config_drain = p.config_drain
        matmul_latency = p.matmul_latency
        unit_free = [p.startup] * len(_UNITS)
        # per buffer: the last HAZARD_WINDOW updates, as
        # (lo, hi, pitch, col_lo, col_hi, when) tuples
        last_write: Dict[int, list] = {}
        last_read: Dict[int, list] = {}
        macs = 0
        flushes = 0
        dma_cycles = 0.0
        ex_cycles = 0.0

        issue_free = p.startup
        for ev in events:
            name = ev.name
            occ = self._latency(ev)
            # the host core issues every instruction in order
            is_matmul = name == "matmul_acc_i8"
            issued = issue_free + (2.0 if is_matmul else 1.0) * issue_cost
            issue_free = issued
            if name in _CONFIGS or name in _FUSED:
                flushes += 1
                start = max(max(unit_free), issued) + config_drain
                issue_free = start
                unit_free = [start] * len(_UNITS)
                if name in _CONFIGS:
                    continue  # pure config: no data movement
            unit = _UNIT_INDEX.get(name, _EX)
            ready = max(unit_free[unit], issued)
            ops = ev.operands
            reads = [ops[op] for op in _READS.get(name, ()) if op in ops]
            writes = [ops[op] for op in _WRITES.get(name, ()) if op in ops]
            for r in reads:
                hist = last_write.get(r.base)
                if hist:
                    ready = _hazard_ready(hist, r, ready)
            for r in writes:
                hist = last_write.get(r.base)
                if hist:
                    ready = _hazard_ready(hist, r, ready)
                hist = last_read.get(r.base)
                if hist:
                    ready = _hazard_ready(hist, r, ready)
            start = ready
            if is_matmul:
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
                        hist = hazards[r.base] = []
                    hist.append((r.lo, r.hi, r.pitch, r.col_lo, r.col_hi,
                                 finish))
                    if len(hist) > HAZARD_WINDOW:
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
        busy = {"LD": 0.0, "EX": 0.0, "ST": 0.0}
        macs = 0
        for ev in events:
            if ev.name in _CONFIGS:
                continue
            unit = _UNIT.get(ev.name, "EX")
            busy[unit] += self._latency(ev)
            if ev.name == "matmul_acc_i8":
                macs += (
                    int(ev.ctrl.get("n", DIM))
                    * int(ev.ctrl.get("m", DIM))
                    * int(ev.ctrl.get("k", DIM))
                )
        cycles = max(busy.values()) + p.startup
        return SimResult(
            cycles=cycles,
            macs=macs,
            flushes=0,
            events=len(events),
            dma_cycles=busy["LD"] + busy["ST"],
            ex_cycles=busy["EX"],
        )
