"""Gemmini timing model: the mechanisms Fig. 4 turns on."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.apps.gemmini_matmul import (
    matmul_exo,
    matmul_exo_blocked,
    matmul_oldlib,
)
from repro.machine.gemmini_sim import (
    _CONFIGS, _FUSED, _READS, _UNIT, _WRITES, DIM, HAZARD_WINDOW,
    PEAK_MACS_PER_CYCLE, GemminiParams, GemminiSim, SimResult,
)
from repro.machine.trace import Event, Region, trace_kernel


def _trace(p, N=64, M=64, K=64):
    return trace_kernel(
        p, N, M, K,
        np.zeros((N, K), np.int8), np.zeros((K, M), np.int8),
        np.zeros((N, M), np.int8),
    )


@pytest.fixture(scope="module")
def sim():
    return GemminiSim()


class TestModelMechanisms:
    def test_macs_counted_exactly(self, sim):
        ev = _trace(matmul_exo(), 64, 64, 64)
        r = sim.run(ev)
        assert r.macs == 64 * 64 * 64

    def test_utilization_bounded(self, sim):
        ev = _trace(matmul_exo_blocked(2, 2))
        r = sim.run(ev)
        assert 0.0 < r.utilization < 1.0

    def test_ideal_bound_dominates(self, sim):
        for p in (matmul_exo(), matmul_oldlib(), matmul_exo_blocked(2, 2)):
            ev = _trace(p)
            assert sim.ideal_bound(ev).cycles <= sim.run(ev).cycles + 1e-6

    def test_config_flush_costs(self, sim):
        """The fused (Old-lib) kernel flushes per DMA; the hoisted one
        flushes a handful of times in total."""
        ev_old = _trace(matmul_oldlib())
        ev_exo = _trace(matmul_exo())
        r_old = sim.run(ev_old)
        r_exo = sim.run(ev_exo)
        assert r_old.flushes > 10 * r_exo.flushes
        assert r_exo.utilization > r_old.utilization

    def test_blocking_amortizes_dma(self, sim):
        u = {}
        for t in (1, 2, 4):
            r = sim.run(_trace(matmul_exo_blocked(t, t), 128, 128, 64))
            u[t] = r.utilization
        assert u[1] < u[2] < u[4]

    def test_flush_cost_parameter(self):
        ev = _trace(matmul_oldlib())
        cheap = GemminiSim(GemminiParams(config_drain=0.0)).run(ev)
        dear = GemminiSim(GemminiParams(config_drain=100.0)).run(ev)
        assert dear.cycles > cheap.cycles

    def test_issue_bandwidth_is_the_hw_gap(self):
        """With free instruction issue, the software schedule approaches
        the hardware loop-unroller bound -- the issue cost *is* the gap."""
        ev = _trace(matmul_exo_blocked(4, 4), 128, 128, 128)
        free = GemminiSim(GemminiParams(issue_cost=0.0))
        r = free.run(ev)
        h = free.ideal_bound(ev)
        assert r.utilization > 0.9 * h.utilization

    def test_double_buffer_overlap(self):
        """Double buffering never loses.  (These kernels allocate their
        staging tiles on every ko iteration, and each allocation is its own
        buffer, so here both variants run without reuse hazards; see
        test_double_buffering_hides_reuse_hazards.)"""
        sim = GemminiSim()
        ev_db = _trace(matmul_exo_blocked(2, 2, double_buffer=True))
        ev_sb = _trace(matmul_exo_blocked(2, 2, double_buffer=False))
        r_db = sim.run(ev_db)
        r_sb = sim.run(ev_sb)
        assert r_db.utilization >= r_sb.utilization * 0.98

    def test_double_buffering_hides_reuse_hazards(self, sim):
        """A staging tile the program reuses on every ko iteration (its
        allocation lifted out of the loop) makes each load wait for the
        previous matmul's reads (WAR); the ko%2 halves of a double buffer
        remove that wait on a DMA-bound 1x1 kernel.  Per-iteration
        allocations are separate buffers, with no wait either way."""
        cycles = {}
        for db in (True, False):
            p = matmul_exo_blocked(1, 1, double_buffer=db)
            cycles[db, "per-ko"] = sim.run(_trace(p)).cycles
            lifted = p.lift_alloc("a : _").lift_alloc("b : _")
            cycles[db, "lifted"] = sim.run(_trace(lifted)).cycles
        assert cycles[True, "lifted"] < 0.8 * cycles[False, "lifted"]
        assert cycles[True, "lifted"] == cycles[True, "per-ko"]
        assert cycles[False, "per-ko"] == cycles[True, "per-ko"]

    def test_dma_cost_scales_with_bytes(self, sim):
        ev = _trace(matmul_exo(), 32, 32, 64)
        ev2 = _trace(matmul_exo(), 32, 32, 128)
        assert sim.run(ev2).dma_cycles > sim.run(ev).dma_cycles

    def test_peak_constant(self):
        assert PEAK_MACS_PER_CYCLE == 256


# ---------------------------------------------------------------------------
# Exactness: GemminiSim.run against a short reference of the hazard window
# ---------------------------------------------------------------------------

def reference_run(sim, events):
    """The timing model written plainly: per buffer, a list of the last 96
    (region, time) updates, scanned with Region.overlaps."""
    p = sim.p

    def query(hist, r):
        return max([w for o, w in hist.get(r.base, ()) if r.overlaps(o)],
                   default=0.0)

    def update(hist, r, when):
        lst = hist.setdefault(r.base, [])
        lst.append((r, when))
        del lst[:-96]

    free = dict.fromkeys(("LD", "EX", "ST"), p.startup)
    last_write, last_read = {}, {}
    macs = flushes = 0
    dma = ex = 0.0
    issue_free = p.startup
    for ev in events:
        occ = sim._latency(ev)
        mm = ev.name == "matmul_acc_i8"
        issued = issue_free = issue_free + (2.0 if mm else 1.0) * p.issue_cost
        if ev.name in _CONFIGS or ev.name in _FUSED:
            flushes += 1
            issue_free = max(max(free.values()), issued) + p.config_drain
            free = dict.fromkeys(free, issue_free)
            if ev.name in _CONFIGS:
                continue
        unit = _UNIT.get(ev.name, "EX")
        reads = [ev.operands[o] for o in _READS.get(ev.name, ()) if o in ev.operands]
        writes = [ev.operands[o] for o in _WRITES.get(ev.name, ()) if o in ev.operands]
        start = max([free[unit], issued]
                    + [query(last_write, r) for r in reads + writes]
                    + [query(last_read, r) for r in writes])
        if mm:
            finish = start + p.matmul_latency
            macs += int(ev.ctrl.get("n", DIM)) * int(ev.ctrl.get("m", DIM)) \
                * int(ev.ctrl.get("k", DIM))
            ex += occ
        else:
            finish = start + occ
            if unit != "EX":
                dma += occ
        free[unit] = start + occ
        for r in reads:
            update(last_read, r, finish)
        for r in writes:
            update(last_write, r, finish)
    return SimResult(max(free.values()), macs, flushes, len(events), dma, ex)


PITCH = 64


@st.composite
def regions(draw, space):
    """Tiles of a PITCH-byte-wide buffer (column-disjoint tiles share the
    pitch), or dense byte ranges without one; on a coarse grid, so that
    overlapping and exactly adjacent intervals are common."""
    base = draw(st.sampled_from([1, 1, 1, 2]))
    if draw(st.booleans()):
        row, rows = draw(st.integers(0, 3)), draw(st.sampled_from([2, 4]))
        col = draw(st.sampled_from([0, 16, 32, 48]))
        cols = draw(st.sampled_from([c for c in (16, 32) if col + c <= PITCH]))
        lo = row * PITCH + col
        return Region(base, lo, lo + (rows - 1) * PITCH + cols, rows * cols,
                      space, PITCH, col, col + cols)
    lo = 16 * draw(st.integers(0, 15))
    n = draw(st.sampled_from([16, 32, 64]))
    return Region(base, lo, lo + n, n, space)


@st.composite
def events(draw):
    name = draw(st.sampled_from(sorted(_UNIT) + ["config_ld", "config_st"]))
    ctrl = {"n": draw(st.integers(1, 16)), "m": 16, "k": 16}
    ops = {op: draw(regions("ACCUM" if op == "res" else "SCRATCHPAD"))
           for op in set(_READS.get(name, ())) | set(_WRITES.get(name, ()))}
    return Event(name, ctrl, ops)


class TestExactness:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(events(), min_size=1, max_size=24), st.integers(150, 300))
    def test_matches_reference(self, pool, length):
        """A pool of events replayed cyclically: long enough that one
        buffer sees more than HAZARD_WINDOW updates (eviction).  Prefixes
        are compared too, since a hazard off the critical path of the whole
        trace may still set the makespan of a prefix."""
        evs = [pool[i % len(pool)] for i in range(length)]
        updates = {}
        for ev in evs:
            for r in ev.operands.values():
                updates[r.base] = updates.get(r.base, 0) + 1
        assume(max(updates.values(), default=0) > HAZARD_WINDOW)
        sim = GemminiSim()
        for k in [*range(25, length, 25), length]:
            assert sim.run(evs[:k]) == reference_run(sim, evs[:k])

    def test_column_disjoint_tiles(self):
        """Tiles sharing a pitch but not a column range carry no hazard
        even though their [lo, hi) spans interleave."""
        def tile(col):
            return Region(1, col, 15 * PITCH + col + 16, 256, "SCRATCHPAD",
                          PITCH, col, col + 16)

        load = Event("do_ld_i8", {"n": 1000},
                     {"src": Region(9, 0, 16, 16, "DRAM"), "dst": tile(0)})
        acc = Region(3, 0, 1024, 1024, "ACCUM")
        sim = GemminiSim()
        cycles = {}
        for col in (0, 16):
            mm = Event("matmul_acc_i8", {}, {"a": tile(col), "b": tile(col),
                                             "res": acc})
            res = sim.run([load, mm])
            assert res == reference_run(sim, [load, mm])
            cycles[col] = res.cycles
        assert cycles[16] < cycles[0]

    def test_eviction_forgets_old_writes(self):
        """A write older than the window no longer delays a reader: a slow
        load into ``tile``, then HAZARD_WINDOW stores elsewhere in the same
        buffer, then a matmul reading ``tile``."""
        tile = Region(1, 0, 16, 16, "SCRATCHPAD")
        other = Region(1, 1000, 1016, 16, "SCRATCHPAD")
        # 10,000 row requests: a slow load
        write = Event("do_ld_i8", {"n": 10_000},
                      {"src": Region(9, 0, 16, 16, "DRAM"), "dst": tile})
        store = Event("do_st_acc_i8", {"n": 1},
                      {"src": Region(5, 0, 4, 4, "ACCUM"), "dst": other})
        filler = [store] * HAZARD_WINDOW
        read = Event("matmul_acc_i8", {"n": 1, "m": 1, "k": 1},
                     {"a": tile, "b": other, "res": Region(3, 0, 4, 4, "ACCUM")})
        sim = GemminiSim()
        for n_fill in (HAZARD_WINDOW - 1, HAZARD_WINDOW):
            evs = [write] + filler[:n_fill] + [read]
            assert sim.run(evs) == reference_run(sim, evs)
        kept = sim.run([write] + filler[:HAZARD_WINDOW - 1] + [read])
        evicted = sim.run([write] + filler + [read])
        assert evicted.cycles < kept.cycles


class TestPrunedWindow:
    """The window drops entries at or before the scanning instruction's
    issue time and skips scans its bound rules out; the result must stay
    the reference's in the cases that argument leans on."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(events(), min_size=1, max_size=24), st.integers(60, 200))
    def test_free_issue_matches_reference(self, pool, length):
        """With ``issue_cost=0`` issue times stand still between flushes,
        so many entries end exactly at or after them."""
        evs = [pool[i % len(pool)] for i in range(length)]
        for params in (GemminiParams(issue_cost=0.0),
                       GemminiParams(issue_cost=0.0, startup=0.0)):
            sim = GemminiSim(params)
            for k in [*range(20, length, 20), length]:
                assert sim.run(evs[:k]) == reference_run(sim, evs[:k])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.one_of(events(), st.sampled_from(sorted(_CONFIGS)).map(
        lambda name: Event(name, {"s": 1}, {}))), min_size=1, max_size=24),
        st.integers(60, 200))
    def test_configs_and_fused_flushes_match_reference(self, pool, length):
        """Config and fused (flushing) instructions among the others."""
        evs = [pool[i % len(pool)] for i in range(length)]
        sim = GemminiSim()
        for k in [*range(20, length, 20), length]:
            assert sim.run(evs[:k]) == reference_run(sim, evs[:k])

    @pytest.mark.parametrize("rows,cycles", [(23, 166.0), (24, 167.0)])
    def test_entry_ending_at_a_later_issue(self, rows, cycles):
        """A load into tile E (issued at 108, busy ``rows + 1`` cycles)
        and a store into F, elsewhere in E's buffer, that ends at 137; the
        matmul reading E issues at 132 and scans that buffer (F's 137 is
        past its ready time).  With 23 rows E ends exactly at 132
        (``when == issued``: dropped, no delay); with 24 it ends at 133
        and delays the matmul, and the load of its result, by one."""
        def r(base, lo):
            return Region(base, lo, lo + 32, 32, "SCRATCHPAD")

        E, F = r(1, 0), r(1, 500)
        evs = [
            Event("do_ld_i8", {"n": rows}, {"src": r(9, 0), "dst": E}),
            Event("do_st_acc_i8", {"n": 20}, {"src": r(3, 0), "dst": F}),
            Event("matmul_acc_i8", {}, {"a": E, "b": r(7, 0), "res": r(11, 0)}),
            Event("do_ld_i8", {"n": 1}, {"src": r(11, 0), "dst": r(12, 0)}),
        ]
        sim = GemminiSim()
        assert sim.run(evs) == reference_run(sim, evs)
        assert sim.run(evs).cycles == cycles

    def test_scan_keeps_entries_later_than_its_issue(self):
        """Only entries at or before the scanning instruction's *issue*
        time may go, not those before its (later) ready time.  The
        zero_acc scans buffer 1 while LD is busy until 166.5, past E's
        164; the next matmul, ready at 156, must still wait for E."""
        def r(base, lo):
            return Region(base, lo, lo + 16, 16, "SCRATCHPAD")

        E, F, G = r(1, 0), r(1, 100), r(1, 200)
        evs = [
            Event("do_st_acc_i8", {"n": 68}, {"src": r(3, 0), "dst": F}),
            Event("do_ld_i8", {"n": 50}, {"src": r(9, 0), "dst": r(8, 0)}),
            Event("matmul_acc_i8", {}, {"a": r(7, 0), "b": r(7, 0), "res": E}),
            Event("zero_acc_i32", {}, {"dst": G}),
            Event("matmul_acc_i8", {}, {"a": E, "b": r(7, 0), "res": r(11, 0)}),
        ]
        sim = GemminiSim()
        assert sim.run(evs) == reference_run(sim, evs)
        assert sim.run(evs).cycles == 164.0 + 16.0

    @pytest.mark.parametrize("field", [f for f in vars(GemminiParams())])
    def test_negative_costs_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            GemminiParams(**{field: -1.0})

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="dma_bytes_per_cycle"):
            GemminiParams(dma_bytes_per_cycle=0.0)


def _fig4a_tile(dim16):
    """The macro-tile factor Fig. 4a gives a dimension of ``dim16`` tiles."""
    return next((t for t in (4, 3, 2) if dim16 % t == 0), 1)


class TestGoldenResults:
    """Every SimResult field of the paper-figure kernels, pinned exactly:
    Exo-lib (its run and its Hardware bound) and Old-lib on each Fig. 4a
    shape, and the Fig. 4b conv pair.  Fields are (cycles, macs, flushes,
    events, dma_cycles, ex_cycles)."""

    @pytest.mark.parametrize("shape,exo,hardware,old", [
        ((768, 64, 64), (18850.0, 3145728, 3, 1539, 14208.0, 12288.0),
         (12388.0, 3145728, 0, 1539, 14208.0, 12288.0),
         (72308.0, 3145728, 1728, 2688, 41856.0, 12288.0)),
        ((768, 64, 256), (64930.0, 12582912, 3, 4995, 41856.0, 49152.0),
         (49252.0, 12582912, 0, 4995, 41856.0, 49152.0),
         (265844.0, 12582912, 6336, 9600, 152448.0, 49152.0)),
        ((192, 128, 512), (63394.0, 12582912, 3, 4803, 39360.0, 49152.0),
         (49252.0, 12582912, 0, 4803, 39360.0, 49152.0),
         (262004.0, 12582912, 6240, 9408, 149952.0, 49152.0)),
        ((192, 512, 128), (68002.0, 12582912, 3, 5379, 46848.0, 49152.0),
         (49252.0, 12582912, 0, 5379, 46848.0, 49152.0),
         (273524.0, 12582912, 6528, 9984, 157440.0, 49152.0)),
        ((768, 256, 64), (74146.0, 12582912, 3, 6147, 56832.0, 49152.0),
         (49252.0, 12582912, 0, 6147, 56832.0, 49152.0),
         (288884.0, 12582912, 6912, 10752, 167424.0, 49152.0)),
        ((64, 512, 512), (84386.0, 16777216, 3, 6403, 52480.0, 65536.0),
         (65636.0, 16777216, 0, 6403, 52480.0, 65536.0),
         (349300.0, 16777216, 8320, 12544, 199936.0, 65536.0)),
        ((256, 256, 256), (86434.0, 16777216, 3, 6659, 55808.0, 65536.0),
         (65636.0, 16777216, 0, 6659, 55808.0, 65536.0),
         (354420.0, 16777216, 8448, 12800, 203264.0, 65536.0)),
        ((128, 1024, 128), (90530.0, 16777216, 3, 7171, 62464.0, 65536.0),
         (65636.0, 16777216, 0, 7171, 62464.0, 65536.0),
         (364660.0, 16777216, 8704, 13312, 209920.0, 65536.0)),
    ])
    def test_fig4a(self, sim, shape, exo, hardware, old):
        N, M, K = shape
        p = matmul_exo_blocked(_fig4a_tile(N // 16), _fig4a_tile(M // 16))
        ev = _trace(p, N, M, K)
        assert sim.run(ev) == SimResult(*exo)
        assert sim.ideal_bound(ev) == SimResult(*hardware)
        assert sim.run(_trace(matmul_oldlib(), N, M, K)) == SimResult(*old)

    def test_fig4b_conv(self, sim):
        from repro.apps.gemmini_conv import conv_exo, conv_oldlib

        B, OY, OX, OC, IC = 4, 8, 64, 64, 64
        args = (B, OY, OX, OC, IC, np.zeros((B, OY + 2, OX + 2, IC), np.int8),
                np.zeros((3, 3, IC, OC), np.int8), np.zeros((B, OY, OX, OC), np.int8))
        assert sim.run(trace_kernel(conv_exo(), *args)) == SimResult(
            450794.0, 75497472, 3, 37891, 455680.0, 294912.0)
        assert sim.run(trace_kernel(conv_oldlib(), *args)) == SimResult(
            1568884.0, 75497472, 37376, 56320, 898048.0, 294912.0)


class TestGoldenCycles:
    """Simulated cycles of the paper-figure kernels, pinned exactly."""

    @pytest.mark.parametrize("shape,exo,old", [
        ((768, 64, 64), 18_850, 72_308),
        ((256, 256, 256), 86_434, 354_420),
    ])
    def test_fig4a(self, shape, exo, old):
        N, M, K = shape
        sim = GemminiSim()
        # both shapes take 4x4 macro-tiles in Fig. 4a
        assert sim.run(_trace(matmul_exo_blocked(4, 4), N, M, K)).cycles == exo
        assert sim.run(_trace(matmul_oldlib(), N, M, K)).cycles == old

    def test_fig4b_conv(self):
        from repro.apps.gemmini_conv import conv_exo, conv_oldlib

        B, OY, OX, OC, IC = 4, 8, 64, 64, 64
        args = (B, OY, OX, OC, IC, np.zeros((B, OY + 2, OX + 2, IC), np.int8),
                np.zeros((3, 3, IC, OC), np.int8), np.zeros((B, OY, OX, OC), np.int8))
        sim = GemminiSim()
        assert sim.run(trace_kernel(conv_exo(), *args)).cycles == 450_794
        assert sim.run(trace_kernel(conv_oldlib(), *args)).cycles == 1_568_884
