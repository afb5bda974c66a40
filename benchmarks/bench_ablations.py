"""Ablations over the design choices DESIGN.md calls out.

1. **Config hoisting** (the §2.4 mechanism): fused config+DMA (Old-lib
   style) vs hoisted configs -- isolates the pipeline-flush cost.
2. **Double buffering**: ko%2-indexed scratchpad staging vs single
   buffering, with the staging tiles allocated once per macro-tile so that
   every ko iteration reuses them -- isolates DMA/compute overlap.
3. **Macro-tile size**: accumulator blocking ti x tj from 1x1 to 4x4 --
   isolates DMA amortization.
4. **Micro-kernel register tile** (x86): mr x nv shapes -- isolates
   FMA-latency hiding and edge-case waste.
"""

from __future__ import annotations

import numpy as np

from conftest import gemmini_matmul_utilization
from repro.apps.gemmini_matmul import matmul_exo_blocked, matmul_oldlib
from repro.machine.gemmini_sim import GemminiSim
from repro.machine.x86_sim import sgemm_cost
from repro.reporting import table

N = M = K = 256


def test_ablation_config_hoisting(capsys):
    sim = GemminiSim()
    hoisted, _ = gemmini_matmul_utilization(
        matmul_exo_blocked(1, 1, double_buffer=False), N, M, K, sim
    )
    fused, _ = gemmini_matmul_utilization(matmul_oldlib(), N, M, K, sim)
    with capsys.disabled():
        print(
            f"\nconfig hoisting (same 16x16 tiling): hoisted "
            f"{hoisted.utilization:.1%} vs fused {fused.utilization:.1%} "
            f"({hoisted.utilization / fused.utilization:.2f}x); "
            f"flushes {hoisted.flushes} vs {fused.flushes}"
        )
    assert hoisted.flushes < fused.flushes / 10
    assert hoisted.utilization > 1.3 * fused.utilization


def _reused_staging(t: int, double_buffer: bool):
    """The t x t macro-tile kernel with its staging tiles allocated once per
    macro-tile: every trace gives each allocation its own buffer, so only
    a buffer the program itself reuses across ko iterations is charged the
    WAR hazards that double buffering avoids."""
    p = matmul_exo_blocked(t, t, double_buffer=double_buffer)
    return p.lift_alloc("a : _").lift_alloc("b : _")


def test_ablation_double_buffering(capsys):
    sim = GemminiSim()
    utils = {}
    for t in (1, 4):
        for db in (True, False):
            r, _ = gemmini_matmul_utilization(
                _reused_staging(t, db), N, M, K, sim
            )
            utils[t, db] = r.utilization
    with capsys.disabled():
        for t in (1, 4):
            print(
                f"\ndouble buffering ({t}x{t}): {utils[t, True]:.1%} vs "
                f"single {utils[t, False]:.1%}"
            )
    assert utils[1, True] > 1.3 * utils[1, False], "DMA-bound: overlap pays"
    assert utils[4, True] >= utils[4, False]


def test_ablation_macro_tile(capsys):
    sim = GemminiSim()
    rows = []
    utils = []
    for t in (1, 2, 4):
        r, _ = gemmini_matmul_utilization(matmul_exo_blocked(t, t), N, M, K, sim)
        rows.append((f"{t}x{t}", 100 * r.utilization))
        utils.append(r.utilization)
    with capsys.disabled():
        print()
        print(table("macro-tile ablation (Gemmini)", ["ti x tj", "util %"], rows))
    assert utils[0] < utils[1] < utils[2], "bigger macro-tiles amortize DMA"


def test_ablation_register_tile(capsys):
    rows = []
    g = {}
    for mr, nv in ((1, 1), (2, 2), (6, 4), (8, 4)):
        cost = sgemm_cost(768, 768, 768, mr=mr, nv=nv)
        g[(mr, nv)] = cost.gflops()
        rows.append((f"{mr}x{nv * 16}", cost.gflops()))
    with capsys.disabled():
        print()
        print(table("register-tile ablation (x86 SGEMM, 768^3)", ["tile", "GFLOP/s"], rows))
    assert g[(6, 4)] > g[(1, 1)], "wide register tiles amortize C traffic"
