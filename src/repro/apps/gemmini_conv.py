"""Gemmini CONV layers (§7.1, Fig. 4b).

A 3x3, unit-stride, no-padding convolutional layer with fused ReLU (the
paper's Gemmini conv), in NHWC layout.  The systolic array sees the
convolution as a sum of 16x16 matmuls: the "N" dimension is a row of 16
output pixels, the "M" dimension a block of 16 output channels, and the
reduction runs over (ky, kx, 16-channel input blocks).

As for matmul, an Exo schedule (configs hoisted, blocked over output
channels) and an Old-lib imitation (fused config+DMA on every transfer) are
both produced from the same algorithm template.
"""

from __future__ import annotations

from functools import lru_cache

from ..analysis.absint import verdict_store
from ..api import procs_from_source
from ..platforms.gemmini import (
    ACCUM,
    SCRATCHPAD,
    ConfigLoad,
    ConfigLoadB,
    ConfigStore,
    config_ld,
    config_ld_b,
    config_st,
    do_ld_i8,
    do_ld_i8_b,
    do_st_acc_i8,
    ld_i8,
    ld_i8_b,
    matmul_acc_i8,
    st_acc_i8,
    zero_acc_i32,
)

KH = KW = 3


def _conv_algorithm(name: str, ti: int = 1, tj: int = 1,
                    double_buffer: bool = False):
    """The blocked conv algorithm: (16*ti) output pixels x (16*tj) output
    channels per accumulator-resident macro-tile.  ``double_buffer``
    alternates the scratchpad staging buffers on the reduction parity so
    DMA overlaps the systolic array."""
    bx, bc = 16 * ti, 16 * tj
    adim = "2, " if double_buffer else ""
    apre = "ico % 2, " if double_buffer else ""
    src = f"""
from __future__ import annotations
from repro import proc, DRAM, i8, i32, size, relu

@proc
def {name}(B: size, OY: size, OX: size, OC: size, IC: size,
           inp: i8[B, OY + 2, OX + 2, IC] @ DRAM,
           w: i8[3, 3, IC, OC] @ DRAM,
           out: i8[B, OY, OX, OC] @ DRAM):
    assert OX % {bx} == 0
    assert OC % {bc} == 0
    assert IC % 16 == 0
    for b in seq(0, B):
        for oy in seq(0, OY):
            for oxo in seq(0, OX / {bx}):
                for oco in seq(0, OC / {bc}):
                    res: i32[{bx}, {bc}] @ DRAM
                    for xt in seq(0, {ti}):
                        for ct in seq(0, {tj}):
                            for xi in seq(0, 16):
                                for ci in seq(0, 16):
                                    res[16 * xt + xi, 16 * ct + ci] = 0.0
                    for ky in seq(0, 3):
                        for kx in seq(0, 3):
                            for ico in seq(0, IC / 16):
                                patch: i8[{adim}{bx}, 16] @ DRAM
                                for xt in seq(0, {ti}):
                                    for xi in seq(0, 16):
                                        for ci in seq(0, 16):
                                            patch[{apre}16 * xt + xi, ci] = inp[b, oy + ky, {bx} * oxo + 16 * xt + xi + kx, 16 * ico + ci]
                                wt: i8[{adim}16, {bc}] @ DRAM
                                for ct in seq(0, {tj}):
                                    for ci in seq(0, 16):
                                        for co in seq(0, 16):
                                            wt[{apre}ci, 16 * ct + co] = w[ky, kx, 16 * ico + ci, {bc} * oco + 16 * ct + co]
                                for xt in seq(0, {ti}):
                                    for ct in seq(0, {tj}):
                                        for xi in seq(0, 16):
                                            for co in seq(0, 16):
                                                for ci in seq(0, 16):
                                                    res[16 * xt + xi, 16 * ct + co] += patch[{apre}16 * xt + xi, ci] * wt[{apre}ci, 16 * ct + co]
                    for xt in seq(0, {ti}):
                        for ct in seq(0, {tj}):
                            for xi in seq(0, 16):
                                for co in seq(0, 16):
                                    out[b, oy, {bx} * oxo + 16 * xt + xi, {bc} * oco + 16 * ct + co] = relu(res[16 * xt + xi, 16 * ct + co])
"""
    return procs_from_source(src)[name]


@lru_cache(maxsize=None)
@verdict_store()
def conv_exo(ti: int = 2, tj: int = 2):
    """Exo schedule: configs hoisted, split DMA instructions, macro-tiled
    and double-buffered."""
    p = _conv_algorithm("conv_exo", ti, tj, double_buffer=True)
    p = p.configwrite_root(ConfigLoad, "src_stride", "stride(inp, 2)")
    p = p.configwrite_root(ConfigLoadB, "src_stride", "stride(w, 2)")
    p = p.configwrite_root(ConfigStore, "dst_stride", "stride(out, 2)")
    p = p.replace(config_ld, "ConfigLoad.src_stride = _")
    p = p.replace(config_ld_b, "ConfigLoadB.src_stride = _")
    p = p.replace(config_st, "ConfigStore.dst_stride = _")
    p = p.replace(zero_acc_i32, "for xi in _: _ #0")
    p = p.replace(do_ld_i8, "for xi in _: _ #0")
    p = p.replace(do_ld_i8_b, "for ci in _: _ #0")
    p = p.replace(matmul_acc_i8, "for xi in _: _ #0")
    p = p.replace(do_st_acc_i8, "for xi in _: _ #0")
    p = p.set_memory("res", ACCUM)
    p = p.set_memory("patch", SCRATCHPAD)
    p = p.set_memory("wt", SCRATCHPAD)
    return p


@lru_cache(maxsize=None)
@verdict_store()
def conv_oldlib():
    """Old-lib imitation: fused config+DMA everywhere (pipeline flushes),
    single 16x16 tiles, no double buffering."""
    p = _conv_algorithm("conv_oldlib")
    p = p.replace(zero_acc_i32, "for xi in _: _ #0")
    p = p.replace(ld_i8, "for xi in _: _ #0")
    p = p.replace(ld_i8_b, "for ci in _: _ #0")
    p = p.replace(matmul_acc_i8, "for xi in _: _ #0")
    p = p.replace(st_acc_i8, "for xi in _: _ #0")
    p = p.set_memory("res", ACCUM)
    p = p.set_memory("patch", SCRATCHPAD)
    p = p.set_memory("wt", SCRATCHPAD)
    return p
