"""x86 AVX-512 CONV (§7.2, Fig. 6).

The paper's final x86 experiment: a 3x3, unit-stride, no-padding conv with
fused ReLU, specialized (like Halide and oneDNN) to the shape N=5, 80x100
outputs, 128 input and output channels.  NHWC layout; the register tile
covers ``XB`` output positions by ``OCV`` 16-lane channel vectors, and the
reduction streams over (ky, kx, ic) with broadcast-FMAs -- the same
instruction set as SGEMM.

The §9 multicore variant needs no kernel of its own: ``parallelize`` on
the batch loop emits ``#pragma omp parallel for`` once the race detector
proves the iterations independent.
"""

from __future__ import annotations

from functools import lru_cache

from ..analysis.absint import verdict_store
from ..api import procs_from_source
from ..platforms.avx512 import (
    AVX512,
    mm512_fmadd_bcast_ps,
    mm512_relu_storeu_ps,
    mm512_setzero_ps,
)

XB = 4  # output positions per register tile
OCV = 2  # 16-lane output-channel vectors per register tile


def _conv_algorithm(name: str, xb: int, ocv: int):
    ow = ocv * 16
    src = f"""
from __future__ import annotations
from repro import proc, DRAM, f32, size, relu

@proc
def {name}(B: size, OY: size, OX: size, OC: size, IC: size,
           inp: f32[B, OY + 2, OX + 2, IC] @ DRAM,
           w: f32[3, 3, IC, OC] @ DRAM,
           out: f32[B, OY, OX, OC] @ DRAM):
    assert OX % {xb} == 0
    assert OC % {ow} == 0
    for b in seq(0, B):
        for oy in seq(0, OY):
            for oxo in seq(0, OX / {xb}):
                for oco in seq(0, OC / {ow}):
                    res: f32[{xb}, {ow}] @ DRAM
                    for xi in seq(0, {xb}):
                        for co in seq(0, {ow}):
                            res[xi, co] = 0.0
                    for ky in seq(0, 3):
                        for kx in seq(0, 3):
                            for ic in seq(0, IC):
                                for xi in seq(0, {xb}):
                                    for co in seq(0, {ow}):
                                        res[xi, co] += inp[b, oy + ky, {xb} * oxo + xi + kx, ic] * w[ky, kx, ic, {ow} * oco + co]
                    for xi in seq(0, {xb}):
                        for co in seq(0, {ow}):
                            out[b, oy, {xb} * oxo + xi, {ow} * oco + co] = relu(res[xi, co])
"""
    return procs_from_source(src)[name]


@verdict_store()
def _schedule(p, xb: int, ocv: int):
    """Vectorize: register-resident result tile, broadcast-FMA reduction,
    fused-ReLU vector stores."""
    p = p.set_memory("res", AVX512)
    p = p.split("for co in _: _ #0", 16, "cv", "lane", tail="perfect")
    p = p.replace(mm512_setzero_ps, "for lane in _: _ #0")
    p = p.split("for co in _: _ #0", 16, "cv", "lane", tail="perfect")
    p = p.replace(mm512_fmadd_bcast_ps, "for lane in _: _ #0")
    p = p.split("for co in _: _ #0", 16, "cv", "lane", tail="perfect")
    p = p.replace(mm512_relu_storeu_ps, "for lane in _: _ #0")
    return p


@lru_cache(maxsize=None)
@verdict_store()
def conv_exo(xb: int = XB, ocv: int = OCV):
    p = _conv_algorithm("conv_exo_x86", xb, ocv)
    return _schedule(p, xb, ocv)
