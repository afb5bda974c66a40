"""Gemmini MATMUL kernels (§2 and §7.1).

Derives, purely by scheduling, the paper's tiled accelerator matmul from a
four-line naive algorithm: tiling, buffer expansion and staging, instruction
selection via ``replace()``, and configuration hoisting via the
``configwrite`` / ``fission`` / ``remove_loop`` sequence of §2.4.

Two scheduled variants are produced:

* :func:`matmul_exo` -- the Exo-lib schedule: config instructions hoisted to
  the top of the kernel, tiles resident in scratchpad/accumulator.
* :func:`matmul_oldlib` -- a schedule imitating Gemmini's handwritten C
  library (Old-lib): *fused* config+mvin instructions, i.e. a pipeline
  flush on every DMA transfer.  This is the baseline of Fig. 4a.
"""

from __future__ import annotations

from functools import lru_cache

from .. import DRAM, i8, i32, proc
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
    do_st_acc_i8_noact,
    ld_i8,
    ld_i8_b,
    matmul_acc_i8,
    st_acc_i8_noact,
    zero_acc_i32,
)


@proc
def matmul_base(N: size, M: size, K: size,
                A: i8[N, K] @ DRAM,
                B: i8[K, M] @ DRAM,
                C: i8[N, M] @ DRAM):
    assert N % 16 == 0
    assert M % 16 == 0
    assert K % 16 == 0
    for i in seq(0, N):
        for j in seq(0, M):
            res: i32 @ DRAM
            res = 0.0
            for k in seq(0, K):
                res += A[i, k] * B[k, j]
            C[i, j] = res


def _tile(p):
    """Tile the iteration space into 16x16x16 blocks and expand the
    accumulator scalar into a tile.

    Cursor style: the accumulator allocation is located once and forwarded
    through both ``expand_dim`` rewrites into ``lift_alloc`` automatically.
    """
    p = p.split(p.find("for i in _: _"), 16, "io", "ii", tail="perfect")
    p = p.split(p.find("for j in _: _"), 16, "jo", "ji", tail="perfect")
    p = p.reorder(p.find("for ii in _: _"))  # io, jo, ii, ji
    res = p.find("res : _")
    p = p.expand_dim(res, "16", "ji")
    p = p.expand_dim(res, "16", "ii")
    p = p.lift_alloc(res, 2)
    p = p.fission_after(p.find("res[_] = 0.0"), 2)
    p = p.fission_after(p.find("for k in _: _"), 2)
    p = p.split(p.find("for k in _: _"), 16, "ko", "ki", tail="perfect")
    # accumulate nest: ii, ji, ko, ki  ->  ko, ii, ji, ki
    p = p.reorder(p.find("for ji in _: _ #1"))  # ji <-> ko under ii
    p = p.reorder(p.find("for ii in _: _ #1"))  # ii <-> ko
    return p


def _stage(p):
    """Stage the A and B tiles into new buffers (to become scratchpad)."""
    p = p.stage_mem(
        p.find("for ii in _: _ #1"),
        "A[16*io:16*io+16, 16*ko:16*ko+16]",
        "a",
    )
    p = p.stage_mem(
        p.find("for ii in _: _ #1"),
        "B[16*ko:16*ko+16, 16*jo:16*jo+16]",
        "b",
    )
    return p


def _select_instrs(p, fused: bool):
    """Instruction selection via unification (§3.4)."""
    p = p.replace(zero_acc_i32, "for ii in _: _ #0")
    if fused:
        p = p.replace(ld_i8, "for i0 in _: _ #0")
        p = p.replace(ld_i8_b, "for i0 in _: _ #0")
    else:
        p = p.replace(do_ld_i8, "for i0 in _: _ #0")
        p = p.replace(do_ld_i8_b, "for i0 in _: _ #0")
    p = p.replace(matmul_acc_i8, "for ii in _: _ #0")
    if fused:
        p = p.replace(st_acc_i8_noact, "for ii in _: _ #0")
    else:
        p = p.replace(do_st_acc_i8_noact, "for ii in _: _ #0")
    return p


def _set_memories(p):
    p = p.set_memory("res", ACCUM)
    p = p.set_memory("a", SCRATCHPAD)
    p = p.set_memory("b", SCRATCHPAD)
    return p


def _hoist_configs(p):
    """§2.4: write the DMA config registers once, at the top of the kernel.

    The split instructions (``do_ld_i8`` etc.) carry ``assert stride ==
    Config...`` preconditions, so the config writes inserted here are what
    makes the assertion checker accept the kernel; fission's stable-write
    reasoning and remove_loop's idempotency then hoist them all the way out.
    """
    p = p.configwrite_root(ConfigLoad, "src_stride", "stride(A, 0)")
    p = p.configwrite_root(ConfigLoadB, "src_stride", "stride(B, 0)")
    p = p.configwrite_root(ConfigStore, "dst_stride", "stride(C, 0)")
    p = p.replace(config_ld, "ConfigLoad.src_stride = _")
    p = p.replace(config_ld_b, "ConfigLoadB.src_stride = _")
    p = p.replace(config_st, "ConfigStore.dst_stride = _")
    return p


@lru_cache(maxsize=None)
def matmul_exo():
    """The Exo-lib schedule of Fig. 4a (hoisted configs, staged tiles)."""
    return build_matmul_candidate(matmul_base.rename("matmul_exo"),
                                  "hoisted", True)


@lru_cache(maxsize=None)
def matmul_oldlib():
    """A schedule imitating Gemmini's handwritten library: every DMA
    transfer re-writes its config register (fused config+mvin), flushing
    the accelerator pipeline each time."""
    return build_matmul_candidate(matmul_base.rename("matmul_oldlib"),
                                  "fused", True)


@lru_cache(maxsize=None)
def matmul_exo_blocked(ti: int = 4, tj: int = 4, relu_act: bool = False,
                       double_buffer: bool = True):
    """The production Exo schedule: a (16*ti) x (16*tj) accumulator-resident
    macro-tile amortizes each scratchpad load over ``ti`` (resp. ``tj``)
    systolic-array invocations, which is what lifts utilization from the
    DMA-bound ~40 % of the single-tile schedule into the 60-98 % band the
    paper reports.  The blocking structure is metaprogrammed (sizes become
    literals); instruction selection and config hoisting go through the
    same unification and effect-analysis machinery as the simple schedule.
    """
    from ..api import procs_from_source

    bi, bj = 16 * ti, 16 * tj
    act = "relu(res[16 * it + ii, 16 * jt + ji])" if relu_act \
        else "res[16 * it + ii, 16 * jt + ji]"
    # double buffering: stage loads into the ko%2 half of the scratchpad
    # buffers so that DMA for tile k+1 overlaps compute on tile k
    adim = "2, " if double_buffer else ""
    apre = "ko % 2, " if double_buffer else ""
    src = f"""
from __future__ import annotations
from repro import proc, DRAM, i8, i32, size

@proc
def matmul_blocked(N: size, M: size, K: size,
                   A: i8[N, K] @ DRAM,
                   B: i8[K, M] @ DRAM,
                   C: i8[N, M] @ DRAM):
    assert N % {bi} == 0
    assert M % {bj} == 0
    assert K % 16 == 0
    for io in seq(0, N / {bi}):
        for jo in seq(0, M / {bj}):
            res: i32[{bi}, {bj}] @ DRAM
            for it in seq(0, {ti}):
                for jt in seq(0, {tj}):
                    for ii in seq(0, 16):
                        for ji in seq(0, 16):
                            res[16 * it + ii, 16 * jt + ji] = 0.0
            for ko in seq(0, K / 16):
                a: i8[{adim}{bi}, 16] @ DRAM
                for it in seq(0, {ti}):
                    for ii in seq(0, 16):
                        for ki in seq(0, 16):
                            a[{apre}16 * it + ii, ki] = A[{bi} * io + 16 * it + ii, 16 * ko + ki]
                b: i8[{adim}16, {bj}] @ DRAM
                for jt in seq(0, {tj}):
                    for ki in seq(0, 16):
                        for ji in seq(0, 16):
                            b[{apre}ki, 16 * jt + ji] = B[16 * ko + ki, {bj} * jo + 16 * jt + ji]
                for it in seq(0, {ti}):
                    for jt in seq(0, {tj}):
                        for ii in seq(0, 16):
                            for ji in seq(0, 16):
                                for ki in seq(0, 16):
                                    res[16 * it + ii, 16 * jt + ji] += a[{apre}16 * it + ii, ki] * b[{apre}ki, 16 * jt + ji]
            for it in seq(0, {ti}):
                for jt in seq(0, {tj}):
                    for ii in seq(0, 16):
                        for ji in seq(0, 16):
                            C[{bi} * io + 16 * it + ii, {bj} * jo + 16 * jt + ji] = {act}
"""
    p = procs_from_source(src)["matmul_blocked"]
    p = _hoist_configs(p)
    p = p.replace(zero_acc_i32, "for ii in _: _ #0")
    p = p.replace(do_ld_i8, "for ii in _: _ #0")
    p = p.replace(do_ld_i8_b, "for ki in _: _ #0")
    p = p.replace(matmul_acc_i8, "for ii in _: _ #0")
    if relu_act:
        from ..platforms.gemmini import do_st_acc_i8

        p = p.replace(do_st_acc_i8, "for ii in _: _ #0")
    else:
        p = p.replace(do_st_acc_i8_noact, "for ii in _: _ #0")
    p = _set_memories(p)
    return p


# ---------------------------------------------------------------------------
# Autotuning (repro.autotune)
# ---------------------------------------------------------------------------


def build_matmul_candidate(base, style: str, stage: bool):
    """Derive one Fig-4a candidate: always 16x16x16 tiling, then one of

    * ``scalar``  — no accelerator instructions (CPU fallback),
    * ``fused``   — Old-lib style: config+mvin fused, a pipeline flush on
      every DMA transfer,
    * ``hoisted`` — Exo-lib style: configs written once at kernel top,
      split (assert-carrying) instructions selected.

    ``fused``/``hoisted`` without staging fail instruction selection (the
    DMA loops to replace do not exist), so those points are pruned by the
    checks rather than emitted broken.
    """
    p = _tile(base)
    if stage:
        p = _stage(p)
    if style == "scalar":
        return p
    if style == "hoisted":
        # establish the configuration state once, at the top of the kernel,
        # *before* selecting the split (assert-carrying) instructions: the
        # assertion checker then proves every do_ld/do_st precondition from
        # the config dataflow
        p = _hoist_configs(p)
        p = _select_instrs(p, fused=False)
    elif style == "fused":
        p = _select_instrs(p, fused=True)
    else:
        raise ValueError(f"unknown style {style!r}")
    p = _set_memories(p)
    return p


def matmul_space():
    """The Fig-4a tuning space: schedule style x tile staging.  Six points;
    (hoisted, staged) is exactly the hand-written :func:`matmul_exo`
    derivation, and the cost model's per-config-write pipeline-flush
    charge is what should make the tuner prefer it over Old-lib fusion."""
    from ..autotune import Choice, Space

    return Space(
        "gemmini_matmul_fig4a",
        matmul_base,
        choices=[
            Choice("style", ("scalar", "fused", "hoisted")),
            Choice("stage", (False, True)),
        ],
        build=build_matmul_candidate,
    )
