"""User-level hardware library for the Berkeley Gemmini accelerator (§7.1).

This file is the paper's thesis made concrete: everything an Exo program
needs in order to target Gemmini -- scratchpad and accumulator memories,
configuration state, and the ISA -- is defined *here*, in user code, with
no compiler support beyond the generic ``Memory`` / ``@config`` / ``@instr``
mechanisms.

Modeled (matching Gemmini's default instantiation):

* a 256 KB scratchpad of int8 inputs/weights (``SCRATCHPAD``), accessed only
  through ``mvin``/``mvout`` DMA instructions;
* a 64 KB accumulator of int32 partial sums (``ACCUM``);
* a 16x16 weight-stationary systolic array (``matmul_acc_i8``);
* configuration registers for the load/store DMA strides, written by
  dedicated config instructions that flush the accelerator pipeline.

Two generations of the config ISA are provided: ``ConfigLoad``/
``ConfigStore`` reflect the *disaggregated* interface the paper reports
co-designing (§7.1: orthogonal config per functional unit), while
``ConfigAllV1`` models the original entangled interface (one register
write perturbing several units) used by the co-design case study.
"""

from __future__ import annotations

from .. import DRAM, Memory, MemGenError, i8, i32, instr
from ..core import types as T

DIM = 16  # systolic array dimension
SCRATCHPAD_KB = 256
ACCUM_KB = 64


class SCRATCHPAD(Memory):
    """Gemmini's explicitly-managed input/weight scratchpad.

    Not addressable from C: only ``mvin``/``mvout`` style instructions may
    touch it, which the backend checks enforce (§3.2.1)."""

    addressable = False

    @classmethod
    def alloc(cls, new_name, prim_type, shape, srcinfo):
        total = " * ".join(f"({s})" for s in shape) if shape else "1"
        return (
            f"{prim_type} *{new_name} = "
            f"({prim_type}*) gemmini_spad_malloc({total} * sizeof({prim_type}));"
        )

    @classmethod
    def free(cls, new_name, prim_type, shape, srcinfo):
        return f"gemmini_spad_free({new_name});"

    @classmethod
    def global_(cls):
        return "// scratchpad allocator provided by the Gemmini runtime"

    @classmethod
    def window(cls, basetyp, baseptr, indices, strides, srcinfo):
        raise MemGenError("SCRATCHPAD memory is not addressable from C")


class ACCUM(Memory):
    """Gemmini's 32-bit accumulator memory (also non-addressable)."""

    addressable = False

    @classmethod
    def alloc(cls, new_name, prim_type, shape, srcinfo):
        total = " * ".join(f"({s})" for s in shape) if shape else "1"
        return (
            f"{prim_type} *{new_name} = "
            f"({prim_type}*) gemmini_acc_malloc({total} * sizeof({prim_type}));"
        )

    @classmethod
    def free(cls, new_name, prim_type, shape, srcinfo):
        return f"gemmini_acc_free({new_name});"

    @classmethod
    def window(cls, basetyp, baseptr, indices, strides, srcinfo):
        raise MemGenError("ACCUM memory is not addressable from C")


# ---------------------------------------------------------------------------
# Configuration state (disaggregated, post-co-design interface)
# ---------------------------------------------------------------------------

from ..core.configs import Config  # noqa: E402

ConfigLoad = Config("ConfigLoad", [("src_stride", T.stride_t)])
ConfigLoadB = Config("ConfigLoadB", [("src_stride", T.stride_t)])
ConfigStore = Config("ConfigStore", [("dst_stride", T.stride_t)])
ConfigMatmul = Config("ConfigMatmul", [("done", T.bool_t)])

#: the pre-co-design, entangled configuration interface (§7.1): one struct
#: whose writes perturb load, store, and execute units at once
ConfigAllV1 = Config(
    "ConfigAllV1",
    [
        ("src_stride", T.stride_t),
        ("dst_stride", T.stride_t),
        ("ex_mode", T.int_t),
    ],
)


# ---------------------------------------------------------------------------
# Configuration instructions
# ---------------------------------------------------------------------------


@instr("gemmini_extended_config_ld({s}, 1.0f);")
def config_ld(s: stride):
    ConfigLoad.src_stride = s


@instr("gemmini_extended_config_ld2({s}, 1.0f);")
def config_ld_b(s: stride):
    ConfigLoadB.src_stride = s


@instr("gemmini_extended_config_st({s});")
def config_st(s: stride):
    ConfigStore.dst_stride = s


@instr("gemmini_extended_config_ex(WS, 0, 0, 1);")
def config_matmul():
    ConfigMatmul.done = True


# ---------------------------------------------------------------------------
# Data movement: fused (config + mvin) and split variants
# ---------------------------------------------------------------------------


@instr("gemmini_extended_config_ld({src.strides[0]}, 1.0f);\n"
       "gemmini_extended_mvin({src}, {dst}, {m}, {n});")
def ld_i8(n: size, m: size,
          src: [i8][n, m] @ DRAM,
          dst: [i8][n, 16] @ SCRATCHPAD):
    assert n <= 16
    assert m <= 16
    for i in seq(0, n):
        for j in seq(0, m):
            dst[i, j] = src[i, j]


@instr("gemmini_extended_mvin({src}, {dst}, {m}, {n});")
def do_ld_i8(n: size, m: size,
             src: [i8][n, m] @ DRAM,
             dst: [i8][n, 16] @ SCRATCHPAD):
    assert n <= 16
    assert m <= 16
    assert stride(src, 0) == ConfigLoad.src_stride
    for i in seq(0, n):
        for j in seq(0, m):
            dst[i, j] = src[i, j]


@instr("gemmini_extended_config_ld2({src.strides[0]}, 1.0f);\n"
       "gemmini_extended_mvin2({src}, {dst}, {m}, {n});")
def ld_i8_b(n: size, m: size,
            src: [i8][n, m] @ DRAM,
            dst: [i8][n, 16] @ SCRATCHPAD):
    assert n <= 16
    assert m <= 16
    for i in seq(0, n):
        for j in seq(0, m):
            dst[i, j] = src[i, j]


@instr("gemmini_extended_mvin2({src}, {dst}, {m}, {n});")
def do_ld_i8_b(n: size, m: size,
               src: [i8][n, m] @ DRAM,
               dst: [i8][n, 16] @ SCRATCHPAD):
    assert n <= 16
    assert m <= 16
    assert stride(src, 0) == ConfigLoadB.src_stride
    for i in seq(0, n):
        for j in seq(0, m):
            dst[i, j] = src[i, j]


@instr("gemmini_extended_mvin3(NULL, {dst}, {m}, {n});")
def zero_acc_i32(n: size, m: size, dst: [i32][n, 16] @ ACCUM):
    assert n <= 16
    assert m <= 16
    for i in seq(0, n):
        for j in seq(0, m):
            dst[i, j] = 0.0


@instr("gemmini_extended_config_st({dst.strides[0]});\n"
       "gemmini_extended_mvout({dst}, {src}, {m}, {n});")
def st_acc_i8(n: size, m: size,
              src: [i32][n, 16] @ ACCUM,
              dst: [i8][n, m] @ DRAM):
    assert n <= 16
    assert m <= 16
    for i in seq(0, n):
        for j in seq(0, m):
            dst[i, j] = relu(src[i, j])


@instr("gemmini_extended_mvout({dst}, {src}, {m}, {n});")
def do_st_acc_i8(n: size, m: size,
                 src: [i32][n, 16] @ ACCUM,
                 dst: [i8][n, m] @ DRAM):
    assert n <= 16
    assert m <= 16
    assert stride(dst, 0) == ConfigStore.dst_stride
    for i in seq(0, n):
        for j in seq(0, m):
            dst[i, j] = relu(src[i, j])


@instr("gemmini_extended_config_st({dst.strides[0]});\n"
       "gemmini_extended_mvout({dst}, {src}, {m}, {n});")
def st_acc_i8_noact(n: size, m: size,
                    src: [i32][n, 16] @ ACCUM,
                    dst: [i8][n, m] @ DRAM):
    assert n <= 16
    assert m <= 16
    for i in seq(0, n):
        for j in seq(0, m):
            dst[i, j] = src[i, j]


@instr("gemmini_extended_mvout({dst}, {src}, {m}, {n});")
def do_st_acc_i8_noact(n: size, m: size,
                       src: [i32][n, 16] @ ACCUM,
                       dst: [i8][n, m] @ DRAM):
    assert n <= 16
    assert m <= 16
    assert stride(dst, 0) == ConfigStore.dst_stride
    for i in seq(0, n):
        for j in seq(0, m):
            dst[i, j] = src[i, j]


# ---------------------------------------------------------------------------
# Compute
# ---------------------------------------------------------------------------


@instr("gemmini_extended_preload({b}, {res}, {m}, {k}, {m}, {n});\n"
       "gemmini_extended_compute_preloaded({a}, ~((uint32_t)0), {k}, {n});")
def matmul_acc_i8(n: size, m: size, k: size,
                  a: [i8][n, 16] @ SCRATCHPAD,
                  b: [i8][k, 16] @ SCRATCHPAD,
                  res: [i32][n, 16] @ ACCUM):
    assert n <= 16
    assert m <= 16
    assert k <= 16
    for i in seq(0, n):
        for j in seq(0, m):
            for kk in seq(0, k):
                res[i, j] += a[i, kk] * b[kk, j]


GEMMINI_INSTRS = {
    p.name(): p
    for p in (
        config_ld, config_ld_b, config_st, config_matmul,
        ld_i8, do_ld_i8, ld_i8_b, do_ld_i8_b,
        zero_acc_i32, st_acc_i8, st_acc_i8_noact,
        do_st_acc_i8, do_st_acc_i8_noact,
        matmul_acc_i8,
    )
}
