"""User-level hardware library for x86 AVX-512 (§7.2).

Defines a vector-register memory and the handful of AVX-512 intrinsics the
paper's SGEMM and CONV kernels need.  As with Gemmini, nothing here is
compiler-privileged: the ``@instr`` bodies give the semantics (which the
interpreter executes and the effect analysis reasons about), and the C
templates give the code generation.

The ``AVX512`` memory compiles to 64-byte-aligned float arrays; a C
compiler's register allocator promotes the small per-tile arrays into
``zmm`` registers, which is how hand-written intrinsic kernels behave too.
"""

from __future__ import annotations

from .. import DRAM, Memory, MemGenError, f32, instr


class AVX512(Memory):
    """Vector-register memory: innermost dimension must be 16 lanes."""

    addressable = False

    @classmethod
    def alloc(cls, new_name, prim_type, shape, srcinfo):
        if not shape:
            raise MemGenError("AVX512 allocations must be vectors")
        total = " * ".join(f"({s})" for s in shape)
        return (
            f"{prim_type} {new_name}[{total}] __attribute__((aligned(64)));"
        )

    @classmethod
    def free(cls, new_name, prim_type, shape, srcinfo):
        return ""

    @classmethod
    def window(cls, basetyp, baseptr, indices, strides, srcinfo):
        raise MemGenError(
            "AVX512 memory is only accessed through vector instructions"
        )


# ---------------------------------------------------------------------------
# 16-lane single-precision instructions
# ---------------------------------------------------------------------------


@instr("_mm512_store_ps({dst}, _mm512_loadu_ps({src}));")
def mm512_loadu_ps(dst: [f32][16] @ AVX512, src: [f32][16] @ DRAM):
    for l in seq(0, 16):
        dst[l] = src[l]


@instr("_mm512_storeu_ps({dst}, _mm512_load_ps({src}));")
def mm512_storeu_ps(dst: [f32][16] @ DRAM, src: [f32][16] @ AVX512):
    for l in seq(0, 16):
        dst[l] = src[l]


@instr("_mm512_store_ps({dst}, _mm512_maskz_loadu_ps(((1 << {n}) - 1), {src}));")
def mm512_maskz_loadu_ps(n: size,
                         dst: [f32][16] @ AVX512,
                         src: [f32][n] @ DRAM):
    assert n <= 16
    for l in seq(0, 16):
        if l < n:
            dst[l] = src[l]
        else:
            dst[l] = 0.0


@instr("_mm512_mask_storeu_ps({dst}, ((1 << {n}) - 1), _mm512_load_ps({src}));")
def mm512_mask_storeu_ps(n: size,
                         dst: [f32][n] @ DRAM,
                         src: [f32][16] @ AVX512):
    assert n <= 16
    for l in seq(0, 16):
        if l < n:
            dst[l] = src[l]


@instr("_mm512_store_ps({dst}, _mm512_setzero_ps());")
def mm512_setzero_ps(dst: [f32][16] @ AVX512):
    for l in seq(0, 16):
        dst[l] = 0.0


@instr("_mm512_store_ps({dst}, _mm512_fmadd_ps(_mm512_load_ps({a}), "
       "_mm512_load_ps({b}), _mm512_load_ps({dst})));")
def mm512_fmadd_ps(a: [f32][16] @ AVX512,
                   b: [f32][16] @ AVX512,
                   dst: [f32][16] @ AVX512):
    for l in seq(0, 16):
        dst[l] += a[l] * b[l]


@instr("_mm512_store_ps({dst}, _mm512_fmadd_ps(_mm512_set1_ps({a}), "
       "_mm512_loadu_ps({b}), _mm512_load_ps({dst})));")
def mm512_fmadd_bcast_ps(a: f32 @ DRAM,
                         b: [f32][16] @ DRAM,
                         dst: [f32][16] @ AVX512):
    # x86 FMA takes one memory operand: b streams straight from DRAM/cache
    for l in seq(0, 16):
        dst[l] += a * b[l]


@instr("_mm512_store_ps({dst}, _mm512_max_ps(_mm512_load_ps({src}), "
       "_mm512_setzero_ps()));")
def mm512_relu_ps(dst: [f32][16] @ AVX512, src: [f32][16] @ AVX512):
    for l in seq(0, 16):
        dst[l] = relu(src[l])


@instr("_mm512_storeu_ps({dst}, _mm512_max_ps(_mm512_load_ps({src}), "
       "_mm512_setzero_ps()));")
def mm512_relu_storeu_ps(dst: [f32][16] @ DRAM, src: [f32][16] @ AVX512):
    for l in seq(0, 16):
        dst[l] = relu(src[l])


#: a no-op instruction used as an escape hatch (§3.2.2, §9): its template
#: injects an OpenMP pragma while its Exo semantics are empty
@instr("#pragma omp parallel for")
def omp_parallel_for_marker(x: f32 @ DRAM):
    pass


AVX512_INSTRS = {
    p.name(): p
    for p in (
        mm512_loadu_ps, mm512_storeu_ps,
        mm512_maskz_loadu_ps, mm512_mask_storeu_ps,
        mm512_setzero_ps, mm512_fmadd_ps, mm512_fmadd_bcast_ps,
        mm512_relu_ps, mm512_relu_storeu_ps,
    )
}
