"""x86 AVX-512 SGEMM (§7.2).

The paper's decomposition: a register-blocked 6x64 micro-kernel accumulates
the inner dimension into a panel of C; every specialized variant (different
register-tile shapes for edge cases) is produced by *metaprogramming the
schedule in Python* over a single naive rank-1-update algorithm; the outer
kernel is derived by tiling the naive three-loop SGEMM and ``replace()``-ing
the inner nest with a call to the micro-kernel, then ``call_eqv``-ing to the
scheduled variant.

``make_microkernel(mr, nv)`` is that metaprogram: it returns both the
algorithmic micro-kernel (used for unification) and the AVX-512-scheduled
equivalent, for any register tile of ``mr`` rows by ``nv`` 16-lane vectors.
``build_sgemm_candidate`` is the one outer derivation: :func:`sgemm_exo`
applies it to the size-generic algorithm, the tuner to size-literal ones.
"""

from __future__ import annotations

from functools import lru_cache

from .. import DRAM, f32, proc
from ..api import Procedure
from ..platforms.avx512 import (
    AVX512,
    mm512_fmadd_bcast_ps,
    mm512_loadu_ps,
    mm512_storeu_ps,
)

#: the paper's register blocking: 6 rows x 64 columns (4 zmm vectors)
MR = 6
NV = 4


def _microkernel_algorithm(mr: int, nv: int):
    """The naive rank-1-update micro-kernel algorithm for an mr x (nv*16)
    register tile.  Built once per shape via exec-based metaprogramming so
    that the sizes appear as literals (the paper specializes its kernels to
    constants the same way).  Its formals are windows (``[f32][...]``):
    the outer kernel passes strided panels of A, B and C."""
    nw = nv * 16
    src = f"""
from __future__ import annotations
from repro import proc, DRAM, f32, size

@proc
def ukernel_{mr}x{nw}(K: size,
                      A: [f32][{mr}, K] @ DRAM,
                      B: [f32][K, {nw}] @ DRAM,
                      C: [f32][{mr}, {nw}] @ DRAM):
    assert K >= 1
    for k in seq(0, K):
        for i in seq(0, {mr}):
            for j in seq(0, {nw}):
                C[i, j] += A[i, k] * B[k, j]
"""
    from ..api import procs_from_source

    return procs_from_source(src)[f"ukernel_{mr}x{nw}"]


def _schedule_microkernel(p: Procedure, mr: int, nv: int) -> Procedure:
    """Vectorize the rank-1 update micro-kernel:

    * stage the C tile in vector registers across the whole K loop,
    * split the lane loop by 16 and select broadcast-FMA instructions.
    """
    nw = nv * 16
    # stage C into a register tile around the K loop
    p = p.stage_mem("for k in _: _", f"C[0:{mr}, 0:{nw}]", "c_tile")
    p = p.set_memory("c_tile", AVX512)
    # vectorize the copy-in / copy-out loops (the two instructions have the
    # same Exo semantics, so each loop is replaced by name, not shape)
    p = p.split("for i1 in _: _ #0", 16, "jv", "lane", tail="perfect")
    p = p.split("for i1 in _: _ #0", 16, "jv", "lane", tail="perfect")
    p = p.replace(mm512_loadu_ps, "for lane in _: _ #0")
    p = p.replace(mm512_storeu_ps, "for lane in _: _ #0")
    # vectorize the update
    p = p.split("for j in _: _", 16, "jv", "lane", tail="perfect")
    p = p.replace_all(mm512_fmadd_bcast_ps)
    return p


@lru_cache(maxsize=None)
def make_microkernel(mr: int = MR, nv: int = NV):
    """Returns ``(algorithm, scheduled)`` micro-kernel Procedures."""
    algo = _microkernel_algorithm(mr, nv)
    sched = _schedule_microkernel(
        algo.rename(f"ukernel_{mr}x{nv * 16}_avx512"), mr, nv
    )
    return algo, sched


@proc
def sgemm_base(M: size, N: size, K: size,
               A: f32[M, K] @ DRAM,
               B: f32[K, N] @ DRAM,
               C: f32[M, N] @ DRAM):
    assert K >= 1
    for i in seq(0, M):
        for j in seq(0, N):
            for k in seq(0, K):
                C[i, j] += A[i, k] * B[k, j]


def _sgemm_algorithm(mr: int, nw: int):
    src = f"""
from __future__ import annotations
from repro import proc, DRAM, f32, size

@proc
def sgemm_exo(M: size, N: size, K: size,
              A: f32[M, K] @ DRAM,
              B: f32[K, N] @ DRAM,
              C: f32[M, N] @ DRAM):
    assert M % {mr} == 0
    assert N % {nw} == 0
    assert K >= 1
    for i in seq(0, M):
        for j in seq(0, N):
            for k in seq(0, K):
                C[i, j] += A[i, k] * B[k, j]
"""
    from ..api import procs_from_source

    return procs_from_source(src)["sgemm_exo"]


@lru_cache(maxsize=None)
def sgemm_exo(mr: int = MR, nv: int = NV):
    """The main SGEMM kernel (divisible sizes): tile, rewrite the inner
    nest into the rank-1-update order, abstract it into the micro-kernel by
    unification, and swap in the vectorized equivalent -- the tuner's
    vectorized candidate, applied to the size-generic algorithm."""
    return build_sgemm_candidate(_sgemm_algorithm(mr, 16 * nv), mr, nv, True)


# ---------------------------------------------------------------------------
# Autotuning (repro.autotune)
# ---------------------------------------------------------------------------

#: the fixed problem the tuner specializes for (literal sizes make every
#: divisibility obligation decidable, so non-dividing tiles are *proved*
#: illegal and pruned rather than silently mis-scheduled)
TUNE_M, TUNE_N, TUNE_K = 192, 192, 64


@lru_cache(maxsize=None)
def sgemm_tune_base(M: int = TUNE_M, N: int = TUNE_N, K: int = TUNE_K):
    """A size-literal scalar SGEMM — the algorithm the tuner schedules."""
    src = f"""
from __future__ import annotations
from repro import proc, DRAM, f32, size

@proc
def sgemm_t{M}x{N}x{K}(A: f32[{M}, {K}] @ DRAM,
                       B: f32[{K}, {N}] @ DRAM,
                       C: f32[{M}, {N}] @ DRAM):
    for i in seq(0, {M}):
        for j in seq(0, {N}):
            for k in seq(0, {K}):
                C[i, j] += A[i, k] * B[k, j]
"""
    from ..api import procs_from_source

    return procs_from_source(src)[f"sgemm_t{M}x{N}x{K}"]


def build_sgemm_candidate(base: Procedure, mr: int, nv: int,
                          vectorize: bool) -> Procedure:
    """Derive one candidate schedule: tile by (mr, nv*16), bring k outermost
    within the tile, and optionally swap in the AVX-512 micro-kernel.

    Raises :class:`SchedulingError` when the tiling is illegal for the
    problem size (e.g. ``tail='perfect'`` with a non-dividing ``mr``) —
    the tuner prunes such candidates.
    """
    nw = nv * 16
    p = base.split("for i in _: _", mr, "io", "ii", tail="perfect")
    p = p.split("for j in _: _", nw, "jo", "ji", tail="perfect")
    p = p.reorder("for ii in _: _")  # io, jo, ii, ji, k
    p = p.reorder("for ji in _: _")  # ji <-> k
    p = p.reorder("for ii in _: _")  # ii <-> k
    if vectorize:
        algo, sched = make_microkernel(mr, nv)
        p = p.replace(algo, "for k in _: _")
        p = p.call_eqv(sched, f"ukernel_{mr}x{nw}(_)")
    return p


def sgemm_space(M: int = TUNE_M, N: int = TUNE_N, K: int = TUNE_K):
    """The SGEMM tuning space: register-tile shape x vectorization.

    30 points; the hand-written schedule (mr=6, nv=4, vectorized) is one
    of them, so the tuner's winner can never model worse than it.  Points
    with non-dividing tiles (e.g. mr=5 against M=192) fail their split
    proofs and are pruned by the safety checks.
    """
    from ..autotune import Choice, Space

    return Space(
        f"sgemm_{M}x{N}x{K}",
        sgemm_tune_base(M, N, K),
        choices=[
            Choice("mr", (2, 3, 4, 5, 6)),
            Choice("nv", (1, 2, 4)),
            Choice("vectorize", (False, True)),
        ],
        build=build_sgemm_candidate,
    )
