"""Analytic cost model of one Tiger Lake core with AVX-512 (§7.2).

The paper's x86 evaluation ran on an Intel i7-1185G7 at 4.3 GHz: one
512-bit FMA port (32 single-precision flops/cycle, 137.6 GFLOP/s peak), two
load ports, one store port, 48 KB L1D / 1.25 MB L2 / 12 MB L3.

The models price a scheduled kernel from its *instruction counts* -- which
for a static control program are exact functions of the problem size -- and
a footprint-based memory model: each operand panel is charged to the
innermost cache level it fits in given the kernel's loop structure, with
per-level bandwidth converting traffic into cycles.  Tests validate the
count formulas against real instruction traces at small sizes.

The pricing core (counts -> cycles) is :func:`price_x86`; ``sgemm_cost``
/ ``conv_cost`` below only assemble the per-kernel counts and delegate to
it.  The autotuner's IR-driven ``cost_of`` is a separate model
(``MachineModel`` / ``Cost.cycles``) and does not go through
``price_x86``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from math import ceil

# ---------------------------------------------------------------------------
# The x86 pricing core
# ---------------------------------------------------------------------------


@dataclass
class X86Params:
    """One Tiger Lake core with AVX-512 (the paper's i7-1185G7, §7.2)."""

    freq_ghz: float = 4.3
    fma_ports: float = 1.0  # 512-bit FMA issue per cycle
    load_ports: float = 2.0
    store_ports: float = 1.0
    l1_bytes: int = 48 * 1024
    l2_bytes: int = 1280 * 1024
    l3_bytes: int = 12 * 1024 * 1024
    l2_bw: float = 64.0  # bytes/cycle
    l3_bw: float = 30.0
    dram_bw: float = 14.0
    call_overhead: float = 18.0  # cycles per micro-kernel invocation
    loop_overhead: float = 2.0  # cycles per k iteration (pointer bumps)

    @property
    def peak_gflops(self) -> float:
        return self.freq_ghz * 32.0 * self.fma_ports


DEFAULT = X86Params()


@dataclass
class CostBreakdown:
    """Cycle estimate with its port/memory components (x86 models)."""

    cycles: float
    fma_cycles: float
    load_cycles: float
    store_cycles: float
    mem_cycles: float
    overhead_cycles: float
    flops: float

    def gflops(self, params: X86Params = DEFAULT) -> float:
        secs = self.cycles / (params.freq_ghz * 1e9)
        return self.flops / secs / 1e9

    def pct_peak(self, params: X86Params = DEFAULT) -> float:
        return 100.0 * self.gflops(params) / params.peak_gflops


def price_x86(
    fma_ops: float,
    loads: float,
    stores: float,
    mem_cycles: float,
    overhead_cycles: float,
    flops: float,
    params: X86Params = DEFAULT,
    core_scale: float = 1.0,
    fma_derate: float = 1.0,
    threads: int = 1,
) -> CostBreakdown:
    """Port-pressure pricing shared by every x86 kernel model.

    ``core_scale`` multiplies the whole core-bound term (narrow-shape
    penalties); ``fma_derate`` multiplies only the FMA pipe (short
    reduction chains / strided access stalls); ``threads`` applies the
    near-linear §9 multicore scaling.
    """
    fma_cycles = fma_ops / params.fma_ports
    load_cycles = loads / params.load_ports
    store_cycles = stores / params.store_ports
    core = max(fma_cycles * fma_derate, load_cycles, store_cycles) * core_scale
    cycles = max(core + overhead_cycles, mem_cycles)
    cycles /= max(1, threads) ** 0.97
    return CostBreakdown(
        cycles=cycles,
        fma_cycles=fma_cycles,
        load_cycles=load_cycles,
        store_cycles=store_cycles,
        mem_cycles=mem_cycles,
        overhead_cycles=overhead_cycles,
        flops=flops,
    )


def sgemm_cost(M: int, N: int, K: int, mr: int = 6, nv: int = 4,
               params: X86Params = DEFAULT) -> CostBreakdown:
    """Cycle estimate for the Exo SGEMM on an M x N x K problem.

    Edge tiles run through the specialized narrow/short kernel variants the
    paper describes (five distinct heights along the bottom, masked lanes on
    the right), so edge work is proportional to the actual tile size; only
    the final partial vector pads to 16 lanes.
    """
    nw = nv * 16
    # block-exact accounting: full and partial row/column blocks
    rb_full, rb_tail = divmod(M, mr)
    cb_full, cb_tail = divmod(N, nw)
    tail_vecs = ceil(cb_tail / 16)
    row_blocks = [(mr, rb_full)] + ([(rb_tail, 1)] if rb_tail else [])
    col_blocks = [(nv, cb_full)] + ([(tail_vecs, 1)] if tail_vecs else [])

    calls = 0
    fma_ops = 0
    bcast_loads = 0
    vec_loads = 0
    ctile = 0
    for rows, nrb in row_blocks:
        for vecs, ncb in col_blocks:
            n = nrb * ncb
            calls += n
            fma_ops += n * K * rows * vecs
            bcast_loads += n * K * rows
            vec_loads += n * K * vecs
            ctile += n * rows * vecs
    ctile_loads = ctile
    ctile_stores = ctile

    # memory traffic ------------------------------------------------------
    fsz = 4
    a_bytes = M * K * fsz  # A panel reused from L1 across jo
    c_bytes = 2 * M * N * fsz
    b_panel = K * nw * fsz
    b_total = K * N * fsz
    b_reads = ceil(M / mr)  # each io pass streams all of B
    if b_panel <= params.l1_bytes // 2:
        b_l2 = b_total  # first touch
        b_dram = b_total
        b_l3 = b_total
    elif b_total <= params.l2_bytes:
        b_l2 = b_reads * b_total
        b_l3 = b_total
        b_dram = b_total
    elif b_total <= params.l3_bytes:
        b_l2 = b_reads * b_total
        b_l3 = b_reads * b_total
        b_dram = b_total
    else:
        b_l2 = b_reads * b_total
        b_l3 = b_reads * b_total
        b_dram = b_reads * b_total
    l2_cycles = (a_bytes + c_bytes + b_l2) / params.l2_bw
    l3_cycles = (a_bytes + c_bytes + b_l3) / params.l3_bw
    dram_cycles = (a_bytes + c_bytes + b_dram) / params.dram_bw
    mem_cycles = max(l2_cycles, l3_cycles, dram_cycles)

    overhead = calls * params.call_overhead + calls * K * params.loop_overhead

    # narrow-shape penalty: running a wide register tile on a problem
    # narrower than the tile leaves FMA-latency bubbles and remainder
    # dispatch on the critical path.  This is what MKL's extra specialized
    # kernels avoid at extreme aspect ratios (Fig. 5b).
    narrow = (
        1.0
        + 0.35 * max(0.0, 1.0 - N / nw)
        + 0.35 * max(0.0, 1.0 - M / (4 * mr))
    )

    return price_x86(
        fma_ops=fma_ops,
        loads=bcast_loads + vec_loads + ctile_loads,
        stores=ctile_stores,
        mem_cycles=mem_cycles,
        overhead_cycles=overhead,
        flops=2.0 * M * N * K,
        params=params,
        core_scale=narrow,
    )


# ---------------------------------------------------------------------------
# Native compile-and-run (OpenMP mode)
# ---------------------------------------------------------------------------
#
# The analytic model above prices kernels without executing them; this
# section actually builds and runs generated C, so the ``parallelize``
# directive's ``#pragma omp parallel for`` output can be validated (and
# timed) multithreaded.  Everything degrades gracefully: with no C
# compiler, callers get None / False and should skip.

#: flags for ISO C99 mode.  ``-std=c99`` matters beyond pedantry: GNU mode
#: defaults to ``-ffp-contract=fast``, fusing mul+add into FMA and changing
#: float rounding; ISO mode keeps contraction off, so scalar kernel output
#: matches the numpy-based interpreter bit-for-bit.
BASE_CFLAGS = ("-O2", "-std=c99")

_CC_CACHE: list = []
_OPENMP_CACHE: dict = {}


def find_cc() -> str | None:
    """Locate a C compiler (honors ``$CC``), or None."""
    if not _CC_CACHE:
        candidates = [os.environ.get("CC"), "gcc", "cc", "clang"]
        found = None
        for c in candidates:
            if c and shutil.which(c):
                found = shutil.which(c)
                break
        _CC_CACHE.append(found)
    return _CC_CACHE[0]


def openmp_available(cc: str | None = None) -> bool:
    """Does ``cc`` accept ``-fopenmp`` (probed once per compiler)?"""
    cc = cc or find_cc()
    if cc is None:
        return False
    if cc not in _OPENMP_CACHE:
        probe = "#include <omp.h>\nint main(void){return omp_get_max_threads()<1;}\n"
        try:
            with tempfile.TemporaryDirectory() as d:
                src = os.path.join(d, "probe.c")
                with open(src, "w") as f:
                    f.write(probe)
                r = subprocess.run(
                    [cc, "-fopenmp", src, "-o", os.path.join(d, "probe")],
                    capture_output=True,
                )
            _OPENMP_CACHE[cc] = r.returncode == 0
        except OSError:
            _OPENMP_CACHE[cc] = False
    return _OPENMP_CACHE[cc]


def compile_and_run(
    c_source: str,
    args: tuple = (),
    cc: str | None = None,
    openmp: bool = False,
    threads: int | None = None,
    extra_flags: tuple = (),
    timeout: float = 120.0,
) -> str:
    """Compile ``c_source`` (which must define ``main``) and run it,
    returning stdout.  ``openmp=True`` adds ``-fopenmp`` and runs with
    ``OMP_NUM_THREADS=threads``.  Raises RuntimeError when no compiler is
    available or the build/run fails."""
    cc = cc or find_cc()
    if cc is None:
        raise RuntimeError("no C compiler found (set $CC)")
    flags = list(BASE_CFLAGS) + list(extra_flags)
    if openmp:
        flags.append("-fopenmp")
    with tempfile.TemporaryDirectory() as d:
        src = os.path.join(d, "prog.c")
        exe = os.path.join(d, "prog")
        with open(src, "w") as f:
            f.write(c_source)
        build = subprocess.run(
            [cc, *flags, src, "-o", exe, "-lm"], capture_output=True, text=True
        )
        if build.returncode != 0:
            raise RuntimeError(f"C build failed:\n{build.stderr}")
        env = dict(os.environ)
        if openmp and threads is not None:
            env["OMP_NUM_THREADS"] = str(threads)
        run = subprocess.run(
            [exe, *map(str, args)],
            capture_output=True,
            text=True,
            env=env,
            timeout=timeout,
        )
        if run.returncode != 0:
            raise RuntimeError(f"binary failed ({run.returncode}):\n{run.stderr}")
        return run.stdout


def conv_cost(N: int, H: int, W: int, IC: int, OC: int,
              kh: int = 3, kw: int = 3, xb: int = 4, ocv: int = 2,
              params: X86Params = DEFAULT, threads: int = 1) -> CostBreakdown:
    """Cycle estimate for the scheduled direct convolution (Fig. 6 shape).

    The register tile covers ``xb`` output positions x ``ocv`` 16-lane
    output-channel vectors; the reduction runs over kh*kw*IC.  Direct
    convolution has intrinsically lower FMA-port utilization than GEMM
    (shorter reduction chains between C-tile traffic, strided input reads),
    which is why all of Exo / Halide / oneDNN sit near 40 % of peak.
    """
    OH, OW = H - kh + 1, W - kw + 1
    calls = N * OH * ceil(OW / xb) * ceil(OC / (ocv * 16))
    red = kh * kw * IC
    fma_ops = calls * red * xb * ocv
    # operand loads: one broadcast per (x, ic, ky, kx) + weight vector loads
    bcast_loads = calls * red * xb
    wvec_loads = calls * red * ocv
    ctile = calls * xb * ocv

    fsz = 4
    in_bytes = N * H * W * IC * fsz * kh  # row re-reads across ky
    w_bytes = kh * kw * IC * OC * fsz
    out_bytes = 2 * N * OH * OW * OC * fsz
    w_resident = w_bytes <= params.l2_bytes
    w_traffic = w_bytes if w_resident else w_bytes * N * OH
    mem_cycles = (in_bytes + w_traffic + out_bytes) / params.dram_bw

    # strided input access + short per-pixel reduction chains stall the FMA
    # pipe: empirically-calibrated derate reproducing the ~40 % plateau the
    # paper reports for *all three* implementations at this shape
    return price_x86(
        fma_ops=fma_ops,
        loads=bcast_loads + wvec_loads + ctile,
        stores=ctile,
        mem_cycles=mem_cycles,
        overhead_cycles=calls * params.call_overhead,
        flops=2.0 * calls * red * xb * ocv * 16,
        params=params,
        fma_derate=2.47,
        threads=threads,
    )
