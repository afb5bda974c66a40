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

The native half runs generated C instead: :func:`run_c` takes the
arguments ``interpret()`` takes and is the one way a proc's C is run
(measured tuning, the OpenMP benchmark, the C-vs-interpreter tests).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from math import ceil
from typing import Tuple

import numpy as np

from ..core.interp import bind_args, check_call, dtype_of

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
# Native runs of generated C
# ---------------------------------------------------------------------------
#
# ``compile_and_run`` builds a ``main``-bearing program and runs it in a
# child process; ``run_c`` runs a proc's C through it.  With no C compiler
# both raise RuntimeError; tests skip on ``find_cc() is None``.

#: flags for ISO C99 mode.  ``-std=c99`` matters beyond pedantry: GNU mode
#: defaults to ``-ffp-contract=fast``, fusing mul+add into FMA and changing
#: float rounding; ISO mode keeps contraction off, so scalar kernel output
#: matches the numpy-based interpreter bit-for-bit.
BASE_CFLAGS = ("-O2", "-std=c99")


@lru_cache(maxsize=None)
def find_cc() -> str | None:
    """Locate a C compiler (honors ``$CC``), or None."""
    found = (shutil.which(c) for c in (os.environ.get("CC"), "gcc", "cc",
                                       "clang") if c)
    return next((path for path in found if path), None)


@lru_cache(maxsize=None)
def openmp_available() -> bool:
    """Does the C compiler build and run an OpenMP program (probed once)?"""
    try:
        compile_and_run("#include <omp.h>\nint main(void)"
                        "{return omp_get_max_threads()<1;}\n", openmp=True)
        return True
    except (RuntimeError, OSError):
        return False


def host_avx512() -> bool:
    """Does this CPU list ``avx512f`` in ``/proc/cpuinfo``?"""
    try:
        with open("/proc/cpuinfo") as f:
            return " avx512f" in f.read()
    except OSError:
        return False


def compile_and_run(
    c_source: str,
    args: tuple = (),
    openmp: bool = False,
    threads: int | None = None,
    extra_flags: tuple = (),
    timeout: float = 120.0,
) -> str:
    """Compile ``c_source`` (which must define ``main``) and run it,
    returning stdout.  ``openmp=True`` adds ``-fopenmp`` and runs with
    ``OMP_NUM_THREADS=threads``.  Raises RuntimeError when no compiler is
    available or the build/run fails."""
    cc = find_cc()
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


def build_flags(c_source: str) -> Tuple[str, Tuple[str, ...]]:
    """The includes to prepend to generated C and the flags beyond
    ``BASE_CFLAGS`` to build it with (the platforms emit no includes)."""
    flags = ("-D_POSIX_C_SOURCE=199309L",)
    if "_mm512" in c_source:
        return "#include <immintrin.h>\n", flags + ("-mavx512f",)
    return "", flags


def harness_source(proc, args, reps: int) -> str:
    """The program :func:`run_c` builds: ``proc``'s C and a ``main``.

    Each tensor argument is a static, 64-byte-aligned buffer loaded from
    the file named by its ``argv`` slot.  Every run restores the inputs
    outside the timed region and calls the kernel through a volatile
    function pointer, so gcc cannot inline a constant-size copy of it into
    ``main``.  The tensors are then written back and the best wall-clock
    seconds printed."""
    ir = proc.ir()
    env = bind_args(ir, list(args))
    decls, loads, restores, saves, callargs = [], [], [], [], []
    for formal in ir.args:
        val = env[formal.name]
        if not formal.type.is_numeric():
            callargs.append(str(int(val)))
            continue
        k = len(loads) + 1
        ct = formal.type.basetype().ctype()
        n, nb = max(1, val.size), f"{val.size} * sizeof({ct})"
        buf = f"run_c_buf{k}"
        decls.append(f"static __attribute__((aligned(64))) {ct} "
                     f"{buf}[{n}], {buf}_in[{n}];")
        for lst, mode, io, b in ((loads, "rb", "fread", f"{buf}_in"),
                                 (saves, "wb", "fwrite", buf)):
            lst.append(f'    if (!(fp = fopen(argv[{k}], "{mode}")) || '
                       f"{io}({b}, 1, {nb}, fp) != {nb}) "
                       f"{{ perror(argv[{k}]); return 2; }}\n    fclose(fp);")
        restores.append(f"        memcpy({buf}, {buf}_in, {nb});")
        callargs.append(buf)
    nl = "\n"
    # the kernel pointer is declared first, so no local shadows its name
    return proc.c_code() + f"""
#include <stdio.h>
#include <string.h>
#include <time.h>
{nl.join(decls)}
int main(int argc, char **argv) {{
    __typeof__({ir.name}) *volatile run_c_kernel = {ir.name};
    FILE *fp;
    if (argc != {len(loads) + 1}) return 2;
{nl.join(loads)}
    double best = 1e30;
    for (int r = 0; r < {reps}; r++) {{
{nl.join(restores)}
        struct timespec t0, t1;
        clock_gettime(CLOCK_MONOTONIC, &t0);
        run_c_kernel({", ".join(callargs)});
        clock_gettime(CLOCK_MONOTONIC, &t1);
        double s = (t1.tv_sec - t0.tv_sec) + (t1.tv_nsec - t0.tv_nsec) * 1e-9;
        if (s < best) best = s;
    }}
{nl.join(saves)}
    printf("%.9e\\n", best);
    return 0;
}}
"""


def run_c(proc, *args, reps: int = 1, openmp: bool = False,
          threads: int | None = None, timeout: float = 120.0) -> float:
    """Run ``proc``'s C on the arguments ``proc.interpret()`` takes, write
    the results back into the arrays in place, and return the best
    wall-clock seconds over ``reps`` runs from the same inputs.

    The arguments are checked as the interpreter checks them before any
    compiler starts (:class:`InterpError`); window and scalar data formals
    raise ValueError.  ``openmp``, ``threads`` and ``timeout`` pass to
    :func:`compile_and_run`."""
    ir = proc.ir()
    for formal in ir.args:
        if formal.type.is_win() or formal.type.is_real_scalar():
            kind = "window" if formal.type.is_win() else "scalar data"
            raise ValueError(f"run_c: {ir.name} has {kind} formal "
                             f"{formal.name}; pass sizes and tensors only")
    if reps < 1:
        raise ValueError(f"run_c: reps must be at least 1, got {reps}")
    env = check_call(ir, args)
    tensors = [(env[f.name], dtype_of(f.type))
               for f in ir.args if f.type.is_numeric()]
    src = harness_source(proc, args, reps)
    includes, flags = build_flags(src)
    with tempfile.TemporaryDirectory() as d:
        paths = [os.path.join(d, f"a{k}.bin") for k in range(len(tensors))]
        for (val, dt), path in zip(tensors, paths):
            np.ascontiguousarray(val, dtype=dt).tofile(path)
        out = compile_and_run(includes + src, args=paths, openmp=openmp,
                              threads=threads, extra_flags=flags,
                              timeout=timeout)
        for (val, dt), path in zip(tensors, paths):
            val[...] = np.fromfile(path, dtype=dt).reshape(val.shape)
    return float(out.split()[0])


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
