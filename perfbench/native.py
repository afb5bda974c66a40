"""The ``native`` workload's kernels, C harness and numpy references.

Two generated kernels are built with the host C compiler and timed on one
thread:

* AVX-512 SGEMM: ``build_sgemm_candidate(sgemm_tune_base(n, n, n), 6, 4,
  True)``, the paper's 6x64 register blocking with the window-formal
  micro-kernel (``sgemm_exo()``'s dense-formal micro-kernel does not build
  under ``-std=c99``; see README.md);
* the Fig-6 x86 conv (N=5, 80x100 outputs, 128 -> 128 channels, 3x3),
  scheduled by the app's own ``x86_conv._schedule`` on a size-literal copy
  of its algorithm.  The size-generic ``x86_conv.conv_exo()`` is not used
  because its C indexes the padded input with unparenthesized stride
  products (``OY + 2 * OX + 2 * IC``); see README.md.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

SGEMM_N = 768
CONV = {"B": 5, "OY": 80, "OX": 100, "OC": 128, "IC": 128}
#: the x86 conv register tile: output positions x 16-lane channel vectors
CONV_XB, CONV_OCV = 4, 2

CFLAGS = ("-mavx512f", "-D_POSIX_C_SOURCE=199309L")

#: the frozen reference kernels (``ref/<kernel>.c``, function ``ref_<kernel>``)
#: and the GFLOP/s they ran at on a quiet machine (Intel Xeon with
#: AVX-512, one thread); a generated kernel's time is scaled by how much
#: slower than that its reference ran in the same repetition
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref")
REFERENCE_GFLOPS = {"sgemm": 35.0, "conv": 54.0}


def reference_source(kernel: str) -> str:
    with open(os.path.join(REF_DIR, f"{kernel}.c")) as f:
        return f.read()


def conv_algorithm_source(b, oy, ox, oc, ic, xb, ocv) -> str:
    """``x86_conv._conv_algorithm`` with every size a literal."""
    ow = 16 * ocv
    return f"""
from __future__ import annotations
from repro import proc, DRAM, f32, relu

@proc
def conv_fig6(inp: f32[{b}, {oy + 2}, {ox + 2}, {ic}] @ DRAM,
              w: f32[3, 3, {ic}, {oc}] @ DRAM,
              out: f32[{b}, {oy}, {ox}, {oc}] @ DRAM):
    for b in seq(0, {b}):
        for oy in seq(0, {oy}):
            for oxo in seq(0, {ox // xb}):
                for oco in seq(0, {oc // ow}):
                    res: f32[{xb}, {ow}] @ DRAM
                    for xi in seq(0, {xb}):
                        for co in seq(0, {ow}):
                            res[xi, co] = 0.0
                    for ky in seq(0, 3):
                        for kx in seq(0, 3):
                            for ic in seq(0, {ic}):
                                for xi in seq(0, {xb}):
                                    for co in seq(0, {ow}):
                                        res[xi, co] += inp[b, oy + ky, {xb} * oxo + xi + kx, ic] * w[ky, kx, ic, {ow} * oco + co]
                    for xi in seq(0, {xb}):
                        for co in seq(0, {ow}):
                            out[b, oy, {xb} * oxo + xi, {ow} * oco + co] = relu(res[xi, co])
"""


def derive_kernels() -> Dict[str, object]:
    """Derive both kernels through the public directives (cold)."""
    from repro.api import procs_from_source
    from repro.apps import x86_conv, x86_sgemm

    sgemm = x86_sgemm.build_sgemm_candidate(
        x86_sgemm.sgemm_tune_base(SGEMM_N, SGEMM_N, SGEMM_N), 6, 4, True
    )
    src = conv_algorithm_source(*CONV.values(), CONV_XB, CONV_OCV)
    conv = x86_conv._schedule(
        procs_from_source(src)["conv_fig6"], CONV_XB, CONV_OCV
    )
    return {"sgemm": sgemm, "conv": conv}


@dataclass
class Problem:
    """One kernel's buffers: inputs in call order, then the output."""

    inputs: List[np.ndarray]
    out_shape: Tuple[int, ...]
    accumulates: bool  # the kernel adds into its output (C += A*B)
    flops: float
    reference: np.ndarray
    bound: np.ndarray  # elementwise error bound against ``reference``


def make_problems(seed: int) -> Dict[str, Problem]:
    """Seeded inputs plus float64 references and fp error bounds."""
    rng = np.random.default_rng(seed)
    eps = float(np.finfo(np.float32).eps)

    n = SGEMM_N
    a = rng.uniform(-1, 1, (n, n)).astype(np.float32)
    b = rng.uniform(-1, 1, (n, n)).astype(np.float32)
    a64, b64 = a.astype(np.float64), b.astype(np.float64)
    sgemm = Problem(
        inputs=[a, b],
        out_shape=(n, n),
        accumulates=True,
        flops=2.0 * n ** 3,
        reference=a64 @ b64,
        bound=2 * n * eps * (np.abs(a64) @ np.abs(b64)) + 1e-6,
    )

    s = CONV
    inp = rng.uniform(-1, 1, (s["B"], s["OY"] + 2, s["OX"] + 2, s["IC"]))
    w = rng.uniform(-1, 1, (3, 3, s["IC"], s["OC"]))
    inp, w = inp.astype(np.float32), w.astype(np.float32)
    red = 9 * s["IC"]
    shape = (s["B"], s["OY"], s["OX"], s["OC"])
    # float32 storage, one image at a time, keeps the reference's memory
    # small next to the compiler's own peak
    reference = np.empty(shape, np.float32)
    bound = np.empty(shape, np.float32)
    w64 = w.astype(np.float64)
    for img in range(s["B"]):
        acc = np.zeros(shape[1:])
        mag = np.zeros(shape[1:])
        for ky in range(3):
            for kx in range(3):
                window = inp[img, ky:ky + s["OY"], kx:kx + s["OX"], :]
                window = window.astype(np.float64)
                acc += window @ w64[ky, kx]
                mag += np.abs(window) @ np.abs(w64[ky, kx])
        reference[img] = np.maximum(acc, 0.0)
        bound[img] = 2 * red * eps * mag + 1e-6
    conv = Problem(
        inputs=[inp, w],
        out_shape=shape,
        accumulates=False,
        flops=2.0 * reference.size * red,
        reference=reference,
        bound=bound,
    )
    return {"sgemm": sgemm, "conv": conv}


def harness_source(kernel_c: str, name: str, prob: Problem,
                   ref_c: str, ref_name: str) -> str:
    """A C ``main`` that loads the inputs and, until a time budget is spent
    (and at least a minimum number of times), runs the kernel and then the
    reference kernel on the same inputs, printing both milliseconds per
    repetition; it writes the kernel's first output.

    argv: input files..., output file, budget in ms, minimum repetitions.
    """
    bufs = [f"in{i}" for i in range(len(prob.inputs))] + ["out"]
    sizes = [x.size for x in prob.inputs] + [int(np.prod(prob.out_shape))]
    decls = "\n".join(
        f"static float {b}[{n}] __attribute__((aligned(64)));"
        for b, n in zip(bufs + ["ref_out"], sizes + sizes[-1:])
    )
    ref_bufs = bufs[:-1] + ["ref_out"]
    loads = "\n".join(
        f"    load(argv[{i + 1}], {b}, {n});"
        for i, (b, n) in enumerate(zip(bufs[:-1], sizes[:-1]))
    )
    k = len(prob.inputs) + 1  # argv index of the output path
    reset = "memset(out, 0, sizeof out);" if prob.accumulates else ""
    ref_reset = reset.replace("out", "ref_out")
    return f"""#include <immintrin.h>
{kernel_c}
{ref_c}
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

{decls}

static double now_ms(void) {{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return t.tv_sec * 1e3 + t.tv_nsec / 1e6;
}}

static void load(const char *path, float *dst, long n) {{
    FILE *f = fopen(path, "rb");
    if (!f || fread(dst, sizeof(float), n, f) != (size_t)n) {{
        fprintf(stderr, "cannot read %s\\n", path);
        exit(2);
    }}
    fclose(f);
}}

int main(int argc, char **argv) {{
    double t_main = now_ms();
    if (argc != {k + 3}) return 2;
{loads}
    double budget_ms = atof(argv[{k + 1}]);
    int min_reps = atoi(argv[{k + 2}]);
    double spent = 0.0;
    for (int rep = 0; rep < min_reps || spent < budget_ms; rep++) {{
        {reset}
        double t0 = now_ms();
        {name}({", ".join(bufs)});
        double ms = now_ms() - t0;
        if (rep == 0) {{
            FILE *f = fopen(argv[{k}], "wb");
            if (!f || fwrite(out, sizeof(float), {sizes[-1]}, f) != {sizes[-1]}) return 3;
            fclose(f);
        }}
        {ref_reset}
        t0 = now_ms();
        {ref_name}({", ".join(ref_bufs)});
        double ref_ms = now_ms() - t0;
        spent += ms + ref_ms;
        printf("rep %.6f %.6f\\n", ms, ref_ms);
    }}
    printf("run_ms %.6f\\n", now_ms() - t_main);
    return 0;
}}
"""


@dataclass
class NativeRun:
    rep_ms: List[float]
    ref_ms: List[float]  # the reference kernel, right after each rep
    run_s: float  # the program's own wall time
    build_s: float  # compile_and_run wall time not spent in the program
    output: np.ndarray


def build_and_run(compile_and_run, source: str, prob: Problem, workdir: str,
                  tag: str, budget_ms: float, min_reps: int) -> NativeRun:
    """Build and run one harness through ``x86_sim.compile_and_run``."""
    paths = []
    for i, x in enumerate(prob.inputs):
        path = os.path.join(workdir, f"{tag}.in{i}.bin")
        x.tofile(path)
        paths.append(path)
    out_path = os.path.join(workdir, f"{tag}.out.bin")
    t0 = time.perf_counter()
    stdout = compile_and_run(
        source,
        args=(*paths, out_path, f"{budget_ms:.3f}", str(min_reps)),
        extra_flags=CFLAGS,
        timeout=150.0,
    )
    wall = time.perf_counter() - t0
    reps, refs, run_ms = [], [], None
    for line in stdout.splitlines():
        key, _, val = line.partition(" ")
        if key == "rep":
            ms, ref_ms = val.split()
            reps.append(float(ms))
            refs.append(float(ref_ms))
        elif key == "run_ms":
            run_ms = float(val)
    if run_ms is None or not reps:
        raise RuntimeError(f"{tag}: harness printed no timings:\n{stdout}")
    output = np.fromfile(out_path, np.float32).reshape(prob.out_shape)
    for p in paths + [out_path]:
        os.remove(p)
    return NativeRun(reps, refs, run_ms / 1e3, wall - run_ms / 1e3, output)


def within_bound(prob: Problem, output: np.ndarray) -> Tuple[bool, str]:
    worst = 0.0
    for got, ref, bound in zip(output, prob.reference, prob.bound):
        err = np.abs(got.astype(np.float64) - ref)
        worst = max(worst, float(np.max(err / bound)))
    return worst <= 1.0, f"max error / bound = {worst:.3g}"
