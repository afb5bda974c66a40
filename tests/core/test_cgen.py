"""C code generation and back-end checks (§3.1.1, §3.1.2)."""

from __future__ import annotations

import pytest

from repro import MemGenError
from repro.api import procs_from_source
from repro.core.prelude import BackendError
from repro.platforms.gemmini import SCRATCHPAD

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, instr, DRAM, StaticMemory, f32, i8, i32, size, relu\n"
)


def _p(body, extra=None):
    return list(procs_from_source(HEADER + body, extra_globals=extra).values())[-1]


class TestBasicCodegen:
    def test_signature_pointers(self):
        p = _p(
            """
@proc
def axpy(n: size, a: f32 @ DRAM, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] += a * x[i]
"""
        )
        c = p.c_code()
        assert "void axpy(int_fast32_t n, float* a, float* x, float* y)" in c
        assert "*a" in c  # scalar args dereference

    def test_loop_translation(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = 0.0
"""
        )
        c = p.c_code()
        assert "for (int_fast32_t i = 0; i < n; i++)" in c

    def test_row_major_indexing(self):
        p = _p(
            """
@proc
def f(n: size, m: size, x: f32[n, m] @ DRAM):
    assert n >= 2
    assert m >= 3
    x[1, 2] = 0.0
"""
        )
        c = p.c_code()
        assert "(1) * (m) + (2) * (1)" in c

    def test_static_memory(self):
        p = _p(
            """
@proc
def f(y: f32[4] @ DRAM):
    t: f32[4] @ StaticMemory
    for i in seq(0, 4):
        t[i] = y[i]
    for i in seq(0, 4):
        y[i] = t[i]
"""
        )
        assert "static float t[4];" in p.c_code()

    def test_assertions_become_comments(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    assert n % 4 == 0
    x[0] = 0.0
"""
        )
        assert "// assert n % 4 == 0" in p.c_code()

    def test_callee_compiled_first(self):
        p = _p(
            """
@proc
def inner(n: size, x: f32[n] @ DRAM):
    x[0] = 0.0

@proc
def outer(x: f32[4] @ DRAM):
    inner(4, x)
"""
        )
        c = p.c_code()
        assert c.index("void inner") < c.index("void outer(")
        assert "inner(4, x);" in c

    def test_window_struct_for_window_args(self):
        p = _p(
            """
@proc
def take(n: size, w: [f32][n] @ DRAM):
    w[0] = 0.0

@proc
def f(x: f32[8, 8] @ DRAM):
    take(8, x[3, 0:8])
"""
        )
        c = p.c_code()
        assert "struct exo_win_1float" in c
        assert ".strides" in c

    def test_relu_helper_emitted(self):
        p = _p(
            """
@proc
def f(x: f32 @ DRAM):
    x = relu(x)
"""
        )
        c = p.c_code()
        assert "_relu_float" in c
        assert "static inline float _relu_float" in c


class TestInstrCodegen:
    def test_template_replaces_call(self):
        p = _p(
            """
@instr("magic({n}, {dst});")
def magic(n: size, dst: [f32][n] @ DRAM):
    for i in seq(0, n):
        dst[i] = 0.0

@proc
def f(x: f32[16] @ DRAM):
    magic(16, x[0:16])
"""
        )
        c = p.c_code()
        assert "magic(16, " in c
        assert "void magic" not in c  # no function body emitted

    def test_template_window_offsets(self):
        p = _p(
            """
@instr("ld({src});")
def ld(src: [f32][4] @ DRAM):
    src[0] = 0.0

@proc
def f(x: f32[8, 8] @ DRAM):
    ld(x[3, 4:8])
"""
        )
        c = p.c_code()
        assert "ld(&x[" in c

    def test_stride_placeholder(self):
        p = _p(
            """
@instr("cfg({src.strides[0]});")
def cfg_i(src: [f32][4, 4] @ DRAM):
    src[0, 0] = 0.0

@proc
def f(x: f32[8, 8] @ DRAM):
    cfg_i(x[0:4, 0:4])
"""
        )
        assert "cfg(8);" in p.c_code()


class TestBackendChecks:
    def test_scratchpad_direct_access_rejected(self):
        p = _p(
            """
@proc
def f(y: f32[4] @ DRAM):
    t: i8[4] @ SPAD
    for i in seq(0, 4):
        t[i] = 0.0
    y[0] = 0.0
""",
            extra={"SPAD": SCRATCHPAD},
        )
        with pytest.raises(BackendError):
            p.c_code()

    def test_memory_mismatch_on_call_rejected(self):
        p = _p(
            """
@instr("spad_op({dst});")
def spad_op(dst: [i8][4] @ SPAD):
    dst[0] = 0.0

@proc
def f(x: i8[4] @ DRAM):
    spad_op(x[0:4])
""",
            extra={"SPAD": SCRATCHPAD},
        )
        with pytest.raises(BackendError):
            p.c_code()

    def test_scratchpad_via_instr_ok(self):
        p = _p(
            """
@instr("spad_zero({dst});")
def spad_zero(dst: [i8][4] @ SPAD):
    dst[0] = 0.0

@proc
def f(y: f32 @ DRAM):
    t: i8[4] @ SPAD
    spad_zero(t[0:4])
    y = 0.0
""",
            extra={"SPAD": SCRATCHPAD},
        )
        c = p.c_code()
        assert "spad_zero(" in c
        assert "gemmini_spad_malloc" in c


def _host_avx512() -> bool:
    try:
        with open("/proc/cpuinfo") as f:
            return " avx512f" in f.read()
    except OSError:
        return False


class TestStrideExprs:
    """Dense strides are products of the trailing extents; an extent that
    is a sum must stay one factor."""

    def test_sum_extents_parenthesized(self):
        p = _p(
            """
@proc
def f(n: size, m: size, x: f32[n + 2, m + 1, 4] @ DRAM):
    x[1, 0, 3] = 0.0
"""
        )
        c = p.c_code()
        assert "(1) * ((m + 1) * 4)" in c

    @pytest.mark.skipif(
        __import__("repro.machine.x86_sim", fromlist=["x"]).find_cc() is None
        or not _host_avx512(),
        reason="needs a C compiler and an AVX-512 host",
    )
    def test_size_generic_x86_conv_matches_numpy(self):
        import numpy as np

        from repro.apps import x86_conv
        from repro.machine.x86_sim import compile_and_run

        B, OY, OX, OC, IC = 1, 2, 4, 32, 3
        rng = np.random.default_rng(0)
        inp = rng.standard_normal((B, OY + 2, OX + 2, IC)).astype(np.float32)
        w = rng.standard_normal((3, 3, IC, OC)).astype(np.float32)

        def c_array(name, a):
            vals = ", ".join(f"{v:.9g}f" for v in a.ravel())
            return f"static float {name}[{a.size}] = {{{vals}}};"

        n_out = B * OY * OX * OC
        src = (
            "#include <immintrin.h>\n"
            + x86_conv.conv_exo().c_code()
            + "\n#include <stdio.h>\n"
            + c_array("inp", inp)
            + "\n"
            + c_array("w", w)
            + f"\nstatic float out[{n_out}];\n"
            + "int main(void) {\n"
            + f"    conv_exo_x86({B}, {OY}, {OX}, {OC}, {IC}, inp, w, out);\n"
            + f"    for (int i = 0; i < {n_out}; i++) printf(\"%.9g\\n\", out[i]);\n"
            + "    return 0;\n}\n"
        )
        got = np.array(
            compile_and_run(src, extra_flags=("-mavx512f",)).split(),
            dtype=np.float64,
        ).reshape(B, OY, OX, OC)
        ref = np.zeros((B, OY, OX, OC))
        for ky in range(3):
            for kx in range(3):
                ref += np.einsum(
                    "byxi,io->byxo",
                    inp[:, ky : ky + OY, kx : kx + OX, :].astype(np.float64),
                    w[ky, kx].astype(np.float64),
                )
        np.testing.assert_allclose(got, np.maximum(ref, 0.0), rtol=1e-5, atol=1e-5)


class TestWindowStmt:
    """A window statement (``row = A[i, 0:m]``) becomes a window struct
    whose reads index through its data pointer and strides."""

    @pytest.mark.skipif(
        __import__("repro.machine.x86_sim", fromlist=["x"]).find_cc() is None,
        reason="needs a C compiler",
    )
    def test_compiled_window_stmt_matches_interpreter(self):
        import numpy as np

        from repro.machine.x86_sim import compile_and_run

        p = _p(
            """
@proc
def rows(n: size, m: size, A: f32[n, m] @ DRAM, B: f32[n, m] @ DRAM):
    for i in seq(0, n):
        row = A[i, 0:m]
        for j in seq(0, m):
            B[i, j] = 2.0 * row[j] + row[m - 1 - j]
"""
        )
        n, m = 3, 5
        a = np.arange(n * m, dtype=np.float32).reshape(n, m) * 0.5 - 3.0
        want = np.zeros((n, m), dtype=np.float32)
        p.interpret(n, m, a, want)

        c = p.c_code()
        assert "struct exo_win_1float row = " in c
        vals = ", ".join(f"{v:.9g}" for v in a.ravel())
        src = (
            c
            + "\n#include <stdio.h>\n"
            + f"static float A[{n * m}] = {{{vals}}};\n"
            + f"static float B[{n * m}];\n"
            + "int main(void) {\n"
            + f"    rows({n}, {m}, A, B);\n"
            + f"    for (int k = 0; k < {n * m}; k++) printf(\"%.9g\\n\", B[k]);\n"
            + "    return 0;\n}\n"
        )
        got = np.array(compile_and_run(src).split(), dtype=np.float32)
        np.testing.assert_array_equal(got.reshape(n, m), want)
