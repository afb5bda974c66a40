"""End-to-end functional verification of every case-study kernel (§7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.gemmini_conv import conv_exo as gconv_exo, conv_oldlib as gconv_old
from repro.apps.gemmini_matmul import (
    matmul_base,
    matmul_exo,
    matmul_exo_blocked,
    matmul_oldlib,
)
from repro.apps.x86_conv import conv_exo as xconv_exo
from repro.apps.x86_sgemm import make_microkernel, sgemm_base, sgemm_exo


def _mm_ref(A, B):
    return (A.astype(np.int32) @ B.astype(np.int32)).astype(np.int8)


class TestGemminiMatmul:
    @pytest.mark.parametrize(
        "builder",
        [matmul_exo, matmul_oldlib, lambda: matmul_exo_blocked(2, 2)],
        ids=["exo", "oldlib", "blocked"],
    )
    def test_matches_reference(self, builder):
        p = builder()
        N = M = K = 32 if p.name() != "matmul_blocked" else 64
        rng = np.random.default_rng(7)
        A = rng.integers(0, 3, (N, K)).astype(np.int8)
        B = rng.integers(0, 3, (K, M)).astype(np.int8)
        C = np.zeros((N, M), np.int8)
        p.interpret(N, M, K, A, B, C)
        np.testing.assert_array_equal(C, _mm_ref(A, B))

    def test_base_algorithm(self):
        N = M = K = 16
        rng = np.random.default_rng(1)
        A = rng.integers(0, 4, (N, K)).astype(np.int8)
        B = rng.integers(0, 4, (K, M)).astype(np.int8)
        C = np.zeros((N, M), np.int8)
        matmul_base.interpret(N, M, K, A, B, C)
        np.testing.assert_array_equal(C, _mm_ref(A, B))

    def test_relu_variant(self):
        p = matmul_exo_blocked(2, 2, relu_act=True)
        N = M = K = 32
        rng = np.random.default_rng(2)
        A = rng.integers(-2, 3, (N, K)).astype(np.int8)
        B = rng.integers(-2, 3, (K, M)).astype(np.int8)
        C = np.zeros((N, M), np.int8)
        p.interpret(N, M, K, A, B, C)
        ref = np.maximum(A.astype(np.int32) @ B.astype(np.int32), 0).astype(np.int8)
        np.testing.assert_array_equal(C, ref)

    def test_instruction_mix(self):
        from repro.core import ast as IR

        p = matmul_exo()
        names = {
            s.proc.name
            for s in IR.walk_stmts(p.ir().body)
            if isinstance(s, IR.Call)
        }
        assert {
            "config_ld", "config_ld_b", "config_st",
            "do_ld_i8", "do_ld_i8_b", "matmul_acc_i8", "zero_acc_i32",
        } <= names


class TestX86Sgemm:
    def test_microkernel_semantics(self):
        algo, sched = make_microkernel(6, 4)
        rng = np.random.default_rng(3)
        K = 10
        A = (rng.random((6, K)) - 0.5).astype(np.float32)
        B = (rng.random((K, 64)) - 0.5).astype(np.float32)
        C1 = (rng.random((6, 64)) - 0.5).astype(np.float32)
        C2 = C1.copy()
        algo.interpret(K, A, B, C1)
        sched.interpret(K, A, B, C2)
        np.testing.assert_allclose(C1, C2, atol=1e-4)
        np.testing.assert_allclose(C1, C1 * 0 + (C2 - A @ B) + A @ B, atol=1e-3)

    @pytest.mark.parametrize("mr,nv", [(6, 4), (4, 2), (2, 1)])
    def test_metaprogrammed_variants(self, mr, nv):
        """The paper's edge-case micro-kernels: one schedule metaprogram
        instantiates every register-tile shape."""
        algo, sched = make_microkernel(mr, nv)
        rng = np.random.default_rng(4)
        K = 5
        nw = nv * 16
        A = (rng.random((mr, K)) - 0.5).astype(np.float32)
        B = (rng.random((K, nw)) - 0.5).astype(np.float32)
        C = np.zeros((mr, nw), np.float32)
        sched.interpret(K, A, B, C)
        np.testing.assert_allclose(C, A @ B, atol=1e-3)

    def test_full_sgemm(self):
        p = sgemm_exo(6, 4)
        M, N, K = 18, 128, 7
        rng = np.random.default_rng(5)
        A = (rng.random((M, K)) - 0.5).astype(np.float32)
        B = (rng.random((K, N)) - 0.5).astype(np.float32)
        C = np.zeros((M, N), np.float32)
        p.interpret(M, N, K, A, B, C)
        np.testing.assert_allclose(C, A @ B, atol=1e-3)

    def test_outer_kernel_calls_microkernel(self):
        from repro.core import ast as IR

        p = sgemm_exo(6, 4)
        calls = [s for s in IR.walk_stmts(p.ir().body) if isinstance(s, IR.Call)]
        assert len(calls) == 1
        assert calls[0].proc.name.startswith("ukernel_6x64")


class TestConvs:
    def _x86_ref(self, inp, w, OY, OX):
        ref = None
        for ky in range(3):
            for kx in range(3):
                part = np.einsum(
                    "byxi,io->byxo",
                    inp[:, ky:ky + OY, kx:kx + OX, :], w[ky, kx]
                )
                ref = part if ref is None else ref + part
        return np.maximum(ref, 0)

    def test_x86_conv(self):
        p = xconv_exo(4, 2)
        B, OY, OX, OC, IC = 2, 3, 8, 32, 8
        rng = np.random.default_rng(6)
        inp = (rng.random((B, OY + 2, OX + 2, IC)) - 0.5).astype(np.float32)
        w = (rng.random((3, 3, IC, OC)) - 0.5).astype(np.float32)
        out = np.zeros((B, OY, OX, OC), np.float32)
        p.interpret(B, OY, OX, OC, IC, inp, w, out)
        np.testing.assert_allclose(out, self._x86_ref(inp, w, OY, OX), atol=1e-3)

    @pytest.mark.parametrize("builder", [
        lambda: gconv_exo(2, 2), gconv_old
    ], ids=["exo", "oldlib"])
    def test_gemmini_conv(self, builder):
        p = builder()
        B, OY, OX, OC, IC = 1, 2, 32, 32, 16
        rng = np.random.default_rng(8)
        inp = rng.integers(0, 3, (B, OY + 2, OX + 2, IC)).astype(np.int8)
        w = rng.integers(-2, 3, (3, 3, IC, OC)).astype(np.int8)
        out = np.zeros((B, OY, OX, OC), np.int8)
        p.interpret(B, OY, OX, OC, IC, inp, w, out)
        ref = None
        for ky in range(3):
            for kx in range(3):
                part = np.einsum(
                    "byxi,io->byxo",
                    inp[:, ky:ky + OY, kx:kx + OX, :].astype(np.int32),
                    w[ky, kx].astype(np.int32),
                )
                ref = part if ref is None else ref + part
        np.testing.assert_array_equal(out, np.maximum(ref, 0).astype(np.int8))


class TestDerivationProperties:
    def test_exo_and_oldlib_share_provenance(self):
        """Both schedules derive from the same base algorithm, so call_eqv
        between their pieces is legal -- the provenance lattice connects
        them through matmul_base."""
        a = matmul_exo()
        b = matmul_oldlib()
        from repro.scheduling.eqv import eqv_pollution

        pol = eqv_pollution(a._eqv, b._eqv)
        assert isinstance(pol, frozenset)

    def test_schedule_counts_are_dozens_not_hundreds(self):
        from repro.api import SCHEDULE_OP_COUNT

        matmul_exo.cache_clear()
        SCHEDULE_OP_COUNT[0] = 0
        matmul_exo()
        assert 5 < SCHEDULE_OP_COUNT[0] < 60


def _matmul_exo_patterns():
    """``matmul_exo``'s derivation steered purely by pattern strings (the
    pre-cursor style)."""
    from repro.apps import gemmini_matmul as gm

    p = matmul_base.rename("matmul_exo")
    p = p.split("for i in _: _", 16, "io", "ii", tail="perfect")
    p = p.split("for j in _: _", 16, "jo", "ji", tail="perfect")
    p = p.reorder("for ii in _: _")
    p = p.expand_dim("res : _", "16", "ji")
    p = p.expand_dim("res : _", "16", "ii")
    p = p.lift_alloc("res : _", 2)
    p = p.fission_after("res[_] = 0.0", 2)
    p = p.fission_after("for k in _: _", 2)
    p = p.split("for k in _: _", 16, "ko", "ki", tail="perfect")
    p = p.reorder("for ji in _: _ #1")
    p = p.reorder("for ii in _: _ #1")
    p = p.stage_mem("for ii in _: _ #1", "A[16*io:16*io+16, 16*ko:16*ko+16]", "a")
    p = p.stage_mem("for ii in _: _ #1", "B[16*ko:16*ko+16, 16*jo:16*jo+16]", "b")
    p = gm._hoist_configs(p)
    p = gm._select_instrs(p, fused=False)
    return gm._set_memories(p)


class TestCursorPortByteIdentical:
    """The cursor-style app schedules must produce byte-identical C to
    their original pattern-string derivations."""

    def test_gemmini_matmul_exo(self):
        assert matmul_exo().c_code() == _matmul_exo_patterns().c_code()
