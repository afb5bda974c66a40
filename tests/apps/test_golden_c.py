"""The app kernels' generated C, pinned byte for byte.

A refactor of the rewrite machinery must not change what any paper
kernel compiles to.  Each digest is the sha256 of ``c_code()``; when a
change to the code generator or a schedule is meant to alter the C,
re-record the digest and say why in the change.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.apps import gemmini_conv, x86_conv
from repro.apps.gemmini_matmul import (matmul_exo, matmul_exo_blocked,
                                       matmul_oldlib)
from repro.apps.x86_sgemm import (build_sgemm_candidate, sgemm_exo,
                                  sgemm_tune_base)


def _candidate(mr, nv, vectorize):
    return lambda: build_sgemm_candidate(sgemm_tune_base(), mr, nv, vectorize)


# the relu and plain Gemmini stores share one C template, so both blocked
# variants emit the same C
GOLDEN = [
    ("matmul_exo", matmul_exo,
     "ce8a86535f9f6288e90376ca045c06165df39dccc520013b611b3facfdab1f55"),
    ("matmul_oldlib", matmul_oldlib,
     "47f2e565f7ee06211eeadf239f2f011d581dd484e7577b1d60ab769c4e34f775"),
    ("matmul_exo_blocked_4x4", lambda: matmul_exo_blocked(4, 4),
     "501a2f3dd8e067a6129fe70c427b9b875092fc1bd431f1c400cce5bc6de208b7"),
    ("matmul_exo_blocked_4x4_relu", lambda: matmul_exo_blocked(4, 4, True),
     "501a2f3dd8e067a6129fe70c427b9b875092fc1bd431f1c400cce5bc6de208b7"),
    ("gemmini_conv_exo", gemmini_conv.conv_exo,
     "a9330b941421e1be62a8a44688343b5fec8564c98ceb0abf1a5007e3231f8009"),
    ("gemmini_conv_oldlib", gemmini_conv.conv_oldlib,
     "c73ef901cc9eb842ae2ac3fd67418dafcf130246cea2643461646151dc35e14e"),
    ("x86_conv_exo", x86_conv.conv_exo,
     "dcfc5da9c82f3d54352d0753f645ae2f1e5213fa6329d1bac46a2318e7a2b8f4"),
    ("sgemm_exo", sgemm_exo,
     "47cf1c40ec36cc262505b98828cbe2a225bcc524de30869dd831834ba825e187"),
    ("sgemm_candidate_6x4_vec", _candidate(6, 4, True),
     "4b379131fdf1c20c2abcde3abec2214befa4332990630be4bbe94caba09844ee"),
    ("sgemm_candidate_4x2_vec", _candidate(4, 2, True),
     "d077540be210f7b46f9e1c1eaa256f1e31802d92a96763bee01b6a2e84af3f24"),
    ("sgemm_candidate_2x1_scalar", _candidate(2, 1, False),
     "aed0d82fd7a51ae44f4a2717ec5e53c0193c64525a106194199265b994a4fac2"),
]


@pytest.mark.parametrize("build,digest", [g[1:] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_generated_c_is_unchanged(build, digest):
    assert hashlib.sha256(build().c_code().encode()).hexdigest() == digest
