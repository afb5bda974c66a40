"""The x86 case-study kernels' generated C builds (§7.2).

A syntax-only compile needs an x86 C compiler but no AVX-512 CPU.  The
platform emits no ``#include`` of its own, so the intrinsics header is
forced in with ``-include``.
"""

from __future__ import annotations

import subprocess

import pytest

from repro.apps.x86_conv import conv_exo
from repro.apps.x86_sgemm import sgemm_exo
from repro.machine.x86_sim import find_cc

FLAGS = ["-std=c99", "-mavx512f", "-include", "immintrin.h",
         "-Werror=implicit-function-declaration", "-fsyntax-only", "-x", "c"]


def _syntax_check(cc: str, source: str) -> subprocess.CompletedProcess:
    return subprocess.run([cc, *FLAGS, "-"], input=source,
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def cc():
    cc = find_cc()
    if cc is None:
        pytest.skip("no C compiler found")
    if _syntax_check(cc, "int f(void) { return 0; }\n").returncode != 0:
        pytest.skip(f"{cc} does not accept the x86 AVX-512 flags")
    return cc


@pytest.mark.parametrize("build", [sgemm_exo, conv_exo],
                         ids=["sgemm_exo", "x86_conv_exo"])
def test_generated_c_passes_syntax_check(cc, build):
    r = _syntax_check(cc, build().c_code())
    assert r.returncode == 0, r.stderr
