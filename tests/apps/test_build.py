"""The x86 case-study kernels' generated C builds (§7.2).

A syntax-only compile needs an x86 C compiler but no AVX-512 CPU.  The
intrinsics include and the AVX-512 flag come from
``x86_sim.build_flags``, the same decision ``run_c`` builds with.
"""

from __future__ import annotations

import subprocess

import pytest

from repro.apps.x86_conv import conv_exo
from repro.apps.x86_sgemm import sgemm_exo
from repro.machine.x86_sim import build_flags, find_cc

FLAGS = ["-std=c99", "-Werror=implicit-function-declaration",
         "-fsyntax-only", "-x", "c"]


def _syntax_check(cc: str, source: str) -> subprocess.CompletedProcess:
    includes, flags = build_flags(source)
    return subprocess.run([cc, *FLAGS, *flags, "-"], input=includes + source,
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def cc():
    cc = find_cc()
    if cc is None:
        pytest.skip("no C compiler found")
    if _syntax_check(cc, "void f(void) { _mm512_setzero_ps(); }\n").returncode:
        pytest.skip(f"{cc} does not accept the x86 AVX-512 flags")
    return cc


@pytest.mark.parametrize("build", [sgemm_exo, conv_exo],
                         ids=["sgemm_exo", "x86_conv_exo"])
def test_generated_c_passes_syntax_check(cc, build):
    r = _syntax_check(cc, build().c_code())
    assert r.returncode == 0, r.stderr
