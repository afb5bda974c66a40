"""repro -- a from-scratch reproduction of *Exocompilation for Productive
Programming of Hardware Accelerators* (PLDI 2022).

The package provides:

* the Exo language embedded in Python (``@proc`` / ``@instr`` / ``@config``),
* user-definable memories (:class:`Memory`, :class:`DRAM`),
* rewrite-based scheduling on :class:`Procedure`,
* a C code generator, a reference interpreter,
* hardware libraries for the Gemmini accelerator and x86/AVX-512
  (:mod:`repro.platforms`), and
* machine simulators that reproduce the paper's evaluation
  (:mod:`repro.machine`).
"""

from . import analysis, obs
from .api import Procedure, compile_procs, config, instr, proc
from .core import types as _T
from .core.builtins import fmax, fmin, relu, select, sqrt
from .core.configs import Config
from .core.memory import DRAM, Memory, MemGenError, StaticMemory
from .core.prelude import (
    AssertCheckError,
    BoundsCheckError,
    ExoError,
    ParseError,
    SchedulingError,
    TypeCheckError,
)
from .scheduling.cursors import (
    BlockCursor,
    Cursor,
    ExprCursor,
    GapCursor,
    InvalidCursorError,
    StmtCursor,
)

# scalar and control types, re-exported for use in annotations
R = _T.R
f16 = _T.f16
f32 = _T.f32
f64 = _T.f64
i8 = _T.i8
i32 = _T.i32
size = _T.size_t
index = _T.index_t
bool_ = _T.bool_t
stride = _T.stride_t

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "obs",
    "Procedure",
    "proc",
    "instr",
    "config",
    "Config",
    "Memory",
    "DRAM",
    "StaticMemory",
    "MemGenError",
    "compile_procs",
    "ExoError",
    "ParseError",
    "TypeCheckError",
    "BoundsCheckError",
    "AssertCheckError",
    "SchedulingError",
    "Cursor",
    "StmtCursor",
    "BlockCursor",
    "ExprCursor",
    "GapCursor",
    "InvalidCursorError",
    "relu",
    "select",
    "fmin",
    "fmax",
    "sqrt",
    "R",
    "f16",
    "f32",
    "f64",
    "i8",
    "i32",
    "size",
    "index",
    "bool_",
    "stride",
]
