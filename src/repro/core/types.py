"""The Exo type system.

Exo distinguishes *control* values from *data* values (§3.1 of the paper):

* **Control types** -- ``int``, ``bool``, ``size``, ``index``, ``stride`` --
  are restricted to quasi-affine arithmetic so the effect analysis can reason
  about them precisely.
* **Data types** -- the abstract numeric type ``R`` plus concrete precisions
  ``f16/f32/f64/i8/i32`` -- are unrestricted floating/fixed point values
  stored in scalars or (dependently sized, windowable) tensors.

Types are represented as small immutable objects.  Scalar types are
singletons; tensor and window types carry their shape as IR expressions (the
dependent part) and are constructed per use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .prelude import InternalError


class Type:
    """Base class of all Exo types."""

    def is_numeric(self) -> bool:
        """True for data types: scalars of numeric type and tensors."""
        return False

    def is_real_scalar(self) -> bool:
        """True for scalar (non-tensor) data types."""
        return False

    def is_tensor_or_window(self) -> bool:
        return False

    def is_win(self) -> bool:
        return False

    def is_indexable(self) -> bool:
        """True for control types usable in index arithmetic."""
        return False

    def is_sizeable(self) -> bool:
        """True for control types usable as an array extent."""
        return False

    def is_bool(self) -> bool:
        return False

    def is_stridable(self) -> bool:
        return False

    def basetype(self) -> "Type":
        """The underlying scalar type (identity for scalars)."""
        return self

    def shape(self) -> list:
        """The list of extent expressions ([] for scalars)."""
        return []

    def ctype(self) -> str:
        raise InternalError(f"no C type for {self!r}")


class _ScalarData(Type):
    """A scalar data type, with its C type and numpy scalar type.  Instances
    are singletons."""

    _name: str = "?"
    _ctype: str = "?"
    _dtype: type  # the numpy scalar type
    #: precedence used when joining precisions (higher wins)
    _rank: int = 0

    def is_numeric(self):
        return True

    def is_real_scalar(self):
        return True

    def ctype(self):
        return self._ctype

    def dtype(self):
        """The numpy scalar type holding values of this type."""
        return self._dtype

    def __repr__(self):
        return self._name

    def __str__(self):
        return self._name


class RType(_ScalarData):
    """The abstract numeric type ``R`` -- precision not yet chosen."""

    _name = "R"
    _ctype = "float"
    _rank = 0
    _dtype = np.float32


class F16(_ScalarData):
    _name = "f16"
    _ctype = "_Float16"
    _rank = 1
    _dtype = np.float16


class F32(_ScalarData):
    _name = "f32"
    _ctype = "float"
    _rank = 2
    _dtype = np.float32


class F64(_ScalarData):
    _name = "f64"
    _ctype = "double"
    _rank = 3
    _dtype = np.float64


class INT8(_ScalarData):
    _name = "i8"
    _ctype = "int8_t"
    _rank = 1
    _dtype = np.int8


class INT32(_ScalarData):
    _name = "i32"
    _ctype = "int32_t"
    _rank = 2
    _dtype = np.int32


class _Control(Type):
    _name = "?"
    _ctype = "int_fast32_t"

    def ctype(self):
        return self._ctype

    def __repr__(self):
        return self._name

    def __str__(self):
        return self._name


class IntType(_Control):
    """An arbitrary (possibly negative) integer control value."""

    _name = "int"

    def is_indexable(self):
        return True


class IndexType(_Control):
    """An integer used for loop counters and array indexing."""

    _name = "index"

    def is_indexable(self):
        return True


class SizeType(_Control):
    """A strictly positive integer; array extents and trip counts."""

    _name = "size"

    def is_indexable(self):
        return True

    def is_sizeable(self):
        return True


class BoolType(_Control):
    _name = "bool"
    _ctype = "bool"

    def is_bool(self):
        return True


class StrideType(_Control):
    """The stride (in elements) of one dimension of a buffer or window."""

    _name = "stride"

    def is_stridable(self):
        return True


# Singleton instances -----------------------------------------------------

R = RType()
f16 = F16()
f32 = F32()
f64 = F64()
i8 = INT8()
i32 = INT32()
int_t = IntType()
index_t = IndexType()
size_t = SizeType()
bool_t = BoolType()
stride_t = StrideType()

#: All concrete scalar precisions (excludes the abstract ``R``).
CONCRETE_SCALARS = (f16, f32, f64, i8, i32)

_SCALAR_BY_NAME = {
    "R": R,
    "f16": f16,
    "f32": f32,
    "f64": f64,
    "i8": i8,
    "i32": i32,
}

_CONTROL_BY_NAME = {
    "int": int_t,
    "index": index_t,
    "size": size_t,
    "bool": bool_t,
    "stride": stride_t,
}


def scalar_by_name(name: str):
    return _SCALAR_BY_NAME.get(name)


def control_by_name(name: str):
    return _CONTROL_BY_NAME.get(name)


@dataclass(frozen=True)
class Tensor(Type):
    """A dense tensor of scalar data.

    ``hi`` is a list of extent *expressions* (IR ``Expr`` nodes), making the
    type dependent.  ``is_window`` marks window (slice-view) types, written
    ``[R][n, m]`` in the surface syntax: windows alias another buffer and
    carry runtime strides.
    """

    basetype_: Any  # a scalar data Type
    hi: tuple  # tuple of Expr
    is_window: bool = False

    def __post_init__(self):
        if not self.basetype_.is_real_scalar():
            raise InternalError("tensor base type must be a scalar data type")
        if len(self.hi) == 0:
            raise InternalError("tensor must have at least one dimension")

    def is_numeric(self):
        return True

    def is_tensor_or_window(self):
        return True

    def is_win(self):
        return self.is_window

    def basetype(self):
        return self.basetype_

    def shape(self):
        return list(self.hi)

    def as_window(self) -> "Tensor":
        return Tensor(self.basetype_, self.hi, True)

    def __str__(self):
        dims = ", ".join(str(e) for e in self.hi)
        if self.is_window:
            return f"[{self.basetype_}][{dims}]"
        return f"{self.basetype_}[{dims}]"


def join_precision(a: Type, b: Type):
    """The common precision of two scalar types, or None if incompatible.

    ``R`` joins with anything (it is the not-yet-specialized type).  Mixing
    a float precision with an int precision is forbidden (§3.1.1); the
    backend inserts casts only *within* a family, just before writes.
    """
    a, b = a.basetype(), b.basetype()
    if isinstance(a, RType):
        return b
    if isinstance(b, RType):
        return a
    a_float = isinstance(a, (F16, F32, F64))
    b_float = isinstance(b, (F16, F32, F64))
    if a_float != b_float:
        return None
    return a if a._rank >= b._rank else b
