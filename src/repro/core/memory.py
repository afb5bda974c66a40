"""User-definable memories (§2.2, §3.2.1).

A :class:`Memory` describes where a buffer lives and how C code is generated
for it.  Accelerator libraries subclass it to model scratchpads,
accumulators, pinned regions, and so on.  A memory may *refuse* to generate
reads and writes (raising :class:`MemGenError`), which is how hardware
scratchpads that must only be touched by custom instructions are modeled;
the back-end checks enforce this before code generation.

Memories are used as classes, never instantiated: the hooks are
classmethods, matching the paper's ``class ACCUMULATOR(Memory)`` style.
"""

from __future__ import annotations

from .prelude import MemGenError


class Memory:
    """Base class for all memory annotations."""

    #: Can the compiler emit plain C loads/stores into this memory?
    addressable = True

    @classmethod
    def global_(cls) -> str:
        """C definitions that must appear once per file using this memory."""
        return ""

    @classmethod
    def alloc(cls, new_name: str, prim_type: str, shape, srcinfo) -> str:
        """C code for allocating ``new_name`` with element type ``prim_type``
        and extent strings ``shape`` (empty for scalars)."""
        if not shape:
            return f"{prim_type} {new_name};"
        total = " * ".join(f"({s})" for s in shape)
        return f"{prim_type} *{new_name} = ({prim_type}*) malloc({total} * sizeof({prim_type}));"

    @classmethod
    def free(cls, new_name: str, prim_type: str, shape, srcinfo) -> str:
        if not shape:
            return ""
        return f"free({new_name});"

    @classmethod
    def window(cls, basetyp, baseptr: str, indices, strides, srcinfo) -> str:
        """C expression computing the address of an element."""
        if not cls.addressable:
            raise MemGenError(f"{cls.__name__}: memory is not addressable")
        offset = " + ".join(f"({i}) * ({s})" for i, s in zip(indices, strides))
        return f"{baseptr}[{offset or '0'}]"

    @classmethod
    def name(cls) -> str:
        return cls.__name__


class DRAM(Memory):
    """Default memory: heap-allocated system DRAM (malloc/free), the base
    class's C code."""


class StaticMemory(Memory):
    """A statically-allocated (stack/file-scope) memory, for small buffers."""

    @classmethod
    def alloc(cls, new_name, prim_type, shape, srcinfo):
        if not shape:
            return f"{prim_type} {new_name};"
        dims = "".join(f"[{s}]" for s in shape)
        return f"static {prim_type} {new_name}{dims};"

    @classmethod
    def free(cls, new_name, prim_type, shape, srcinfo):
        return ""


__all__ = ["Memory", "DRAM", "StaticMemory", "MemGenError"]
