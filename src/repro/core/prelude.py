"""Foundational utilities shared by every compiler stage.

This module defines:

* :class:`Sym` -- globally unique identifiers.  Every binder in the IR gets
  its own ``Sym`` so that scheduling rewrites never capture names by
  accident.  Two ``Sym`` objects compare equal only if they are the *same*
  binder, even when they share a human-readable name.
* :class:`SrcInfo` -- source locations threaded through the IR for error
  reporting.
* The exception hierarchy used across the frontend, the scheduler, and the
  backends.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


class ExoError(Exception):
    """Base class for every user-facing error raised by this library.

    ``witness``, when given, is a zero-argument callable returning the
    complete message -- typically one that embeds a counterexample the
    solver must search for.  It runs the first time the error is
    formatted, and its text then replaces ``args``; an error that is
    caught and never read (a pruned autotuning candidate) never pays for
    it."""

    def __init__(self, *args, witness=None):
        super().__init__(*args)
        self._witness = witness

    def __str__(self):
        if self._witness is not None:
            self.args = (self._witness(),)
            self._witness = None
        return super().__str__()

    def __reduce__(self):
        str(self)  # a witness closure does not pickle; its text does
        return super().__reduce__()


class ParseError(ExoError):
    """Raised when the Python-embedded DSL cannot be parsed."""


class TypeCheckError(ExoError):
    """Raised when a procedure fails front-end type checking."""


class BoundsCheckError(ExoError):
    """Raised when a buffer access cannot be proven in-bounds."""


class AssertCheckError(BoundsCheckError):
    """Raised when a call's asserted preconditions cannot be proven.

    Subclasses :class:`BoundsCheckError` for backward compatibility:
    precondition failures were historically reported as bounds errors."""


class SchedulingError(ExoError):
    """Raised when a scheduling rewrite is malformed or unsafe."""


class MemGenError(ExoError):
    """Raised by :class:`~repro.core.memory.Memory` hooks to forbid codegen."""


class BackendError(ExoError):
    """Raised by back-end checks (precision / memory consistency)."""


class InternalError(ExoError):
    """An invariant of the compiler itself was violated (a bug in repro)."""


_sym_counter = itertools.count(1)


class Sym:
    """A unique identifier.

    ``Sym('x') != Sym('x')``: identity is per-object, not per-name, so
    equality and hashing are ``object``'s own (no Python-level dunders on
    this hot path).  Use :meth:`copy` to mint a fresh binder with the same
    display name.
    """

    __slots__ = ("name", "id")

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise InternalError(f"invalid Sym name: {name!r}")
        self.name = name
        self.id = next(_sym_counter)

    def copy(self) -> "Sym":
        """Return a fresh ``Sym`` sharing this one's display name."""
        return Sym(self.name)

    def __repr__(self):
        return f"{self.name}#{self.id}"

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class SrcInfo:
    """A source location: file, line, column."""

    filename: str = "<unknown>"
    lineno: int = 0
    col_offset: int = 0

    def __str__(self):
        return f"{self.filename}:{self.lineno}:{self.col_offset}"


#: Placeholder location for synthesized IR nodes.
null_srcinfo = SrcInfo()


@dataclass
class _FreshNamer:
    """Generates C-safe, collision-free names for a set of :class:`Sym`."""

    used: set = field(default_factory=set)
    assigned: dict = field(default_factory=dict)

    def name(self, sym: Sym) -> str:
        if sym in self.assigned:
            return self.assigned[sym]
        base = sanitize_name(sym.name)
        candidate = base
        suffix = 0
        while candidate in self.used:
            suffix += 1
            candidate = f"{base}_{suffix}"
        self.used.add(candidate)
        self.assigned[sym] = candidate
        return candidate


_C_KEYWORDS = frozenset(
    """auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    _Bool _Complex _Imaginary""".split()
)


def sanitize_name(name: str) -> str:
    """Turn an arbitrary identifier into a valid C identifier."""
    out = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if not out or out[0].isdigit():
        out = "_" + out
    if out in _C_KEYWORDS:
        out = out + "_"
    return out
