"""Accelerator configuration state (§2.4, §3.2.3).

Hardware behaviour is often controlled by infrequently-changing configuration
registers.  Exo models these as global structs of *control* values declared
with the ``@config`` decorator:

    @config
    class ConfigLoad:
        src_stride: stride

Config fields are mutable global control state -- the one feature that breaks
the classic static-control-program assumption and motivates the ternary
effect analysis of §5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .prelude import ParseError, sanitize_name
from . import types as T


@dataclass(frozen=True)
class ConfigField:
    name: str
    type: T.Type


class Config:
    """A global struct of configuration variables."""

    def __init__(self, name: str, fields):
        self._name = name
        self._fields: Dict[str, ConfigField] = {}
        for fname, ftype in fields:
            if not isinstance(ftype, T.Type) or ftype.is_numeric():
                raise ParseError(
                    f"config field {name}.{fname} must have a control type"
                )
            self._fields[fname] = ConfigField(fname, ftype)

    def name(self) -> str:
        return self._name

    def fields(self):
        return list(self._fields.values())

    def has_field(self, fname: str) -> bool:
        return fname in self._fields

    def field_type(self, fname: str) -> T.Type:
        return self._fields[fname].type

    def c_struct_name(self) -> str:
        return sanitize_name(self._name)

    def c_globl_def(self) -> str:
        """The C struct definition realizing this config in DRAM."""
        lines = [f"struct {self.c_struct_name()} {{"]
        for f in self._fields.values():
            lines.append(f"    {f.type.ctype()} {sanitize_name(f.name)};")
        lines.append(f"}} {self.c_struct_name()};")
        return "\n".join(lines)

    def __repr__(self):
        return f"<config {self._name}>"


def config_from_class(cls) -> Config:
    """Build a :class:`Config` from an annotated Python class (``@config``)."""
    fields = []
    for fname, ann in getattr(cls, "__annotations__", {}).items():
        typ = ann
        if isinstance(ann, str):
            typ = T.control_by_name(ann)
        if not isinstance(typ, T.Type):
            raise ParseError(
                f"config field {cls.__name__}.{fname}: "
                f"annotation must be a control type, got {ann!r}"
            )
        fields.append((fname, typ))
    if not fields:
        raise ParseError(f"config {cls.__name__} has no fields")
    return Config(cls.__name__, fields)
