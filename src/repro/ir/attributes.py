"""Compile-time attribute values attached to operations.

Attributes are immutable, hashable value objects, mirroring the type system
in :mod:`repro.ir.types`.  The printer/parser round-trips every attribute
kind defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from .diagnostics import IRError
from .types import FloatType, IndexType, IntegerType, Type


@dataclass(frozen=True)
class Attribute:
    """Base class for all attributes."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class IntegerAttr(Attribute):
    """An integer constant with an explicit type, printed ``5 : i32``."""

    value: int
    type: Type = field(default_factory=lambda: IntegerType(64))

    def __post_init__(self):
        if not isinstance(self.type, (IntegerType, IndexType)):
            raise IRError(f"IntegerAttr requires an integer type, got {self.type}")

    def __str__(self) -> str:
        return f"{self.value} : {self.type}"


@dataclass(frozen=True)
class FloatAttr(Attribute):
    """A floating-point constant, printed ``1.5 : f32``."""

    value: float
    type: Type = field(default_factory=lambda: FloatType(64))

    def __post_init__(self):
        if not isinstance(self.type, FloatType):
            raise IRError(f"FloatAttr requires a float type, got {self.type}")

    def __str__(self) -> str:
        text = repr(float(self.value))
        return f"{text} : {self.type}"


@dataclass(frozen=True)
class BoolAttr(Attribute):
    """A boolean constant, printed ``true`` / ``false``."""

    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class StringAttr(Attribute):
    """A string constant, printed with double quotes."""

    value: str

    def __str__(self) -> str:
        escaped = self.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'


@dataclass(frozen=True)
class TypeAttr(Attribute):
    """Wraps a type so it can be stored in an attribute dictionary."""

    value: Type

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class UnitAttr(Attribute):
    """A presence-only marker attribute (printed as a bare name)."""

    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True)
class ArrayAttr(Attribute):
    """An ordered sequence of attributes, printed ``[a, b, c]``."""

    value: Tuple[Attribute, ...]

    def __post_init__(self):
        object.__setattr__(self, "value", tuple(self.value))
        for element in self.value:
            if not isinstance(element, Attribute):
                raise IRError(f"ArrayAttr element {element!r} is not an Attribute")

    def __str__(self) -> str:
        return "[" + ", ".join(str(a) for a in self.value) + "]"

    def __iter__(self):
        return iter(self.value)

    def __len__(self):
        return len(self.value)

    def __getitem__(self, idx):
        return self.value[idx]


@dataclass(frozen=True)
class DictAttr(Attribute):
    """A name→attribute mapping, printed ``{a = 1 : i32, b = "x"}``."""

    value: Tuple[Tuple[str, Attribute], ...]

    def __post_init__(self):
        pairs = tuple(sorted(dict(self.value).items()))
        object.__setattr__(self, "value", pairs)

    def __str__(self) -> str:
        inner = ", ".join(f"{k} = {v}" for k, v in self.value)
        return "{" + inner + "}"

    def as_dict(self):
        return dict(self.value)


# ---------------------------------------------------------------------------
# Interned leaves
# ---------------------------------------------------------------------------
#
# A generated module repeats a handful of distinct booleans, small
# integers and names tens of thousands of times.  Attributes are frozen
# value objects, so every producer (builders, the parser, ``arith``
# constants) shares one instance per value through the functions below.
# Each kind has its own table: ``True``, ``1`` and ``1.0`` hash alike and
# must never answer for one another.  Sharing is an optimisation only —
# equality stays by value — so a table that reaches the limit simply
# starts over.

_MEMO_LIMIT = 1 << 16
_INTEGER_ATTRS: Dict[Tuple[int, Type], IntegerAttr] = {}
_STRING_ATTRS: Dict[str, StringAttr] = {}
_BOOL_ATTRS = (BoolAttr(False), BoolAttr(True))
_I64 = IntegerType(64)
UNIT = UnitAttr()


def bool_attr(value: bool) -> BoolAttr:
    """The shared :class:`BoolAttr` for ``value``."""
    return _BOOL_ATTRS[bool(value)]


def integer_attr(value: int, type: Type = _I64) -> IntegerAttr:
    """The shared :class:`IntegerAttr` for ``(value, type)``."""
    key = (value, type)
    found = _INTEGER_ATTRS.get(key)
    if found is None:
        if len(_INTEGER_ATTRS) >= _MEMO_LIMIT:
            _INTEGER_ATTRS.clear()
        found = _INTEGER_ATTRS[key] = IntegerAttr(value, type)
    return found


def string_attr(value: str) -> StringAttr:
    """The shared :class:`StringAttr` for ``value``."""
    found = _STRING_ATTRS.get(value)
    if found is None:
        if len(_STRING_ATTRS) >= _MEMO_LIMIT:
            _STRING_ATTRS.clear()
        found = _STRING_ATTRS[value] = StringAttr(value)
    return found


def attr_from_python(value) -> Attribute:
    """Convert a plain Python value into the matching attribute.

    Accepts ints, floats, bools, strings, types, lists/tuples, and dicts;
    existing attributes pass through unchanged.  This keeps builder call
    sites concise: ``builder.create(..., attributes={"kind": "SRAM"})``.
    """
    if isinstance(value, Attribute):
        return value
    if isinstance(value, bool):
        return bool_attr(value)
    if isinstance(value, int):
        return integer_attr(value)
    if isinstance(value, float):
        return FloatAttr(value)
    if isinstance(value, str):
        return string_attr(value)
    if isinstance(value, Type):
        return TypeAttr(value)
    if isinstance(value, (list, tuple)):
        return ArrayAttr(tuple(attr_from_python(v) for v in value))
    if isinstance(value, dict):
        return DictAttr(tuple((k, attr_from_python(v)) for k, v in value.items()))
    raise IRError(f"cannot convert {value!r} to an attribute")


def attr_to_python(attr: Attribute):
    """Inverse of :func:`attr_from_python` for scalar-ish attributes."""
    if isinstance(attr, (IntegerAttr, FloatAttr, BoolAttr, StringAttr)):
        return attr.value
    if isinstance(attr, TypeAttr):
        return attr.value
    if isinstance(attr, ArrayAttr):
        return [attr_to_python(a) for a in attr.value]
    if isinstance(attr, DictAttr):
        return {k: attr_to_python(v) for k, v in attr.value}
    if isinstance(attr, UnitAttr):
        return True
    raise IRError(f"cannot convert attribute {attr} to a Python value")
