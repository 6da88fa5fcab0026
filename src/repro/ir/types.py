"""The IR type system.

Types are immutable value objects: two types compare equal iff they have the
same class and parameters, so they can be freely shared, hashed, and used as
dictionary keys.  This mirrors MLIR's uniqued type storage without requiring
an explicit context object.

Builtin types cover the subset of MLIR the paper's pipeline touches:
integers, floats, ``index``, ``none``, function types, and the shaped
``memref``/``tensor`` container types.  Dialects (e.g. EQueue) define their
own types by subclassing :class:`DialectType` and registering a mnemonic so
the textual parser can round-trip them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple, Type as PyType

from .diagnostics import IRError

# Shape dimensions use -1 for a dynamic extent, as in MLIR's `?`.
DYNAMIC = -1


@dataclass(frozen=True)
class Type:
    """Base class for all IR types."""

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        raise NotImplementedError


_INTEGER_TYPES: Dict[int, "IntegerType"] = {}


@dataclass(frozen=True)
class IntegerType(Type):
    """An integer type of arbitrary bit width, e.g. ``i32``.

    Interned: ``IntegerType(32) is IntegerType(32)``, so the thousands
    of ``i1``/``i32`` mentions in a module share one object.
    """

    width: int

    def __new__(cls, width: int = 0):
        # ``width=0`` is unpickling's argument-less ``__new__``: never
        # interned, so it gets a fresh object to restore state into.
        return _INTEGER_TYPES.get(width) or object.__new__(cls)

    def __post_init__(self):
        if self.width <= 0:
            raise IRError(f"integer width must be positive, got {self.width}")
        _INTEGER_TYPES.setdefault(self.width, self)

    def __str__(self) -> str:
        return f"i{self.width}"


@dataclass(frozen=True)
class IndexType(Type):
    """The platform-sized integer used for loop induction variables
    (a single shared instance)."""

    _shared: ClassVar[Optional["IndexType"]] = None

    def __new__(cls):
        if cls._shared is None:
            cls._shared = object.__new__(cls)
        return cls._shared

    def __str__(self) -> str:
        return "index"


@dataclass(frozen=True)
class FloatType(Type):
    """An IEEE float type, e.g. ``f32`` or ``f64``."""

    width: int

    def __post_init__(self):
        if self.width not in (16, 32, 64):
            raise IRError(f"unsupported float width {self.width}")

    def __str__(self) -> str:
        return f"f{self.width}"


@dataclass(frozen=True)
class NoneType(Type):
    """The unit type for ops that produce no meaningful value."""

    def __str__(self) -> str:
        return "none"


@dataclass(frozen=True)
class FunctionType(Type):
    """A function signature ``(inputs) -> (results)``."""

    inputs: Tuple[Type, ...]
    results: Tuple[Type, ...]

    def __str__(self) -> str:
        ins = ", ".join(str(t) for t in self.inputs)
        if len(self.results) == 1:
            return f"({ins}) -> {self.results[0]}"
        outs = ", ".join(str(t) for t in self.results)
        return f"({ins}) -> ({outs})"


def _shape_str(shape: Tuple[int, ...]) -> str:
    return "".join(("?" if d == DYNAMIC else str(d)) + "x" for d in shape)


@dataclass(frozen=True)
class ShapedType(Type):
    """Common base for container types with a shape and element type."""

    shape: Tuple[int, ...]
    element_type: Type

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(self.shape))
        for dim in self.shape:
            if dim != DYNAMIC and dim < 0:
                raise IRError(f"invalid dimension {dim}")

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def num_elements(self) -> int:
        """Total element count; raises for dynamic shapes."""
        total = 1
        for dim in self.shape:
            if dim == DYNAMIC:
                raise IRError("cannot count elements of a dynamic shape")
            total *= dim
        return total

    @property
    def has_static_shape(self) -> bool:
        return DYNAMIC not in self.shape


@dataclass(frozen=True)
class MemRefType(ShapedType):
    """A reference to a mutable buffer, e.g. ``memref<4x4xi32>``.

    EQueue buffers produced by ``equeue.alloc`` are memref-typed so that
    affine ``load``/``store`` and EQueue ``read``/``write`` can address the
    same values.
    """

    def __str__(self) -> str:
        return f"memref<{_shape_str(self.shape)}{self.element_type}>"


@dataclass(frozen=True)
class TensorType(ShapedType):
    """An immutable value-semantics tensor, e.g. ``tensor<4x4xf32>``."""

    def __str__(self) -> str:
        return f"tensor<{_shape_str(self.shape)}{self.element_type}>"


# ---------------------------------------------------------------------------
# Dialect type registration
# ---------------------------------------------------------------------------

_DIALECT_TYPES: Dict[str, PyType["DialectType"]] = {}


@dataclass(frozen=True)
class DialectType(Type):
    """Base class for dialect-defined types, printed as ``!dialect.name``.

    Subclasses set :attr:`dialect` and :attr:`mnemonic` class variables and
    are automatically registered for parsing.
    """

    dialect: ClassVar[str] = ""
    mnemonic: ClassVar[str] = ""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.dialect and cls.mnemonic:
            _DIALECT_TYPES[f"{cls.dialect}.{cls.mnemonic}"] = cls
            # A re-registered mnemonic must not keep resolving to
            # instances of the class it replaced.
            _SPELLINGS.clear()

    def __str__(self) -> str:
        return f"!{self.dialect}.{self.mnemonic}"


def lookup_dialect_type(qualified: str) -> PyType[DialectType]:
    """Return the registered class for ``dialect.mnemonic``; raise if unknown."""
    try:
        return _DIALECT_TYPES[qualified]
    except KeyError:
        raise IRError(f"unknown dialect type !{qualified}") from None


def registered_dialect_types() -> Dict[str, PyType[DialectType]]:
    """A copy of the dialect-type registry (used by the parser and tests)."""
    return dict(_DIALECT_TYPES)


# ---------------------------------------------------------------------------
# Spelling -> type: the inverse of ``str(type)``
# ---------------------------------------------------------------------------

_SCALAR_RE = re.compile(r"([if])(\d+)")
_SHAPED_RE = re.compile(r"(memref|tensor)<((?:(?:\d+|\?)x)*)(.*)>", re.S)
_SPELLINGS: Dict[str, Type] = {}


def type_from_spelling(text: str) -> Type:
    """The type that prints as ``text``, e.g. ``memref<4x?xi32>``.

    Covers every type but function types, which the parser assembles from
    tokens.  Types are frozen value objects, so each distinct spelling is
    built once and shared.  Only successes are remembered: a malformed or
    not-yet-registered spelling raises :class:`IRError` on every call.
    """
    found = _SPELLINGS.get(text)
    if found is None:
        found = _SPELLINGS[text] = _build_type(text)
    return found


def _build_type(text: str) -> Type:
    if text == "index":
        return IndexType()
    if text == "none":
        return NoneType()
    if text[:1] == "!":
        return lookup_dialect_type(text[1:])()
    scalar = _SCALAR_RE.fullmatch(text)
    if scalar is not None:
        cls = IntegerType if scalar.group(1) == "i" else FloatType
        return cls(int(scalar.group(2)))
    shaped = _SHAPED_RE.fullmatch(text)
    if shaped is None:
        raise IRError(f"expected a type, found {text!r}")
    head, dims, element = shaped.groups()
    if element.count("<") > element.count(">"):
        raise IRError("unbalanced '<' in type literal")
    shape = tuple(DYNAMIC if d == "?" else int(d) for d in dims.split("x")[:-1])
    cls = MemRefType if head == "memref" else TensorType
    return cls(shape, type_from_spelling(element))


# Convenience singletons for the common cases.
i1 = IntegerType(1)
i8 = IntegerType(8)
i32 = IntegerType(32)
i64 = IntegerType(64)
f32 = FloatType(32)
f64 = FloatType(64)
index = IndexType()
none = NoneType()
