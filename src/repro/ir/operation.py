"""Operations: the unit of IR semantics.

An :class:`Operation` carries a dialect-qualified name, SSA operands and
results, an attribute dictionary, and nested regions.  Concrete ops are
Python subclasses registered by name; building an op via
:meth:`Operation.create` instantiates the registered subclass so dialect
accessors and verifiers are available, while unregistered names fall back to
a generic operation (mirroring MLIR's generic form).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type as PyType

from .attributes import Attribute, attr_from_python, attr_to_python
from .diagnostics import IRError, VerificationError
from .region import Region
from .types import Type
from .values import OpOperand, OpResult, Value, mutated


class OpTrait:
    """Markers that alter generic verification behaviour."""

    #: Regions may not implicitly reference values defined outside the op.
    ISOLATED_FROM_ABOVE = "isolated_from_above"
    #: The op must be the last operation in its block.
    TERMINATOR = "terminator"
    #: The op's single region must contain exactly one block.
    SINGLE_BLOCK = "single_block"


_OP_REGISTRY: Dict[str, PyType["Operation"]] = {}

_new = object.__new__


def register_op(cls: PyType["Operation"]) -> PyType["Operation"]:
    """Class decorator adding ``cls`` to the global op registry."""
    if not cls.op_name:
        raise IRError(f"{cls.__name__} must define op_name")
    existing = _OP_REGISTRY.get(cls.op_name)
    if existing is not None and existing is not cls:
        raise IRError(f"operation {cls.op_name!r} registered twice")
    _OP_REGISTRY[cls.op_name] = cls
    return cls


def lookup_op_class(name: str) -> Optional[PyType["Operation"]]:
    return _OP_REGISTRY.get(name)


def registered_ops() -> Dict[str, PyType["Operation"]]:
    return dict(_OP_REGISTRY)


class Operation:
    """A generic IR operation.

    Subclasses may define:

    * ``op_name`` — the dialect-qualified name (e.g. ``"equeue.launch"``).
    * ``traits`` — a frozenset of :class:`OpTrait` markers.
    * ``verify_op(self)`` — op-specific structural checks.
    """

    op_name: str = ""
    traits: frozenset = frozenset()

    __slots__ = ("name", "operands", "results", "attributes", "regions", "parent")

    def __init__(
        self,
        name: str,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: Optional[Dict[str, Attribute]] = None,
        regions: Sequence[Region] = (),
    ):
        self.name = name
        #: A list once the op has operands; the shared ``()`` before.
        #: Only :meth:`insert_operand`, :meth:`erase_operand` and
        #: :meth:`drop_all_references` change its length.
        self.operands: Sequence[OpOperand] = (
            [OpOperand(self, i, v) for i, v in enumerate(operands)]
            if operands
            else ()
        )
        self.results: Tuple[OpResult, ...] = tuple(
            [OpResult(t, self, i) for i, t in enumerate(result_types)]
        )
        self.attributes: Dict[str, Attribute] = dict(attributes or {})
        self.regions: Tuple[Region, ...] = tuple(regions)
        for region in self.regions:
            region.parent = self
        #: The block containing this op, or None while detached.
        self.parent = None

    # -- construction --------------------------------------------------------

    @classmethod
    def create(
        cls,
        name: str,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: Optional[Dict[str, object]] = None,
        regions: Sequence[Region] = (),
    ) -> "Operation":
        """Create an op, dispatching to the registered subclass for ``name``.

        ``attributes`` values may be plain Python objects; they are converted
        via :func:`attr_from_python`.
        """
        attrs = {k: attr_from_python(v) for k, v in (attributes or {}).items()}
        op_cls = _OP_REGISTRY.get(name, Operation)
        op = object.__new__(op_cls)
        Operation.__init__(op, name, operands, result_types, attrs, regions)
        return op

    def clone(self, value_map: Optional[Dict[Value, Value]] = None) -> "Operation":
        """Deep-copy this op (and nested regions), remapping operands.

        ``value_map`` maps old values to new ones; operands not present in
        the map keep referring to the original values, which is the correct
        behaviour for values defined above the cloned subtree.  The copy
        prints as the original does: results and block arguments keep
        their name hints, blocks their labels.

        A copy is made of parts that already passed through
        :meth:`create` once — the class is the original's, attributes
        are shared :class:`Attribute` instances — so every slot is set
        directly (a generator stamps tens of thousands of ops this way:
        :mod:`repro.generators.systolic`).
        """
        if value_map is None:
            value_map = {}
        op = _new(type(self))
        op.name = self.name
        op.parent = None
        op.attributes = self.attributes.copy()
        operands = op.operands = [] if self.operands else ()
        for index, old in enumerate(self.operands):
            value = old.value
            value = value_map.get(value, value)
            operand = _new(OpOperand)
            operand.owner = op
            operand.index = index
            operand.value = value
            if value.uses:
                value.uses.append(operand)
            else:
                value.uses = [operand]
            operands.append(operand)
        results = []
        for old in self.results:
            result = value_map[old] = _new(OpResult)
            result.type = old.type
            result.uses = ()
            result.name_hint = old.name_hint
            result.owner = op
            result.index = old.index
            results.append(result)
        op.results = tuple(results)
        regions = op.regions = tuple(
            [region.clone(value_map) for region in self.regions]
        )
        for region in regions:
            region.parent = op
        return op

    # -- operand / result access ---------------------------------------------

    @property
    def operand_values(self) -> List[Value]:
        return [o.value for o in self.operands]

    def operand(self, index: int) -> Value:
        return self.operands[index].value

    def set_operand(self, index: int, value: Value) -> None:
        self.operands[index].set(value)

    def insert_operand(self, index: int, value: Value) -> None:
        operand = OpOperand(self, index, value)
        if self.operands:
            self.operands.insert(index, operand)
        else:
            self.operands = [operand]
        for i, existing in enumerate(self.operands):
            existing.index = i
        mutated()

    def append_operand(self, value: Value) -> None:
        self.insert_operand(len(self.operands), value)

    def erase_operand(self, index: int) -> None:
        self.operands[index].drop()
        del self.operands[index]
        for i, existing in enumerate(self.operands):
            existing.index = i
        mutated()

    def result(self, index: int = 0) -> OpResult:
        return self.results[index]

    # -- attribute access ------------------------------------------------------

    def get_attr(self, name: str, default=None):
        """Fetch an attribute converted back to a plain Python value."""
        attr = self.attributes.get(name)
        if attr is None:
            return default
        return attr_to_python(attr)

    def set_attr(self, name: str, value) -> None:
        self.attributes[name] = attr_from_python(value)
        mutated()

    def has_attr(self, name: str) -> bool:
        return name in self.attributes

    # -- region / block access ---------------------------------------------------

    def region(self, index: int = 0) -> Region:
        return self.regions[index]

    @property
    def body(self):
        """The entry block of the first region (common single-region case)."""
        return self.regions[0].blocks[0]

    @property
    def parent_op(self) -> Optional["Operation"]:
        if self.parent is None:
            return None
        region = self.parent.parent
        return region.parent if region is not None else None

    # -- mutation -----------------------------------------------------------------

    def erase(self) -> None:
        """Remove this op from its block and drop all operand uses.

        The op must have no remaining uses of its results.  It is dead
        afterwards (:meth:`drop_all_references`).
        """
        for result in self.results:
            if result.has_uses:
                raise IRError(
                    f"cannot erase {self.name}: result still has "
                    f"{result.num_uses} use(s)"
                )
        self.drop_all_references()
        if self.parent is not None:
            self.parent.remove(self)

    def drop_all_references(self) -> None:
        """Drop operand uses of this op and, recursively, of nested ops.

        A dropped op is dead, so every back-reference inside its subtree
        goes too (result -> op, region -> op, block -> region, argument
        -> block, nested op -> block): what is left is a tree that
        reference counting frees the moment the caller lets go.  Nothing
        cyclic is left for the collector — or for ``gc.freeze()`` to
        park as garbage (:mod:`repro.permanent` freezes a program
        right after its build, lowering passes included, and a bounded
        program cache drops a whole module this way).  One mutation.
        """
        self._drop_tree()
        mutated()

    def _drop_tree(self) -> None:
        for operand in self.operands:
            operand.value.uses.remove(operand)
        self.operands = ()
        for result in self.results:
            result.owner = None
        for region in self.regions:
            region.parent = None
            for block in region.blocks:
                block.parent = None
                for argument in block.arguments:
                    argument.owner = None
                for op in block.ops:
                    op.parent = None
                    op._drop_tree()

    def detach(self) -> "Operation":
        """Remove from the parent block without dropping references."""
        if self.parent is not None:
            self.parent.remove(self)
        return self

    def replace_all_uses_with(self, replacements: Sequence[Value]) -> None:
        if len(replacements) != len(self.results):
            raise IRError("replacement count mismatch")
        for result, new in zip(self.results, replacements):
            result.replace_all_uses_with(new)

    # -- traversal -------------------------------------------------------------------

    def walk(self, reverse: bool = False) -> Iterator["Operation"]:
        """Pre-order traversal of this op and every nested op."""
        yield self
        for region in self.regions:
            for block in region.blocks:
                ops = reversed(block.ops) if reverse else list(block.ops)
                for op in ops:
                    yield from op.walk(reverse=reverse)

    # -- verification -------------------------------------------------------------------

    def verify_op(self) -> None:
        """Op-specific checks; subclasses override."""

    def expect_num_operands(self, count: int) -> None:
        if len(self.operands) != count:
            raise VerificationError(
                f"expected {count} operands, got {len(self.operands)}", self
            )

    def expect_num_results(self, count: int) -> None:
        if len(self.results) != count:
            raise VerificationError(
                f"expected {count} results, got {len(self.results)}", self
            )

    def expect_num_regions(self, count: int) -> None:
        if len(self.regions) != count:
            raise VerificationError(
                f"expected {count} regions, got {len(self.regions)}", self
            )

    def expect_attr(self, name: str) -> None:
        if name not in self.attributes:
            raise VerificationError(f"missing required attribute {name!r}", self)

    # -- misc ----------------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"<Operation {self.name} ({len(self.operands)} operands)>"
