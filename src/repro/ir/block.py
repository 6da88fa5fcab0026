"""Blocks: sequences of operations with SSA arguments."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence

from .diagnostics import IRError
from .types import Type
from .values import BlockArgument, mutated

if TYPE_CHECKING:  # pragma: no cover
    from .operation import Operation
    from .region import Region


class Block:
    """An ordered list of operations plus typed block arguments.

    The EQueue dialect uses single-block regions almost exclusively (launch
    bodies, loop bodies), so blocks intentionally omit successor lists /
    branch terminators — structured control flow (`affine.for`,
    `equeue.launch`) replaces CFG edges.
    """

    __slots__ = ("arguments", "ops", "parent", "label")

    def __init__(self, arg_types: Sequence[Type] = (), label: Optional[str] = None):
        self.arguments: List[BlockArgument] = [
            BlockArgument(t, self, i) for i, t in enumerate(arg_types)
        ]
        self.ops: List["Operation"] = []
        self.parent: Optional["Region"] = None
        self.label = label

    # -- argument management ----------------------------------------------

    def add_argument(self, type: Type, name_hint: Optional[str] = None) -> BlockArgument:
        arg = BlockArgument(type, self, len(self.arguments))
        arg.name_hint = name_hint
        self.arguments.append(arg)
        mutated()
        return arg

    def erase_argument(self, index: int) -> None:
        arg = self.arguments[index]
        if arg.has_uses:
            raise IRError(f"cannot erase block argument #{index}: still in use")
        del self.arguments[index]
        for i, remaining in enumerate(self.arguments):
            remaining.index = i
        mutated()

    # -- op list management -------------------------------------------------

    def append(self, op: "Operation") -> "Operation":
        op.parent = self
        self.ops.append(op)
        mutated()
        return op

    def insert(self, index: int, op: "Operation") -> "Operation":
        op.parent = self
        self.ops.insert(index, op)
        mutated()
        return op

    def insert_before(self, anchor: "Operation", op: "Operation") -> "Operation":
        return self.insert(self.index_of(anchor), op)

    def insert_after(self, anchor: "Operation", op: "Operation") -> "Operation":
        return self.insert(self.index_of(anchor) + 1, op)

    def remove(self, op: "Operation") -> None:
        self.ops.remove(op)
        op.parent = None
        mutated()

    def index_of(self, op: "Operation") -> int:
        for i, candidate in enumerate(self.ops):
            if candidate is op:
                return i
        raise IRError(f"operation {op.name} is not in this block")

    @property
    def empty(self) -> bool:
        return not self.ops

    @property
    def first_op(self) -> Optional["Operation"]:
        return self.ops[0] if self.ops else None

    @property
    def terminator(self) -> Optional["Operation"]:
        return self.ops[-1] if self.ops else None

    @property
    def parent_op(self) -> Optional["Operation"]:
        return self.parent.parent if self.parent is not None else None

    # -- traversal ------------------------------------------------------------

    def walk(self) -> Iterator["Operation"]:
        for op in list(self.ops):
            yield from op.walk()

    def __iter__(self):
        return iter(self.ops)

    def __len__(self):
        return len(self.ops)

    def __repr__(self) -> str:
        return f"<Block with {len(self.ops)} op(s), {len(self.arguments)} arg(s)>"
