"""Regions: ordered lists of blocks nested under an operation."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from .block import Block
from .values import BlockArgument, mutated

if TYPE_CHECKING:  # pragma: no cover
    from .operation import Operation
    from .values import Value

_new = object.__new__


class Region:
    """A list of blocks owned by a parent operation."""

    __slots__ = ("blocks", "parent")

    def __init__(self, blocks: Optional[List["Block"]] = None):
        self.blocks: List["Block"] = []
        self.parent: Optional["Operation"] = None
        for block in blocks or []:
            self.append(block)

    @property
    def empty(self) -> bool:
        return not self.blocks

    @property
    def entry_block(self) -> "Block":
        return self.blocks[0]

    def append(self, block: "Block") -> "Block":
        block.parent = self
        self.blocks.append(block)
        mutated()
        return block

    def insert(self, index: int, block: "Block") -> "Block":
        block.parent = self
        self.blocks.insert(index, block)
        mutated()
        return block

    def remove(self, block: "Block") -> None:
        self.blocks.remove(block)
        block.parent = None
        mutated()

    def clone(self, value_map: Optional[Dict["Value", "Value"]] = None) -> "Region":
        """Deep-copy all blocks, remapping block arguments and results
        (slot by slot, like :meth:`Operation.clone`; labels and argument
        name hints are kept)."""
        if value_map is None:
            value_map = {}
        new_region = _new(Region)
        new_region.parent = None
        new_blocks = new_region.blocks = []
        # First create all blocks and their arguments so forward references
        # between blocks (if any) resolve.
        for block in self.blocks:
            new_block = _new(Block)
            new_block.parent = new_region
            new_block.label = block.label
            new_block.ops = []
            arguments = new_block.arguments = []
            for old in block.arguments:
                argument = value_map[old] = _new(BlockArgument)
                argument.type = old.type
                argument.uses = ()
                argument.name_hint = old.name_hint
                argument.owner = new_block
                argument.index = old.index
                arguments.append(argument)
            new_blocks.append(new_block)
        for block, new_block in zip(self.blocks, new_blocks):
            ops = new_block.ops
            for op in block.ops:
                cloned = op.clone(value_map)
                cloned.parent = new_block
                ops.append(cloned)
        return new_region

    def walk(self):
        for block in self.blocks:
            for op in list(block.ops):
                yield from op.walk()

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self):
        return len(self.blocks)

    def __repr__(self) -> str:
        return f"<Region with {len(self.blocks)} block(s)>"
