"""SSA values and use-def chains.

Every SSA value is either the result of an operation (:class:`OpResult`) or
an argument of a block (:class:`BlockArgument`).  Uses are tracked through
:class:`OpOperand` records owned by the consuming operation, which makes
replace-all-uses-with (RAUW) — the workhorse of the rewriting passes — an
O(uses) operation.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, List, Optional, Sequence

from .types import Type

if TYPE_CHECKING:  # pragma: no cover
    from .block import Block
    from .operation import Operation


#: The number of the latest IR mutation made in this process (0 before
#: the first).  Every mutation API — block and region edits,
#: block-argument and operand edits, ``set_attr``, ``erase`` — calls
#: :func:`mutated` once its change is made, on any module.
#: :func:`repro.ir.verifier.verify` stamps a module with the number it
#: read before its walk, so a stamp that still equals it means nothing
#: has changed since the module verified.
mutations = 0
_numbers = count(1)


def mutated() -> None:
    """Number one IR mutation and publish its number (see
    :data:`mutations`).

    Threads need no lock: ``next`` on the counter is atomic and the
    publication one assignment.  Each number is published once, so once
    any mutation has published after a stamp was read, :data:`mutations`
    never equals that stamp again."""
    global mutations
    mutations = next(_numbers)


class Value:
    """Base class for SSA values."""

    __slots__ = ("type", "uses", "name_hint")

    def __init__(self, type: Type, name_hint: Optional[str] = None):
        self.type = type
        #: The operands reading this value.  Read-only to callers; the
        #: shared ``()`` until :meth:`add_use` allocates the list, so a
        #: value nobody reads owns no container.
        self.uses: Sequence["OpOperand"] = ()
        #: Optional human-readable name used by the printer (`%name`).
        self.name_hint = name_hint

    # -- use-def chain -----------------------------------------------------

    def add_use(self, operand: "OpOperand") -> None:
        if self.uses:
            self.uses.append(operand)
        else:
            self.uses = [operand]

    def remove_use(self, operand: "OpOperand") -> None:
        self.uses.remove(operand)

    @property
    def has_uses(self) -> bool:
        return bool(self.uses)

    @property
    def num_uses(self) -> int:
        return len(self.uses)

    def users(self) -> List["Operation"]:
        """The distinct operations that consume this value, in use order."""
        seen = []
        for use in self.uses:
            if use.owner not in seen:
                seen.append(use.owner)
        return seen

    def replace_all_uses_with(self, other: "Value") -> None:
        """Rewrite every use of ``self`` to use ``other`` instead."""
        if other is self:
            return
        for use in list(self.uses):
            use.set(other)

    def __repr__(self) -> str:
        hint = self.name_hint or "?"
        return f"<{type(self).__name__} %{hint}: {self.type}>"


class OpResult(Value):
    """The ``index``-th result of ``owner``."""

    __slots__ = ("owner", "index")

    def __init__(self, type: Type, owner: "Operation", index: int):
        super().__init__(type)
        self.owner = owner
        self.index = index


class BlockArgument(Value):
    """The ``index``-th argument of ``owner`` (a block)."""

    __slots__ = ("owner", "index")

    def __init__(self, type: Type, owner: "Block", index: int):
        super().__init__(type)
        self.owner = owner
        self.index = index


class OpOperand:
    """A single use of a value by an operation.

    The operand records its owner and position so the printer and verifier
    can produce precise diagnostics, and so ``set`` can maintain both sides
    of the use-def chain.
    """

    __slots__ = ("owner", "index", "value")

    def __init__(self, owner: "Operation", index: int, value: Value):
        self.owner = owner
        self.index = index
        self.value = value
        value.add_use(self)

    def set(self, new_value: Value) -> None:
        """Point this operand at ``new_value``, updating use lists."""
        if new_value is self.value:
            return
        self.value.remove_use(self)
        self.value = new_value
        new_value.add_use(self)
        mutated()

    def drop(self) -> None:
        """Detach this operand from its value's use list."""
        self.value.remove_use(self)

    def __repr__(self) -> str:
        return f"<OpOperand #{self.index} of {self.owner.name}>"
