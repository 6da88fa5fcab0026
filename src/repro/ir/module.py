"""The top-level module operation."""

from __future__ import annotations

from typing import Optional

from .block import Block
from .operation import Operation, OpTrait, register_op
from .region import Region


@register_op
class ModuleOp(Operation):
    """``builtin.module`` — the root container for a program.

    Holds a single region with a single block containing top-level ops.
    """

    op_name = "builtin.module"
    traits = frozenset({OpTrait.ISOLATED_FROM_ABOVE, OpTrait.SINGLE_BLOCK})
    #: The number of the latest IR mutation
    #: (:data:`repro.ir.values.mutations`) as read before the walk of the
    #: last :func:`repro.ir.verifier.verify` this module passed; ``None``
    #: until one has.
    verified_at: Optional[int] = None

    @staticmethod
    def build() -> "ModuleOp":
        region = Region([Block()])
        op = Operation.create(ModuleOp.op_name, regions=[region])
        assert isinstance(op, ModuleOp)
        return op

    def verify_op(self) -> None:
        self.expect_num_operands(0)
        self.expect_num_results(0)
        self.expect_num_regions(1)


def create_module() -> ModuleOp:
    """Convenience alias for :meth:`ModuleOp.build`."""
    return ModuleOp.build()
