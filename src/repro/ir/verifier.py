"""Structural verification of IR modules.

Checks, in order:

* SSA dominance — every operand is defined earlier in the same block or in a
  lexically enclosing block (subject to isolation, below).
* Isolation — ops with the ``ISOLATED_FROM_ABOVE`` trait (e.g.
  ``equeue.launch``) may not implicitly capture values from enclosing
  regions; resources must be passed through operands/block arguments, which
  is precisely the property the EQueue simulation engine relies on when it
  dispatches a launch body to another processor.
* Trait checks — terminators are last, single-block regions have one block.
* Per-op checks — each registered op's ``verify_op``.

A module that passes is stamped with the number of the process's latest
IR mutation (:data:`repro.ir.values.mutations`) as read before the walk,
so a mutation made during the walk leaves the stamp stale.
:func:`verified` tells whether a module is unchanged since: the engine
verifies only a module that is not.
"""

from __future__ import annotations

from typing import Dict, List, Set

from . import values
from .block import Block
from .diagnostics import VerificationError
from .module import ModuleOp
from .operation import Operation, OpTrait
from .values import BlockArgument, OpResult, Value


def verify(op: Operation) -> None:
    """Verify ``op`` and everything nested inside it.

    Raises :class:`VerificationError` on the first problem found.
    """
    stamp = values.mutations
    _verify_op_tree(op, set())
    if isinstance(op, ModuleOp):
        op.verified_at = stamp


def verified(module: ModuleOp) -> bool:
    """Whether ``module`` passed :func:`verify` and no IR anywhere in
    the process has been mutated since."""
    return module.verified_at == values.mutations


def _verify_op_tree(op: Operation, visible: Set[Value]) -> None:
    """``visible`` is the one set of values in scope at ``op``; each block
    below adds its definitions to it and takes them out again on exit."""
    for operand in op.operands:
        if operand.value not in visible:
            raise VerificationError(
                f"operand #{operand.index} does not dominate its use "
                f"(value {operand.value!r})",
                op,
            )
    op.verify_op()
    _check_traits(op)
    if not op.regions:
        return
    if OpTrait.ISOLATED_FROM_ABOVE in op.traits:
        visible = set()
    for region in op.regions:
        for block in region.blocks:
            defined: List[Value] = list(block.arguments)
            visible.update(defined)
            for operation in block.ops:
                _verify_op_tree(operation, visible)
                if operation.results:
                    defined += operation.results
                    visible.update(operation.results)
            visible.difference_update(defined)


def _check_traits(op: Operation) -> None:
    if OpTrait.TERMINATOR in op.traits and op.parent is not None:
        if op.parent.ops[-1] is not op:
            raise VerificationError(
                "terminator op is not the last operation in its block", op
            )
    if OpTrait.SINGLE_BLOCK in op.traits:
        for region in op.regions:
            if len(region.blocks) > 1:
                raise VerificationError("op requires single-block regions", op)


def verify_value_integrity(op: Operation) -> None:
    """Check use-def bookkeeping invariants across an op tree.

    Every operand must appear in its value's use list, and every recorded
    use must point back at an operand that exists.  This is a debugging aid
    for pass authors; :func:`verify` does not need it on well-formed IR.
    """
    operands_seen: Dict[int, int] = {}
    for nested in op.walk():
        for operand in nested.operands:
            if operand not in operand.value.uses:
                raise VerificationError(
                    f"operand of {nested.name} missing from value use-list", nested
                )
            operands_seen[id(operand)] = 1
    for nested in op.walk():
        for result in nested.results:
            for use in result.uses:
                if id(use) not in operands_seen:
                    # The use may be held by an op outside this tree; only
                    # flag uses whose owner claims to be inside the tree.
                    owner_root = use.owner
                    while owner_root.parent_op is not None:
                        owner_root = owner_root.parent_op
                    if owner_root is op:
                        raise VerificationError(
                            f"stale use of result of {nested.name}", nested
                        )


__all__ = ["verified", "verify", "verify_value_integrity", "VerificationError"]

# Re-exported for convenience in tests.
_ = (Block, BlockArgument, OpResult)
