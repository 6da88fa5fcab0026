"""The ``affine`` dialect subset: structured loops and array accesses.

Simplifications relative to MLIR (documented in DESIGN.md):

* Loop bounds and steps are static integer attributes — the paper's
  lowering pipeline only produces constant-bound loops after tiling.
* ``affine.load``/``affine.store`` take explicit index operands rather than
  affine maps; index arithmetic is expressed with ``arith`` ops on
  ``index``-typed values (which the engine prices at zero cycles, matching
  the paper's decision not to model loop control overhead).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..ir.block import Block
from ..ir.builder import Builder, InsertionPoint
from ..ir.diagnostics import VerificationError
from ..ir.operation import Operation, OpTrait, register_op
from ..ir.region import Region
from ..ir.types import IndexType, MemRefType
from ..ir.values import Value
from .memref import _check_indices, _check_memref

__all__ = [
    "AffineLoadOp", "AffineStoreOp", "ForOp", "ParallelOp", "YieldOp",
    "for_loop", "load", "parallel", "store",
    "MemRefType",  # re-exported for type checks
]


@register_op
class ForOp(Operation):
    """``affine.for`` — a sequential counted loop.

    Attributes ``lower_bound``, ``upper_bound``, ``step``; single region
    whose block takes the induction variable as an ``index`` argument.
    """

    op_name = "affine.for"
    traits = frozenset({OpTrait.SINGLE_BLOCK})

    def verify_op(self) -> None:
        self.expect_num_regions(1)
        self.expect_attr("lower_bound")
        self.expect_attr("upper_bound")
        self.expect_attr("step")
        if self.get_attr("step") <= 0:
            raise VerificationError("loop step must be positive", self)
        body = self.regions[0].blocks
        if len(body) != 1:
            raise VerificationError("affine.for requires exactly one block", self)
        args = body[0].arguments
        if len(args) != 1 or not isinstance(args[0].type, IndexType):
            raise VerificationError(
                "affine.for body must take a single index argument", self
            )
        terminator = body[0].terminator
        if terminator is None or terminator.name != "affine.yield":
            raise VerificationError("affine.for body must end with affine.yield", self)

    @property
    def lower_bound(self) -> int:
        return self.get_attr("lower_bound")

    @property
    def upper_bound(self) -> int:
        return self.get_attr("upper_bound")

    @property
    def step(self) -> int:
        return self.get_attr("step")

    @property
    def induction_var(self) -> Value:
        return self.body.arguments[0]

    @property
    def trip_count(self) -> int:
        span = self.upper_bound - self.lower_bound
        if span <= 0:
            return 0
        return (span + self.step - 1) // self.step


@register_op
class ParallelOp(Operation):
    """``affine.parallel`` — a multi-dimensional parallel loop nest.

    Attributes ``lower_bounds``, ``upper_bounds``, ``steps`` (equal-length
    integer arrays); the body block takes one ``index`` argument per
    dimension.  The ``--parallel-to-equeue`` pass maps this onto concurrent
    ``equeue.launch`` operations.
    """

    op_name = "affine.parallel"
    traits = frozenset({OpTrait.SINGLE_BLOCK})

    def verify_op(self) -> None:
        self.expect_num_regions(1)
        for attr in ("lower_bounds", "upper_bounds", "steps"):
            self.expect_attr(attr)
        lbs = self.get_attr("lower_bounds")
        ubs = self.get_attr("upper_bounds")
        steps = self.get_attr("steps")
        if not (len(lbs) == len(ubs) == len(steps)):
            raise VerificationError("parallel bound arrays differ in length", self)
        args = self.body.arguments
        if len(args) != len(lbs):
            raise VerificationError(
                f"body takes {len(args)} args for {len(lbs)} dimensions", self
            )
        for arg in args:
            if not isinstance(arg.type, IndexType):
                raise VerificationError("parallel args must be index-typed", self)

    @property
    def ranges(self):
        return list(
            zip(
                self.get_attr("lower_bounds"),
                self.get_attr("upper_bounds"),
                self.get_attr("steps"),
            )
        )


@register_op
class YieldOp(Operation):
    """``affine.yield`` — terminator for affine loop bodies."""

    op_name = "affine.yield"
    traits = frozenset({OpTrait.TERMINATOR})

    def verify_op(self) -> None:
        self.expect_num_results(0)


@register_op
class AffineLoadOp(Operation):
    """``affine.load`` — element read; converted by ``--equeue-read-write``."""

    op_name = "affine.load"

    def verify_op(self) -> None:
        self.expect_num_results(1)
        memref_type = _check_memref(self, self.operand(0), "load base")
        _check_indices(self, memref_type, self.operand_values[1:])
        if self.result().type != memref_type.element_type:
            raise VerificationError("affine.load result/element mismatch", self)


@register_op
class AffineStoreOp(Operation):
    """``affine.store`` — element write; converted by ``--equeue-read-write``."""

    op_name = "affine.store"

    def verify_op(self) -> None:
        self.expect_num_results(0)
        if len(self.operands) < 2:
            raise VerificationError("store needs value and base operands", self)
        memref_type = _check_memref(self, self.operand(1), "store base")
        _check_indices(self, memref_type, self.operand_values[2:])


# -- builders -----------------------------------------------------------------


def for_loop(
    builder: Builder,
    lower_bound: int,
    upper_bound: int,
    step: int = 1,
    body: Optional[Callable[[Builder, Value], None]] = None,
) -> ForOp:
    """Create an ``affine.for``; ``body(builder, iv)`` populates the block.

    The ``affine.yield`` terminator is appended automatically.
    """
    block = Block(arg_types=[IndexType()])
    region = Region([block])
    op = builder.create(
        "affine.for",
        [],
        [],
        {
            "lower_bound": lower_bound,
            "upper_bound": upper_bound,
            "step": step,
        },
        [region],
    )
    if body is not None:
        nested = Builder(InsertionPoint.at_end(block))
        body(nested, block.arguments[0])
    Builder(InsertionPoint.at_end(block)).create("affine.yield", [], [])
    assert isinstance(op, ForOp)
    return op


def parallel(
    builder: Builder,
    lower_bounds: Sequence[int],
    upper_bounds: Sequence[int],
    steps: Optional[Sequence[int]] = None,
    body: Optional[Callable[..., None]] = None,
) -> ParallelOp:
    """Create an ``affine.parallel``; ``body(builder, *ivs)`` fills the block."""
    steps = list(steps) if steps is not None else [1] * len(lower_bounds)
    block = Block(arg_types=[IndexType()] * len(lower_bounds))
    region = Region([block])
    op = builder.create(
        "affine.parallel",
        [],
        [],
        {
            "lower_bounds": list(lower_bounds),
            "upper_bounds": list(upper_bounds),
            "steps": steps,
        },
        [region],
    )
    if body is not None:
        nested = Builder(InsertionPoint.at_end(block))
        body(nested, *block.arguments)
    Builder(InsertionPoint.at_end(block)).create("affine.yield", [], [])
    assert isinstance(op, ParallelOp)
    return op


def load(builder: Builder, buffer: Value, indices: Sequence[Value]) -> Value:
    element = buffer.type.element_type
    return builder.create("affine.load", [buffer, *indices], [element]).result()


def store(builder: Builder, value: Value, buffer: Value, indices: Sequence[Value]) -> None:
    builder.create("affine.store", [value, buffer, *indices], [])

