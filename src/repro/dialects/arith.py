"""The ``arith`` dialect: integer/float scalar and elementwise arithmetic.

Mirrors the MLIR standard arithmetic the paper embeds in launch bodies
(e.g. the ``addi`` in Fig. 2a).  Operations are elementwise when applied to
tensor-typed values, which is how EQueue register files holding small
vectors are computed on.
"""

from __future__ import annotations

from ..ir.attributes import FloatAttr, integer_attr
from ..ir.builder import Builder
from ..ir.diagnostics import VerificationError
from ..ir.operation import Operation, register_op
from ..ir.types import (
    FloatType,
    IndexType,
    IntegerType,
    TensorType,
    Type,
)
from ..ir.values import Value

_CMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge")


def _element_type(type: Type) -> Type:
    return type.element_type if isinstance(type, TensorType) else type


class _BinaryOp(Operation):
    """Shared verification for binary elementwise ops."""

    requires_integer = False
    requires_float = False

    def verify_op(self) -> None:
        self.expect_num_operands(2)
        self.expect_num_results(1)
        lhs, rhs = self.operand(0).type, self.operand(1).type
        if lhs != rhs:
            raise VerificationError(
                f"operand types differ: {lhs} vs {rhs}", self
            )
        if self.result().type != lhs:
            raise VerificationError(
                f"result type {self.result().type} != operand type {lhs}", self
            )
        element = _element_type(lhs)
        if self.requires_integer and not isinstance(
            element, (IntegerType, IndexType)
        ):
            raise VerificationError(f"expected integer element type, got {element}", self)
        if self.requires_float and not isinstance(element, FloatType):
            raise VerificationError(f"expected float element type, got {element}", self)


def _define_binary(name: str, integer: bool = False, float_: bool = False):
    cls = type(
        name.replace(".", "_"),
        (_BinaryOp,),
        {
            "op_name": name,
            "requires_integer": integer,
            "requires_float": float_,
        },
    )
    return register_op(cls)


AddIOp = _define_binary("arith.addi", integer=True)
SubIOp = _define_binary("arith.subi", integer=True)
MulIOp = _define_binary("arith.muli", integer=True)
DivSIOp = _define_binary("arith.divsi", integer=True)
RemSIOp = _define_binary("arith.remsi", integer=True)
AddFOp = _define_binary("arith.addf", float_=True)
SubFOp = _define_binary("arith.subf", float_=True)
MulFOp = _define_binary("arith.mulf", float_=True)
DivFOp = _define_binary("arith.divf", float_=True)
MaxSIOp = _define_binary("arith.maxsi", integer=True)
MinSIOp = _define_binary("arith.minsi", integer=True)
AndIOp = _define_binary("arith.andi", integer=True)
OrIOp = _define_binary("arith.ori", integer=True)
XOrIOp = _define_binary("arith.xori", integer=True)
ShLIOp = _define_binary("arith.shli", integer=True)
ShRSIOp = _define_binary("arith.shrsi", integer=True)


@register_op
class ConstantOp(Operation):
    """``arith.constant`` — an integer/float/index constant."""

    op_name = "arith.constant"

    def verify_op(self) -> None:
        self.expect_num_operands(0)
        self.expect_num_results(1)
        self.expect_attr("value")


@register_op
class CmpIOp(Operation):
    """``arith.cmpi`` — integer comparison with a predicate attribute."""

    op_name = "arith.cmpi"

    def verify_op(self) -> None:
        self.expect_num_operands(2)
        self.expect_num_results(1)
        self.expect_attr("predicate")
        predicate = self.get_attr("predicate")
        if predicate not in _CMP_PREDICATES:
            raise VerificationError(f"unknown predicate {predicate!r}", self)
        if self.operand(0).type != self.operand(1).type:
            raise VerificationError("cmpi operand types differ", self)
        result = self.result().type
        if not (isinstance(result, IntegerType) and result.width == 1):
            raise VerificationError(f"cmpi must return i1, got {result}", self)


@register_op
class SelectOp(Operation):
    """``arith.select`` — ternary select on an ``i1`` condition."""

    op_name = "arith.select"

    def verify_op(self) -> None:
        self.expect_num_operands(3)
        self.expect_num_results(1)
        cond = self.operand(0).type
        if not (isinstance(cond, IntegerType) and cond.width == 1):
            raise VerificationError(f"select condition must be i1, got {cond}", self)
        if self.operand(1).type != self.operand(2).type:
            raise VerificationError("select branch types differ", self)


@register_op
class IndexCastOp(Operation):
    """``arith.index_cast`` — convert between index and integer types."""

    op_name = "arith.index_cast"

    def verify_op(self) -> None:
        self.expect_num_operands(1)
        self.expect_num_results(1)


# ---------------------------------------------------------------------------
# Function-style builders, so generator code reads like the paper's listings.
# ---------------------------------------------------------------------------


def constant(builder: Builder, value, type: Type) -> Value:
    op = builder.create(
        "arith.constant", [], [type], {"value": _const_attr(value, type)}
    )
    return op.result()


def _const_attr(value, type: Type):
    if isinstance(type, FloatType):
        return FloatAttr(float(value), type)
    return integer_attr(int(value), type)


def _binary(name: str):
    def build(builder: Builder, lhs: Value, rhs: Value) -> Value:
        return builder.create(name, [lhs, rhs], [lhs.type]).result()

    build.__name__ = name.split(".")[-1]
    return build


addi = _binary("arith.addi")
subi = _binary("arith.subi")
muli = _binary("arith.muli")
divsi = _binary("arith.divsi")
remsi = _binary("arith.remsi")
addf = _binary("arith.addf")
subf = _binary("arith.subf")
mulf = _binary("arith.mulf")
divf = _binary("arith.divf")
maxsi = _binary("arith.maxsi")
minsi = _binary("arith.minsi")
andi = _binary("arith.andi")
ori = _binary("arith.ori")
xori = _binary("arith.xori")
shli = _binary("arith.shli")
shrsi = _binary("arith.shrsi")


def cmpi(builder: Builder, predicate: str, lhs: Value, rhs: Value) -> Value:
    return builder.create(
        "arith.cmpi", [lhs, rhs], [IntegerType(1)], {"predicate": predicate}
    ).result()


def select(builder: Builder, cond: Value, a: Value, b: Value) -> Value:
    return builder.create("arith.select", [cond, a, b], [a.type]).result()
