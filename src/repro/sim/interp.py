"""Functional evaluation of non-EQueue ops embedded in launch bodies.

The engine separates *timing* (cycles charged to components) from
*function* (the values computed).  This module implements the latter for
the ``arith`` dialect so simulated programs compute real results — the test
suite checks simulated convolutions and FIR outputs against NumPy
references.

Runtime value conventions:

* ``index``/integer scalars → Python ints
* floats → Python floats
* tensors → ``numpy.ndarray``
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

import numpy as np


class InterpError(Exception):
    """Raised when an op cannot be functionally evaluated."""


def _wrap_int(op_name):
    fn = {
        "arith.addi": lambda a, b: a + b,
        "arith.subi": lambda a, b: a - b,
        "arith.muli": lambda a, b: a * b,
        "arith.maxsi": lambda a, b: np.maximum(a, b),
        "arith.minsi": lambda a, b: np.minimum(a, b),
    }[op_name]

    def apply(a, b):
        result = fn(a, b)
        if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
            return int(result)
        return result

    return apply


def _int_arrays(a, b, what):
    """Array operands of ``divsi``/``remsi``, a zero divisor rejected
    as it is for scalars."""
    a, b = np.asarray(a), np.asarray(b)
    if not (b != 0).all():
        raise InterpError(f"{what} by zero")
    return a, b


def _divsi(a, b):
    """C-style truncating division, in integers only (a float quotient
    is inexact past 2**53)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = _int_arrays(a, b, "division")
        # Floor division rounds toward -inf: an inexact quotient of
        # operands of opposite signs is one below the truncated one.
        quotient = a // b
        quotient += ((a < 0) != (b < 0)) & (np.fmod(a, b) != 0)
        return quotient.astype(a.dtype)
    a, b = int(a), int(b)
    if not b:
        raise InterpError("division by zero")
    return a // b if (a < 0) == (b < 0) else -(-a // b)


def _remsi(a, b):
    """The remainder of :func:`_divsi`: the dividend's sign, smaller
    than the divisor."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.fmod(*_int_arrays(a, b, "remainder"))
    a, b = int(a), int(b)
    if not b:
        raise InterpError("remainder by zero")
    remainder = abs(a) % abs(b)
    return remainder if a >= 0 else -remainder


_CMP: Dict[str, Callable] = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b,
    "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b,
    "sge": lambda a, b: a >= b,
}

_BINARY: Dict[str, Callable] = {
    "arith.addi": _wrap_int("arith.addi"),
    "arith.subi": _wrap_int("arith.subi"),
    "arith.muli": _wrap_int("arith.muli"),
    "arith.maxsi": _wrap_int("arith.maxsi"),
    "arith.minsi": _wrap_int("arith.minsi"),
    "arith.divsi": _divsi,
    "arith.remsi": _remsi,
    "arith.addf": lambda a, b: a + b,
    "arith.subf": lambda a, b: a - b,
    "arith.mulf": lambda a, b: a * b,
    "arith.divf": lambda a, b: a / b,
    "arith.andi": lambda a, b: a & b,
    "arith.ori": lambda a, b: a | b,
    "arith.xori": lambda a, b: a ^ b,
    "arith.shli": lambda a, b: a << b,
    "arith.shrsi": lambda a, b: a >> b,
}


def binary_callable(op_name: str):
    """The raw two-operand evaluator for an arith op (or ``None``).

    Used by the block-plan compiler to pre-bind the evaluator at plan
    compile time instead of re-dispatching through :func:`evaluate_arith`
    on every execution.  The callables accept scalars or numpy arrays.
    """
    return _BINARY.get(op_name)


#: Pure-Python-int equivalents of the wrap-converting binary evaluators:
#: when both operands are ints these produce the identical int result
#: without the numpy/isinstance detour.  div/rem keep their custom
#: truncating semantics and are deliberately absent.
_RAW_INT: Dict[str, Callable] = {
    "arith.addi": lambda a, b: a + b,
    "arith.subi": lambda a, b: a - b,
    "arith.muli": lambda a, b: a * b,
    "arith.maxsi": lambda a, b: a if a >= b else b,
    "arith.minsi": lambda a, b: a if a <= b else b,
    "arith.andi": lambda a, b: a & b,
    "arith.ori": lambda a, b: a | b,
    "arith.xori": lambda a, b: a ^ b,
    "arith.shli": lambda a, b: a << b,
    "arith.shrsi": lambda a, b: a >> b,
    "arith.addf": lambda a, b: a + b,
    "arith.subf": lambda a, b: a - b,
    "arith.mulf": lambda a, b: a * b,
    "arith.divf": lambda a, b: a / b,
}


def raw_int_callable(op_name: str):
    """Exact int-only fast path for a binary arith op (or ``None``)."""
    return _RAW_INT.get(op_name)


def compare_callable(predicate: str):
    """The raw comparison evaluator for an ``arith.cmpi`` predicate."""
    return _CMP[predicate]


def evaluate_arith(op_name: str, operands: Sequence, attrs: Dict) -> object:
    """Evaluate one arith op on runtime values; returns the single result."""
    if op_name in _BINARY:
        lhs, rhs = operands
        return _BINARY[op_name](lhs, rhs)
    if op_name == "arith.cmpi":
        predicate = attrs["predicate"]
        lhs, rhs = operands
        result = _CMP[predicate](lhs, rhs)
        if isinstance(result, np.ndarray):
            return result.astype(np.int8)
        return int(bool(result))
    if op_name == "arith.select":
        cond, a, b = operands
        if isinstance(cond, np.ndarray):
            return np.where(cond != 0, a, b)
        return a if cond else b
    if op_name == "arith.index_cast":
        (value,) = operands
        return int(value) if not isinstance(value, np.ndarray) else value
    raise InterpError(f"cannot evaluate {op_name}")


def numpy_dtype_for(type_obj) -> np.dtype:
    """The numpy dtype backing an IR element type."""
    from ..ir.types import FloatType, IndexType, IntegerType

    if isinstance(type_obj, FloatType):
        return np.dtype(f"f{type_obj.width // 8}")
    if isinstance(type_obj, IndexType):
        return np.dtype(np.int64)
    if isinstance(type_obj, IntegerType):
        width = max(8, type_obj.width)
        return np.dtype(f"i{width // 8}")
    raise InterpError(f"no numpy dtype for {type_obj}")
