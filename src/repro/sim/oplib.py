"""The extensible operation-function library (§III-E, §IV-D).

``equeue.op`` instances name a *signature* (e.g. ``"mac"``, ``"mul4"``);
the engine resolves the signature here to obtain a cycle count and a
functional model.  Users register new operations with
:func:`register_op_function` — the paper's mechanism for modeling special
hardware instructions such as the AI Engine's ``mul4``/``mac4``
intrinsics.

Built-in signatures:

``mac``
    Fused multiply-accumulate ``a*b + c`` (elementwise on tensors), one
    cycle — the systolic PE's compute step.
``mul4`` / ``mac4``
    The AI Engine intrinsics: 4 output lanes, 2 MACs per lane per cycle
    (§VII-C).  Operands ``(acc[4], window[>=5], coeffs[2])``; lane ``l``
    computes ``window[l]*coeffs[0] + window[l+1]*coeffs[1]``, overwriting
    (``mul4``) or accumulating into (``mac4``) the accumulator.
``install``
    A configuration/install step (appears in the paper's Fig. 13 traces).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np


class OpLibError(Exception):
    """Raised for unknown signatures or malformed operands."""


@dataclass(frozen=True)
class OpFunction:
    """A simulator-library operation: cycle count plus functional model.

    ``cycles`` may be an int or a callable of the operand list (so cost can
    depend on shapes).  ``func`` maps operand values to a tuple of results.
    The paper's "stall signal" is realized by the engine's schedule queues,
    so operation functions only report busy cycles.
    """

    signature: str
    cycles: object  # int | Callable[[Sequence], int]
    func: Callable[..., Tuple]

    def cycle_count(self, operands: Sequence) -> int:
        if callable(self.cycles):
            return int(self.cycles(operands))
        return int(self.cycles)


_REGISTRY: Dict[str, OpFunction] = {}


def register_op_function(op_function: OpFunction, replace: bool = False) -> None:
    if not replace and op_function.signature in _REGISTRY:
        raise OpLibError(f"signature {op_function.signature!r} already registered")
    _REGISTRY[op_function.signature] = op_function


def lookup(signature: str) -> OpFunction:
    try:
        return _REGISTRY[signature]
    except KeyError:
        raise OpLibError(
            f"unknown equeue.op signature {signature!r}; register it with "
            "register_op_function"
        ) from None


def first_results(results, count: int) -> tuple:
    """What an op with ``count`` results binds of the ``results`` its
    function returned (``None``: no values): the first ``count`` — one
    per result, which every tier requires."""
    results = () if results is None else tuple(results)
    if len(results) < count:
        raise OpLibError(
            f"an operation function returned {len(results)} values for "
            f"{count} results"
        )
    return results[:count]


def registered_signatures() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


# ---------------------------------------------------------------------------
# Built-in operations
# ---------------------------------------------------------------------------


def _mac(a, b, c):
    # Scalar operands (the per-PE hot path: register reads yield Python
    # ints) multiply-accumulate directly; arrays go through NumPy.
    if type(a) is int and type(b) is int and type(c) is int:
        return (a * b + c,)
    return (np.asarray(a) * np.asarray(b) + np.asarray(c),)


def _lane_mac(window, coeffs, base) -> np.ndarray:
    """Four lanes, two MACs per lane: lane l = w[b+l]*c0 + w[b+l+1]*c1."""
    window = np.asarray(window).ravel()
    coeffs = np.asarray(coeffs).ravel()
    base = int(base)
    if len(coeffs) != 2:
        raise OpLibError("mul4/mac4 expect a 2-tap coefficient chunk")
    if len(window) < base + 5:
        raise OpLibError(
            f"mul4/mac4 window too short: need {base + 5}, have {len(window)}"
        )
    lanes = np.arange(4) + base
    return window[lanes] * coeffs[0] + window[lanes + 1] * coeffs[1]


def _mul4(acc, window, coeffs, base=0):
    result = np.asarray(acc).copy().ravel()
    result[:4] = _lane_mac(window, coeffs, base)
    return (result.reshape(np.asarray(acc).shape),)


def _mac4(acc, window, coeffs, base=0):
    acc = np.asarray(acc)
    result = acc.copy().ravel().astype(acc.dtype, copy=False)
    result[:4] = result[:4] + _lane_mac(window, coeffs, base)
    return (result.reshape(acc.shape),)


def _install():
    return ()


def _register_builtins() -> None:
    register_op_function(OpFunction("mac", 1, _mac), replace=True)
    register_op_function(OpFunction("mul4", 1, _mul4), replace=True)
    register_op_function(OpFunction("mac4", 1, _mac4), replace=True)
    register_op_function(OpFunction("install", 1, _install), replace=True)


_register_builtins()
