"""Tests for the operation-function library and the functional interpreter."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import interp, oplib
from repro.sim.oplib import OpFunction, OpLibError


class TestRegistry:
    def test_builtins_present(self):
        for signature in ("mac", "mul4", "mac4", "install"):
            assert signature in oplib.registered_signatures()

    def test_unknown_signature(self):
        with pytest.raises(OpLibError, match="register_op_function"):
            oplib.lookup("warp_drive")

    def test_duplicate_registration_rejected(self):
        fn = OpFunction("test_dup", 1, lambda: ())
        oplib.register_op_function(fn, replace=True)
        with pytest.raises(OpLibError, match="already registered"):
            oplib.register_op_function(fn)

    def test_callable_cycles(self):
        fn = OpFunction("test_dyn", lambda operands: len(operands), lambda *a: ())
        assert fn.cycle_count([1, 2, 3]) == 3
        fixed = OpFunction("test_fixed", 7, lambda: ())
        assert fixed.cycle_count([]) == 7


class TestMacOps:
    def test_mac_scalarish(self):
        (result,) = oplib.lookup("mac").func(3, 4, 5)
        assert np.asarray(result).item() == 17

    def test_mac_elementwise(self):
        a = np.array([1, 2]); b = np.array([3, 4]); c = np.array([5, 6])
        (result,) = oplib.lookup("mac").func(a, b, c)
        assert list(result) == [8, 14]

    def test_mul4_two_taps(self):
        acc = np.zeros(4, np.int64)
        window = np.array([1, 2, 3, 4, 5, 6], np.int64)
        coeffs = np.array([10, 1], np.int64)
        (result,) = oplib.lookup("mul4").func(acc, window, coeffs)
        # lane l: w[l]*10 + w[l+1]*1
        assert list(result) == [12, 23, 34, 45]

    def test_mac4_accumulates(self):
        acc = np.array([100, 100, 100, 100], np.int64)
        window = np.array([1, 1, 1, 1, 1], np.int64)
        coeffs = np.array([2, 3], np.int64)
        (result,) = oplib.lookup("mac4").func(acc, window, coeffs)
        assert list(result) == [105, 105, 105, 105]

    def test_base_offset(self):
        acc = np.zeros(4, np.int64)
        window = np.arange(20, dtype=np.int64)
        coeffs = np.array([1, 0], np.int64)
        (result,) = oplib.lookup("mul4").func(acc, window, coeffs, 10)
        assert list(result) == [10, 11, 12, 13]

    def test_window_too_short(self):
        with pytest.raises(OpLibError, match="window too short"):
            oplib.lookup("mul4").func(np.zeros(4), np.zeros(3), np.zeros(2))

    def test_bad_coeff_chunk(self):
        with pytest.raises(OpLibError, match="2-tap"):
            oplib.lookup("mac4").func(np.zeros(4), np.zeros(8), np.zeros(3))


class TestInterp:
    @pytest.mark.parametrize(
        "name,a,b,expected",
        [
            ("arith.addi", 3, 4, 7),
            ("arith.subi", 3, 4, -1),
            ("arith.muli", 3, 4, 12),
            ("arith.divsi", 7, 2, 3),
            ("arith.divsi", -7, 2, -3),  # trunc toward zero, like C
            ("arith.remsi", 7, 2, 1),
            ("arith.maxsi", 3, 4, 4),
            ("arith.minsi", 3, 4, 3),
            ("arith.addf", 1.5, 2.0, 3.5),
            ("arith.andi", 0b1100, 0b1010, 0b1000),
            ("arith.ori", 0b1100, 0b1010, 0b1110),
            ("arith.xori", 0b1100, 0b1010, 0b0110),
            ("arith.shli", 3, 2, 12),
            ("arith.shrsi", -8, 2, -2),
        ],
    )
    def test_binaries(self, name, a, b, expected):
        assert interp.evaluate_arith(name, [a, b], {}) == expected

    def test_division_by_zero(self):
        with pytest.raises(interp.InterpError):
            interp.evaluate_arith("arith.divsi", [1, 0], {})

    @pytest.mark.parametrize(
        "pred,expected",
        [("eq", 0), ("ne", 1), ("slt", 1), ("sle", 1), ("sgt", 0), ("sge", 0)],
    )
    def test_cmpi(self, pred, expected):
        assert interp.evaluate_arith(
            "arith.cmpi", [3, 5], {"predicate": pred}
        ) == expected

    def test_select(self):
        assert interp.evaluate_arith("arith.select", [1, "a", "b"], {}) == "a"
        assert interp.evaluate_arith("arith.select", [0, "a", "b"], {}) == "b"

    def test_elementwise_numpy(self):
        a = np.array([1, 2, 3])
        result = interp.evaluate_arith("arith.muli", [a, a], {})
        assert list(result) == [1, 4, 9]

    def test_numpy_dtype_for(self):
        from repro import ir

        assert interp.numpy_dtype_for(ir.i32) == np.dtype(np.int32)
        assert interp.numpy_dtype_for(ir.f64) == np.dtype(np.float64)
        assert interp.numpy_dtype_for(ir.index) == np.dtype(np.int64)
        assert interp.numpy_dtype_for(ir.i8) == np.dtype(np.int8)

    def test_unknown_op(self):
        with pytest.raises(interp.InterpError):
            interp.evaluate_arith("arith.nonsense", [1], {})


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-(2**20), 2**20),
    st.integers(-(2**20), 2**20).filter(lambda v: v != 0),
)
def test_divsi_remsi_invariant(a, b):
    """C-style identity: a == divsi(a,b)*b + remsi(a,b)."""
    quotient = interp.evaluate_arith("arith.divsi", [a, b], {})
    remainder = interp.evaluate_arith("arith.remsi", [a, b], {})
    assert quotient * b + remainder == a
    assert abs(remainder) < abs(b)


#: Operands up to 2**63: an int64 lane each (the one quotient int64 cannot
#: hold, -2**63 / -1, left out).
_INT64 = st.integers(-(2**63) + 1, 2**63 - 1)
_DIVISOR = _INT64.filter(lambda v: v != 0)


@settings(max_examples=300, deadline=None)
@given(_INT64, _DIVISOR)
@example(-(2**60 + 1), 3)
@example(2**62 + 1, -3)
def test_divsi_remsi_are_exact_truncation(a, b):
    """Integer-only: a float quotient is off past 2**53 (``divsi(-(2**60
    + 1), 3)`` came back 21 too high, its remainder larger than 3)."""
    quotient = int(Fraction(a, b))
    assert interp.evaluate_arith("arith.divsi", [a, b], {}) == quotient
    assert interp.evaluate_arith("arith.remsi", [a, b], {}) == a - quotient * b


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_INT64, _DIVISOR), min_size=1, max_size=8))
def test_array_divsi_remsi_are_exact_truncation(pairs):
    a = np.array([x for x, _ in pairs], np.int64)
    b = np.array([y for _, y in pairs], np.int64)
    quotients = [int(Fraction(x, y)) for x, y in pairs]
    divided = interp.evaluate_arith("arith.divsi", [a, b], {})
    remainders = interp.evaluate_arith("arith.remsi", [a, b], {})
    assert divided.dtype == remainders.dtype == np.int64
    assert divided.tolist() == quotients
    assert remainders.tolist() == [
        x - q * y for (x, y), q in zip(pairs, quotients)
    ]


@pytest.mark.parametrize("name", ["arith.divsi", "arith.remsi"])
@pytest.mark.parametrize(
    "operands",
    [
        (7, 0),
        (np.array([4, 5], np.int64), np.array([1, 0], np.int64)),
        (np.array([4, 5], np.int32), 0),
        (9, np.array([3, 0], np.int64)),
    ],
)
def test_a_zero_divisor_is_an_error_for_scalars_and_arrays(name, operands):
    with pytest.raises(interp.InterpError, match="by zero"):
        interp.evaluate_arith(name, list(operands), {})


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-100, 100), min_size=5, max_size=12),
       st.integers(-10, 10), st.integers(-10, 10))
def test_mul4_matches_direct_formula(window, c0, c1):
    window_arr = np.array(window, np.int64)
    (result,) = oplib.lookup("mul4").func(
        np.zeros(4, np.int64), window_arr, np.array([c0, c1], np.int64)
    )
    for lane in range(4):
        assert result[lane] == window_arr[lane] * c0 + window_arr[lane + 1] * c1
