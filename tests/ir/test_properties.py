"""Hypothesis property tests for the IR core.

The headline property: any randomly-generated well-formed module survives a
print → parse → print round-trip byte-identically and still verifies.
"""

from __future__ import annotations

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ir
from repro.ir import parse_module, print_op, verify
from repro.ir.parser import Parser

# -- strategies -------------------------------------------------------------

_identifiers = st.text(
    alphabet=string.ascii_lowercase + "_", min_size=1, max_size=8
).filter(lambda s: s not in ("true", "false", "unit", "index", "none"))

_scalar_types = st.sampled_from(
    [ir.i1, ir.i8, ir.i32, ir.i64, ir.f32, ir.f64, ir.index]
)

_shapes = st.lists(st.integers(1, 16), min_size=0, max_size=3).map(tuple)

_types = st.one_of(
    _scalar_types,
    st.builds(ir.MemRefType, _shapes, st.sampled_from([ir.i32, ir.f32])),
    st.builds(ir.TensorType, _shapes, st.sampled_from([ir.i32, ir.f32])),
)


#: Strings that hold what ends an operand list, attribute dictionary or
#: type signature on one line, or starts a comment.
_strings = st.one_of(
    st.text(string.ascii_letters + string.digits + ' _{}->:/"\\\n', max_size=12),
    st.sampled_from(["} : () -> (", "{a = 1}", "// x", "(%0, %1)", "->:"]),
)


def _attr_values():
    simple = st.one_of(
        st.integers(-(2**31), 2**31 - 1),
        st.booleans(),
        _strings,
        st.floats(
            allow_nan=False, allow_infinity=False,
            min_value=-1e9, max_value=1e9,
        ),
    )
    return st.recursive(
        simple,
        lambda children: st.one_of(
            st.lists(children, max_size=3),
            st.dictionaries(_identifiers, children, max_size=3),
        ),
        max_leaves=6,
    )


def _attrs(draw):
    return draw(st.dictionaries(_identifiers, _attr_values(), max_size=3))


def _pick(draw, available, count):
    return [
        available[draw(st.integers(0, len(available) - 1))]
        for _ in range(count)
    ]


@st.composite
def random_modules(draw):
    """A random module of ops making, using and wrapping values: one or
    several results, zero to two single-block regions whose arguments may
    take an outer value's name, attributes on any of them."""
    module = ir.create_module()
    builder = ir.Builder(ir.InsertionPoint.at_end(module.body))
    available = []
    n_ops = draw(st.integers(1, 12))
    for i in range(n_ops):
        choice = draw(st.integers(0, 3))
        if choice == 0 or not available:
            result_type = draw(_types)
            op = builder.create(
                f"test.make{i}", [], [result_type],
                {draw(_identifiers): draw(_attr_values())},
            )
            op.result().name_hint = draw(st.one_of(st.none(), _identifiers))
            available.append(op.result())
        elif choice == 1:
            operands = _pick(draw, available, draw(st.integers(1, 3)))
            result_types = draw(st.lists(_types, min_size=1, max_size=3))
            op = builder.create(
                f"test.use{i}", operands, result_types, _attrs(draw)
            )
            available.extend(op.results)
        else:
            # One or two single-block regions capturing outer values (not
            # isolated); an argument may carry an outer value's name.
            regions = []
            for _ in range(choice - 1):
                block = ir.Block(arg_types=[draw(_scalar_types)])
                argument = block.arguments[0]
                argument.name_hint = draw(
                    st.sampled_from([v.name_hint for v in available])
                )
                inner = ir.Builder(ir.InsertionPoint.at_end(block))
                captured = _pick(draw, available, draw(st.integers(0, 2)))
                inner.create("test.inner", [argument, *captured], [])
                regions.append(ir.Region([block]))
            builder.create(f"test.wrap{i}", [], [], _attrs(draw), regions)
    return module


# -- properties ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(random_modules())
def test_print_parse_print_is_identity(module):
    text = print_op(module)
    reparsed = parse_module(text)
    assert print_op(reparsed) == text


@settings(max_examples=60, deadline=None)
@given(random_modules())
def test_printed_text_reads_in_one_pass(module):
    """Only a failed parse is read again, token by token."""
    text = print_op(module)
    assert print_op(Parser(text).parse_module()) == text


@settings(max_examples=60, deadline=None)
@given(random_modules())
def test_random_modules_verify(module):
    verify(module)
    verify(parse_module(print_op(module)))


@settings(max_examples=40, deadline=None)
@given(random_modules())
def test_clone_preserves_text(module):
    clone = module.clone()
    assert print_op(clone) == print_op(module)


@settings(max_examples=40, deadline=None)
@given(_attr_values())
def test_attr_python_roundtrip(value):
    from repro.ir import attr_from_python, attr_to_python

    assert attr_to_python(attr_from_python(value)) == value
