"""Printer/parser round-trip tests, including malformed-input diagnostics."""

import gc
import math
import weakref

import pytest

from repro import ir
from repro.dialects import arith
from repro.dialects.equeue import EQueueBuilder
from repro.ir import ParseError, parse_module, parse_op, print_op
from repro.ir import parser as parser_module
from repro.ir.parser import Parser


def roundtrip(module):
    text = print_op(module)
    reparsed = parse_module(text)
    assert print_op(reparsed) == text
    ir.verify(reparsed)
    return text


class TestBasicRoundtrip:
    def test_empty_module(self, module_and_builder):
        module, _ = module_and_builder
        text = roundtrip(module)
        assert text.startswith("builtin.module()")

    def test_constants_and_arith(self, module_and_builder):
        module, builder = module_and_builder
        a = arith.constant(builder, 3, ir.i32)
        b = arith.constant(builder, 4, ir.i32)
        arith.addi(builder, a, b)
        text = roundtrip(module)
        assert "arith.addi" in text
        assert "3 : i32" in text

    def test_name_hints_preserved(self, module_and_builder):
        module, builder = module_and_builder
        value = arith.constant(builder, 1, ir.i32)
        value.name_hint = "my_value"
        text = print_op(module)
        assert "%my_value" in text
        reparsed = parse_module(text)
        assert print_op(reparsed) == text

    def test_duplicate_hints_uniqued(self, module_and_builder):
        module, builder = module_and_builder
        a = arith.constant(builder, 1, ir.i32)
        b = arith.constant(builder, 2, ir.i32)
        a.name_hint = "x"
        b.name_hint = "x"
        text = print_op(module)
        assert "%x" in text and "%x_0" in text
        roundtrip(module)

    def test_full_equeue_program(self, module_and_builder):
        module, builder = module_and_builder
        eq = EQueueBuilder(builder)
        kernel = eq.create_proc("ARMr5", name="kernel")
        sram = eq.create_mem("SRAM", 64, ir.i32, banks=2, ports=2, name="sram")
        buf = eq.alloc(sram, [8], ir.i32, name="buf")
        start = eq.control_start()

        def body(bb, buf_arg):
            inner = EQueueBuilder(bb)
            data = inner.read(buf_arg)
            inner.write(data, buf_arg)
            return [data]

        done, out = eq.launch(start, kernel, args=[buf], body=body, label="work")
        eq.await_([done])
        text = roundtrip(module)
        assert "equeue.launch" in text
        assert "^bb0" in text
        assert "!equeue.event" in text

    def test_multi_result_ops(self, module_and_builder):
        module, builder = module_and_builder
        builder.create("test.pair", [], [ir.i32, ir.i32])
        roundtrip(module)

    def test_nested_regions(self, module_and_builder):
        module, builder = module_and_builder
        from repro.dialects import affine

        def outer(b, i):
            affine.for_loop(b, 0, 4, body=lambda bb, j: None)

        affine.for_loop(builder, 0, 8, 2, body=outer)
        text = roundtrip(module)
        assert text.count("affine.for") == 2

    def test_float_and_bool_attrs(self, module_and_builder):
        module, builder = module_and_builder
        builder.create(
            "test.attrs", [], [],
            {"f": 2.5, "flag": True, "items": [1, 2], "nested": {"a": "b"}},
        )
        roundtrip(module)

    def test_scientific_float(self, module_and_builder):
        module, builder = module_and_builder
        builder.create("test.attrs", [], [], {"tiny": 1e-07})
        text = roundtrip(module)
        assert "1e-07" in text

    def test_inf_nan_as_attribute_names(self, module_and_builder):
        """inf/nan lex as float literals in value position, but they (and
        identifiers merely starting with them) are legal attribute keys."""
        module, builder = module_and_builder
        builder.create(
            "test.attrs", [], [],
            {"inf": 1, "nan": "x", "infx": 2, "nano": True},
        )
        roundtrip(module)

    def test_non_finite_float_values(self, module_and_builder):
        module, builder = module_and_builder
        builder.create(
            "test.attrs", [], [],
            {"pos": float("inf"), "neg": float("-inf")},
        )
        roundtrip(module)


class TestTypeParsing:
    @pytest.mark.parametrize(
        "type_text",
        ["i32", "i1", "f32", "f64", "index", "none",
         "memref<4xi32>", "memref<2x3x4xf32>", "tensor<8xi32>",
         "memref<?x4xi32>", "!equeue.proc", "!equeue.event",
         "memref<4xmemref<2x?xi32>>", "tensor<2x!equeue.event>"],
    )
    def test_types_roundtrip(self, type_text):
        source = (
            "builtin.module() ({\n"
            f"  test.op() : () -> {type_text}\n"
            "}) : () -> ()\n"
        )
        # Result values must be named to be re-printed; wrap via %0 =.
        source = source.replace("test.op()", "%0 = test.op()")
        module = parse_module(source)
        assert print_op(module) == source

    def test_nested_shaped_literal_structure(self):
        op = parse_op("%0 = test.p() : () -> memref<4xmemref<2x?xi32>>")
        inner = ir.MemRefType((2, ir.DYNAMIC), ir.i32)
        assert op.result().type == ir.MemRefType((4,), inner)

    def test_equal_spellings_share_one_type_object(self):
        op = parse_op(
            "%0, %1 = test.p() : () -> (memref<4x4xi32>, memref<4x4xi32>)"
        )
        assert op.result(0).type is op.result(1).type

    @pytest.mark.parametrize(
        "type_text, message",
        [
            ("i0", "integer width must be positive, got 0"),
            ("!nope.t", "unknown dialect type !nope.t"),
            ("memref<4xi0>", "integer width must be positive, got 0"),
            ("f8", "unsupported float width 8"),
            ("memref<4xmemref<2xi32>", "unbalanced '<' in type literal"),
            ("memref<4xi32>>", "expected a type, found 'i32>'"),
        ],
    )
    def test_malformed_type_is_a_positioned_parse_error(self, type_text, message):
        """These used to escape as bare IRError (or, for the last two, be
        reported at a position relative to the literal's own text)."""
        for _ in range(2):  # a failure is never remembered as a type
            with pytest.raises(ParseError) as excinfo:
                parse_op(f"%0 = test.p() : () -> {type_text}")
            error = excinfo.value
            assert str(error) == f"line 1:23: {message}"
            assert (error.line, error.column) == (1, 23)

    def test_type_registered_after_a_failed_parse_resolves(self):
        source = "%0 = test.p() : () -> memref<2x!latereg.t>"
        with pytest.raises(ParseError, match="unknown dialect type"):
            parse_op(source)

        class LateType(ir.DialectType):
            dialect = "latereg"
            mnemonic = "t"

        assert parse_op(source).result().type.element_type == LateType()

    @pytest.mark.parametrize(
        "attr_text, message",
        [
            ("1.5 : i32", "invalid literal for int() with base 10: '1.5'"),
            ("5 : memref<4xi32>",
             "IntegerAttr requires an integer type, got memref<4xi32>"),
        ],
    )
    def test_ill_typed_number_attr_is_a_positioned_parse_error(
        self, attr_text, message
    ):
        with pytest.raises(ParseError) as excinfo:
            parse_op(f"test.op() {{a = {attr_text}}} : () -> ()")
        assert str(excinfo.value) == f"line 1:16: {message}"


#: (id, source, attribute values it must carry).
LEXER_EDGE_CASES = [
    ("comment-at-eof-without-newline",
     "test.op() {a = 1 : i64} : () -> () // done", {"a": 1}),
    ("comments-and-blank-lines-around",
     "// head\n\n  // more\ntest.op() {a = 1 : i64} : () -> ()\n// tail\n",
     {"a": 1}),
    ("comment-between-tokens",
     "test.op() {a = // why not\n 1 : i64} : () -> ()", {"a": 1}),
    ("inf-nan-as-attribute-names",
     'test.op() {inf = 1 : i64, nan = "x"} : () -> ()', {"inf": 1, "nan": "x"}),
    ("infx-is-an-identifier",
     "test.op() {infx = 2 : i64, nano = true} : () -> ()",
     {"infx": 2, "nano": True}),
    ("negative-and-exponent-numbers",
     "test.op() {a = -5 : i32, b = -2.5 : f32, c = 1e-07 : f64, "
     "d = 3E+2 : f64, e = 2.e3 : f64, f = 7, g = -0.5} : () -> ()",
     {"a": -5, "b": -2.5, "c": 1e-07, "d": 300.0, "e": 2000.0, "f": 7,
      "g": -0.5}),
    ("non-finite-values",
     "test.op() {n = -inf : f64, p = inf : f64, q = inf} : () -> ()",
     {"n": -math.inf, "p": math.inf, "q": math.inf}),
    ("escaped-quotes-and-backslashes",
     r'test.op() {s = "a\"b\\c", t = "\\", u = "\\\""} : () -> ()',
     {"s": 'a"b\\c', "t": "\\", "u": '\\"'}),
    ("string-holding-comment-and-punctuation",
     'test.op() {s = "// not a comment {[<"} : () -> ()',
     {"s": "// not a comment {[<"}),
    # Where a one-line operand list, dictionary or signature ends.
    ("one-line-region",
     "test.wrap() ({ test.op() : () -> () }) {a = 1 : i64} : () -> ()",
     {"a": 1}),
    ("one-line-region-without-spaces",
     "test.wrap() ({test.op() {b = 2 : i64} : () -> ()}) : () -> ()", {}),
    ("comment-in-one-line-dict-holding-its-brace",
     "test.op() {a = 1 : i64 // b = 2 }\n} : () -> ()", {"a": 1}),
    ("function-typed-block-arguments",
     "test.wrap() ({\n^bb0(%f: (i32) -> i32, %g: () -> (i32, i32)):\n"
     "  test.use(%f) : ((i32) -> i32) -> ()\n}) : () -> ()", {}),
    ("strings-holding-signature-punctuation",
     'test.op() {s = "} : () -> (", t = "{a = 1} -> : //"} : () -> ()',
     {"s": "} : () -> (", "t": "{a = 1} -> : //"}),
]


class TestLexerEdgeCases:
    @pytest.mark.parametrize(
        "source, attrs",
        [pytest.param(*case[1:], id=case[0]) for case in LEXER_EDGE_CASES],
    )
    def test_scans_to_the_expected_attributes(self, source, attrs):
        op = parse_op(source)
        assert {key: op.get_attr(key) for key in attrs} == attrs
        text = print_op(op)
        assert print_op(parse_op(text)) == text

    @pytest.mark.parametrize(
        "source", [pytest.param(case[1], id=case[0]) for case in LEXER_EDGE_CASES]
    )
    def test_reads_without_a_second_pass(self, source):
        """Only a failed parse is read again, token by token."""
        parser = Parser(source)
        parser.parse_operation()
        parser.expect("")

    def test_nan_value(self):
        op = parse_op("test.op() {v = nan : f64} : () -> ()")
        assert math.isnan(op.get_attr("v"))

    def test_infx_is_an_op_name_but_inf_is_not(self):
        assert parse_op("infx.op() : () -> ()").name == "infx.op"
        with pytest.raises(ParseError, match="expected 'IDENT', found 'inf'"):
            parse_op("inf() : () -> ()")


def _module(*lines):
    """``lines`` as the body of a ``builtin.module``."""
    body = "".join(f"{line}\n" for line in lines)
    return "builtin.module() ({\n" + body + "}) : () -> ()\n"


# Recorded from the parent of the scanner rewrite (the hand-written lexer with
# per-token ``Token`` objects) before any parser change: id, entry point,
# source, then the exact ``str(error)``, ``error.line`` and ``error.column``.
# A front-end change must reproduce every row byte for byte.
DIAGNOSTICS = [
    ('unexpected-character', parse_module, "@@@@",
     "line 1:1: unexpected character '@'", 1, 1),
    ('unexpected-character-line2', parse_module, _module("  test.op() : () -> ()", "  test.op() # () -> ()"),
     "line 3:13: unexpected character '#'", 3, 13),
    ('unterminated-string', parse_op, 'test.op() {a = "abc} : () -> ()',
     'line 1:16: unexpected character \'"\'', 1, 16),
    ('lone-minus', parse_op, "test.op() {a = - 5} : () -> ()",
     "line 1:16: unexpected character '-'", 1, 16),
    ('unbalanced-angle', parse_op, "%0 = test.p() : () -> memref<4xi32",
     "line 1:23: unbalanced '<' in type literal", 1, 23),
    ('lex-error-beats-earlier-parse-error', parse_module, _module("  test.use(%nope) : (i32) -> ()", "  test.op() : () -> () @"),
     "line 3:24: unexpected character '@'", 3, 24),
    ('eof-mid-op', parse_op, "%0 = test.p(",
     "line 1:13: expected 'PERCENT', found ''", 1, 13),
    ('eof-after-colon', parse_op, "%0 = test.p() :",
     "line 1:16: expected '(', found ''", 1, 16),
    ('eof-in-region', parse_module, "builtin.module() ({\n  test.op() : () -> ()\n",
     "line 3:1: expected 'IDENT', found ''", 3, 1),
    ('eof-in-attr-dict', parse_op, "test.op() {a = 1 : i32,",
     "line 1:24: expected 'IDENT', found ''", 1, 24),
    ('trailing-tokens', parse_op, "test.op() : () -> () test.op() : () -> ()",
     "line 1:22: expected 'EOF', found 'test.op'", 1, 22),
    ('undefined-value', parse_module, _module("  test.use(%nope) : (i32) -> ()"),
     'line 2:12: use of undefined value %nope', 2, 12),
    ('undefined-value-second-operand', parse_module, _module("  %0 = test.p() : () -> i32", "  test.use(%0, %gone) : (i32, i32) -> ()"),
     'line 3:16: use of undefined value %gone', 3, 16),
    ('value-out-of-scope-after-region', parse_module, _module("  test.wrap() ({", "    %in = test.p() : () -> i32", "  }) : () -> ()", "  test.use(%in) : (i32) -> ()"),
     'line 5:12: use of undefined value %in', 5, 12),
    ('operand-type-count', parse_module, _module("  %0 = test.p() : () -> i32", "  test.use(%0) : (i32, i32) -> ()"),
     'line 3:3: op test.use: 1 operands but 2 operand types', 3, 3),
    ('result-name-type-count', parse_module, _module("  %0, %1 = test.p() : () -> i32"),
     'line 2:12: op test.p: 2 results named but 1 result types', 2, 12),
    ('result-named-but-none', parse_module, _module("  %0 = test.p() : () -> ()"),
     'line 2:8: op test.p: 1 results named but 0 result types', 2, 8),
    ('missing-block-label', parse_op, "test.wrap() ({\n(%a: i32):\n  test.use(%a) : (i32) -> ()\n}) : () -> ()",
     "line 2:1: expected 'IDENT', found '('", 2, 1),
    ('missing-block-label-uses-arg', parse_module, _module("  test.wrap() ({", "    test.use(%a) : (i32) -> ()", "  }) : () -> ()"),
     'line 3:14: use of undefined value %a', 3, 14),
    ('non-module-top-level', parse_module, "test.op() : () -> ()",
     'expected builtin.module at top level, got test.op', 0, 0),
    ('non-module-top-level-line3', parse_module, "// header\n\ntest.op() : () -> ()\n",
     'expected builtin.module at top level, got test.op', 0, 0),
    ('line-gt-1-after-comments-and-blanks', parse_module, "// a comment\n\n// another\nbuiltin.module() ({\n\n  // inner comment\n  test.use(%missing) : (i32) -> ()\n}) : () -> ()\n",
     'line 7:12: use of undefined value %missing', 7, 12),
    ('nested-region-error', parse_module, _module("  test.outer() ({", "    test.mid() ({", "      %0 = test.p() : () -> i32", "      test.use(%0 %0) : (i32) -> ()", "    }) : () -> ()", "  }) : () -> ()"),
     "line 5:19: expected ')', found '%0'", 5, 19),
    ('nested-region-bad-type', parse_module, _module("  test.outer() ({", "  ^bb0(%a: 5):", "  }) : () -> ()"),
     "line 3:12: expected a type, found '5'", 3, 12),
    ('missing-op-name', parse_op, "%0 = (%1) : () -> ()",
     "line 1:6: expected 'IDENT', found '('", 1, 6),
    ('op-name-is-number', parse_op, "inf() : () -> ()",
     "line 1:1: expected 'IDENT', found 'inf'", 1, 1),
    ('missing-equals', parse_op, "%0 test.p() : () -> i32",
     "line 1:4: expected '=', found 'test.p'", 1, 4),
    ('result-list-bad', parse_op, "%0, x = test.p() : () -> (i32, i32)",
     "line 1:5: expected 'PERCENT', found 'x'", 1, 5),
    ('missing-open-paren', parse_op, "test.op : () -> ()",
     "line 1:9: expected '(', found ':'", 1, 9),
    ('operand-not-value', parse_op, "test.op(x) : () -> ()",
     "line 1:9: expected 'PERCENT', found 'x'", 1, 9),
    ('missing-close-paren', parse_module, _module("  %0 = test.p() : () -> i32", "  test.use(%0 : (i32) -> ()"),
     "line 3:15: expected ')', found ':'", 3, 15),
    ('missing-colon', parse_op, "test.op() () -> ()",
     "line 1:11: expected ':', found '('", 1, 11),
    ('missing-arrow', parse_op, "test.op() : () ()",
     "line 1:16: expected 'ARROW', found '('", 1, 16),
    ('expected-type', parse_op, "%0 = test.p() : () -> foo",
     "line 1:23: expected a type, found 'foo'", 1, 23),
    ('expected-type-eof', parse_op, "%0 = test.p() : () ->",
     "line 1:22: expected a type, found ''", 1, 22),
    ('expected-type-in-list', parse_op, "%0 = test.p() : () -> (i32, )",
     "line 1:29: expected a type, found ')'", 1, 29),
    ('attr-key-not-ident', parse_op, "test.op() {5 = 1 : i32} : () -> ()",
     "line 1:12: expected 'IDENT', found '5'", 1, 12),
    ('attr-key-shaped', parse_op, "test.op() {memref<4xi32> = 1 : i32} : () -> ()",
     "line 1:12: expected 'IDENT', found 'memref<4xi32>'", 1, 12),
    ('attr-missing-equals', parse_op, "test.op() {a 1 : i32} : () -> ()",
     "line 1:14: expected '=', found '1'", 1, 14),
    ('attr-missing-close', parse_op, "test.op() {a = 1 : i32 : () -> ()",
     "line 1:24: expected '}', found ':'", 1, 24),
    ('attr-value-missing', parse_op, "test.op() {a = } : () -> ()",
     "line 1:16: expected a type, found '}'", 1, 16),
    ('array-missing-close', parse_op, "test.op() {a = [1 : i32, 2 : i32} : () -> ()",
     "line 1:33: expected ']', found '}'", 1, 33),
    ('region-missing-close-paren', parse_op, "test.wrap() ({\n} : () -> ()",
     "line 2:3: expected ')', found ':'", 2, 3),
    ('block-arg-missing-colon', parse_op, "test.wrap() ({\n^bb0(%a i32):\n}) : () -> ()",
     "line 2:9: expected ':', found 'i32'", 2, 9),
    ('block-arg-not-value', parse_op, "test.wrap() ({\n^bb0(a: i32):\n}) : () -> ()",
     "line 2:6: expected 'PERCENT', found 'a'", 2, 6),
    ('block-label-missing-colon', parse_op, "test.wrap() ({\n^bb0(%a: i32)\n}) : () -> ()",
     "line 3:1: expected ':', found '}'", 3, 1),
    ('block-label-missing-paren', parse_op, "test.wrap() ({\n^bb0:\n}) : () -> ()",
     "line 2:5: expected '(', found ':'", 2, 5),
    ('tab-and-crlf-columns', parse_module, "builtin.module() ({\r\n\ttest.use(%missing) : (i32) -> ()\r\n}) : () -> ()\r\n",
     'line 2:11: use of undefined value %missing', 2, 11),
    # Errors inside an operand list, attribute dictionary or type signature
    # printed on one line, each of which the scanner takes as one token;
    # recorded before it did.
    ('bad-type-in-signature', parse_module, _module("  %0 = test.p() : () -> i32", "  %1 = test.use(%0) : (i32) -> (i32, foo)"),
     "line 3:38: expected a type, found 'foo'", 3, 38),
    ('malformed-type-in-signature', parse_module, _module("  %0 = test.p() : () -> i32", "  %1 = test.use(%0) : (i0) -> i32"),
     'line 3:24: integer width must be positive, got 0', 3, 24),
    ('undefined-value-third-operand', parse_module, _module("  %0 = test.p() : () -> i32", "  test.use(%0, %0, %gone) : (i32, i32, i32) -> ()"),
     'line 3:20: use of undefined value %gone', 3, 20),
    ('bad-value-in-dict', parse_op, "test.op() {a = 1 : i32, b = foo, c = 2 : i32} : () -> ()",
     "line 1:29: expected a type, found 'foo'", 1, 29),
    ('bad-type-in-nested-dict', parse_op, "test.op() {a = {b = 1 : i0}} : () -> ()",
     'line 1:25: integer width must be positive, got 0', 1, 25),
    ('lex-error-in-dict-beats-earlier-parse-error', parse_module, _module("  test.use(%nope) : (i32) -> ()", "  test.op() {a = 1 : i32, b = @x} : () -> ()"),
     "line 3:31: unexpected character '@'", 3, 31),
    ('function-type-result', parse_op, "%0 = test.p() : () -> (i32) -> i32",
     "line 1:29: expected 'EOF', found '->'", 1, 29),
    ('function-type-result-in-module', parse_module, _module("  %0 = test.p() : () -> (i32) -> i32"),
     "line 2:31: expected 'IDENT', found '->'", 2, 31),
    # A name is defined once per region, as in MLIR.
    ('redefinition', parse_module, _module("  %0 = test.p() : () -> i32", "  %0 = test.q() : () -> i32"),
     'line 3:3: redefinition of SSA value %0', 3, 3),
    ('redefinition-in-one-result-list', parse_op, "%a, %a = test.p() : () -> (i32, i32)",
     'line 1:5: redefinition of SSA value %a', 1, 5),
    ('redefinition-of-block-argument', parse_op, "test.wrap() ({\n^bb0(%a: i32, %a: i32):\n}) : () -> ()",
     'line 2:15: redefinition of SSA value %a', 2, 15),
    ('redefinition-of-block-argument-by-result', parse_module, _module("  test.wrap() ({", "  ^bb0(%a: i32):", "    %a = test.p() : () -> i32", "  }) : () -> ()"),
     'line 4:5: redefinition of SSA value %a', 4, 5),
]


class TestDiagnosticsGoldenTable:
    @pytest.mark.parametrize(
        "entry, source, message, line, column",
        [pytest.param(*row[1:], id=row[0]) for row in DIAGNOSTICS],
    )
    def test_row(self, entry, source, message, line, column):
        with pytest.raises(ParseError) as excinfo:
            entry(source)
        error = excinfo.value
        assert (str(error), error.line, error.column) == (message, line, column)


class TestParseOp:
    def test_single_op(self):
        op = parse_op('%0 = arith.constant() {value = 5 : i32} : () -> i32')
        assert op.name == "arith.constant"
        assert op.get_attr("value") == 5

    def test_equal_attribute_spellings_get_distinct_dicts(self):
        module = parse_module(_module(
            "  %0 = arith.constant() {value = 5 : i32} : () -> i32",
            "  %1 = arith.constant() {value = 5 : i32} : () -> i32",
        ))
        first, second = module.body.ops
        assert first.attributes == second.attributes
        assert first.attributes is not second.attributes
        # ``_stamp`` in the systolic generator rewrites a copy's value.
        first.set_attr("value", 7)
        assert (first.get_attr("value"), second.get_attr("value")) == (7, 5)

    def test_block_argument_may_shadow_an_outer_name(self):
        module = parse_module(_module(
            "  %a = test.p() : () -> i32",
            "  test.wrap() ({",
            "  ^bb0(%a: f32):",
            "    test.use(%a) : (f32) -> ()",
            "  }) : () -> ()",
            "  test.use(%a) : (i32) -> ()",
        ))
        outer, wrap, use = module.body.ops
        inner_use = wrap.body.ops[0]
        assert inner_use.operand(0) is wrap.body.arguments[0]
        assert use.operand(0) is outer.result()


class TestSpellingsLiveOnePass:
    SOURCE = _module(
        "  %0 = test.p() {k = 1 : i64} : () -> i32",
        "  %1 = test.q(%0) {k = 1 : i64} : (i32) -> i32",
        "  %2 = test.q(%1) {k = 2 : i64} : (i32) -> i32",
    )

    def test_each_spelling_is_read_once_per_parse(self, monkeypatch):
        reads = []
        for rule in ("parse_attr_dict", "parse_functional_type"):
            read = getattr(Parser, rule)

            def counting(parser, read=read, rule=rule):
                reads.append(rule)
                return read(parser)

            monkeypatch.setattr(Parser, rule, counting)
        expected = sorted(["parse_attr_dict"] * 2 + ["parse_functional_type"] * 3)
        parse_module(self.SOURCE)
        # Two dictionary spellings for three ops; three signature spellings
        # (the module's own included) for four.
        assert sorted(reads) == expected
        parse_module(self.SOURCE)  # nothing carried over
        assert sorted(reads) == sorted(expected * 2)

    def test_no_parser_state_outlives_a_parse(self, monkeypatch):
        module_state = {
            name: len(value) for name, value in vars(parser_module).items()
            if isinstance(value, (dict, list, set))
        }
        parsers = []
        init = Parser.__init__

        def tracked(parser, *args):
            parsers.append(weakref.ref(parser))
            init(parser, *args)

        monkeypatch.setattr(Parser, "__init__", tracked)
        parse_module(self.SOURCE)
        gc.collect()
        assert len(parsers) == 1 and parsers[0]() is None
        assert module_state == {
            name: len(value) for name, value in vars(parser_module).items()
            if isinstance(value, (dict, list, set))
        }
