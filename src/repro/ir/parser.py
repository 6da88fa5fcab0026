"""Textual IR parser: the inverse of :mod:`repro.ir.printer`.

One compiled scanner regex turns the source into a flat list of token
strings in a single ``findall`` (whitespace and comments are skipped inside
the pattern; a shaped type such as ``memref<4x4xi32>`` is one token), and a
recursive-descent parser walks that list comparing token text directly.
No positions are kept: a :class:`ParseError` re-scans the source to locate
the offending token, so well-formed input never pays for diagnostics.

``parse_module(print_op(m))`` reconstructs an isomorphic module; the
round-trip property is enforced by the test suite (including a
hypothesis-driven random-program test).
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Callable, Dict, List, Tuple

from .attributes import (
    UNIT,
    ArrayAttr,
    Attribute,
    DictAttr,
    FloatAttr,
    TypeAttr,
    bool_attr,
    integer_attr,
    string_attr,
)
from .block import Block
from .diagnostics import IRError, ParseError
from .module import ModuleOp
from .operation import Operation
from .region import Region
from .types import FloatType, FunctionType, Type, type_from_spelling
from .values import Value

# ---------------------------------------------------------------------------
# Scanner
# ---------------------------------------------------------------------------

_SKIP = r"(?:[ \t\r\n]+|//[^\n]*)*"
_TOKEN = "|".join(
    (
        r"[(){}\[\]<>,=:]",
        r"[%^][A-Za-z0-9_.$-]+",
        r"->",
        # inf/nan need the word boundary so identifiers such as "infx"
        # still scan as identifiers rather than "inf" + "x".
        r"-?(?:\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d+|inf\b|nan\b)",
        # A shaped type literal, nested ones included, is one token.
        r"(?:memref|tensor)<[A-Za-z0-9_.$?!<>]*>",
        r"(?!(?:memref|tensor)<)!?[A-Za-z_][A-Za-z0-9_.$]*",
        r'"(?:[^"\\]|\\.)*"',
    )
)
# Group 1 is the token.  The two uncaptured alternatives -- a shaped literal
# that never closes, any other character -- make ``findall`` yield "" there,
# which the parser reports as a lexical error.  Every match swallows the
# whitespace and comments after it, so matches tile the source.
_SCAN = re.compile(rf"(?:({_TOKEN})|(?:memref|tensor)<|[^ \t\r\n]){_SKIP}")
_LEADING = re.compile(_SKIP)

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NUMBER_START = frozenset("0123456789-")


def _is_ident(tok: str) -> bool:
    return tok[:1] in _IDENT_START and tok[-1] != ">"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class Parser:
    """Recursive-descent parser over the scanned token strings."""

    def __init__(self, source: str):
        self.source = source
        self.start = _LEADING.match(source).end()
        #: Token texts, closed by "" for end of input.
        self.toks: List[str] = _SCAN.findall(source, self.start)
        self.pos = 0
        if "" in self.toks:
            raise self._lexical_error(self.toks.index(""))
        self.toks.append("")
        # Stack of value scopes: innermost last.  Block arguments shadow
        # outer names; scopes pop when their region finishes.
        self.scopes: List[Dict[str, Value]] = [{}]

    # -- diagnostics -------------------------------------------------------

    def _offset(self, index: int) -> int:
        matches = _SCAN.finditer(self.source, self.start)
        match = next(islice(matches, index, None), None)
        return len(self.source) if match is None else match.start()

    def error(self, message: str, index: int = -1) -> ParseError:
        """A ``ParseError`` at token ``index`` (default: the current one)."""
        offset = self._offset(self.pos if index < 0 else index)
        line_start = self.source.rfind("\n", 0, offset) + 1
        line = self.source.count("\n", 0, offset) + 1
        return ParseError(message, line, offset - line_start + 1)

    def expected(self, want: str, index: int = -1) -> ParseError:
        found = self.toks[self.pos if index < 0 else index]
        return self.error(f"expected {want or 'EOF'!r}, found {found!r}", index)

    def _lexical_error(self, index: int) -> ParseError:
        offset = self._offset(index)
        if self.source.startswith(("memref<", "tensor<"), offset):
            return self.error("unbalanced '<' in type literal", index)
        return self.error(f"unexpected character {self.source[offset]!r}", index)

    # -- token helpers -----------------------------------------------------

    def expect(self, text: str) -> None:
        if self.toks[self.pos] != text:
            raise self.expected(text)
        self.pos += 1

    def _list(self, close: str, item: Callable[[], object]) -> list:
        """``item (',' item)* close`` or a bare ``close``: the items."""
        items = []
        if self.toks[self.pos] != close:
            items.append(item())
            while self.toks[self.pos] == ",":
                self.pos += 1
                items.append(item())
        self.expect(close)
        return items

    # -- value scoping -----------------------------------------------------

    def define_value(self, name: str, value: Value) -> None:
        value.name_hint = name
        self.scopes[-1][name] = value

    def _value_use(self) -> Value:
        tok = self.toks[self.pos]
        if tok[:1] != "%":
            raise self.expected("PERCENT")
        name = tok[1:]
        for scope in reversed(self.scopes):
            if name in scope:
                self.pos += 1
                return scope[name]
        raise self.error(f"use of undefined value %{name}")

    # -- entry point -------------------------------------------------------

    def parse_module(self) -> ModuleOp:
        op = self.parse_operation()
        self.expect("")
        if not isinstance(op, ModuleOp):
            raise ParseError(f"expected builtin.module at top level, got {op.name}")
        return op

    # -- operations --------------------------------------------------------

    def parse_operation(self) -> Operation:
        toks = self.toks
        pos = self.pos
        result_names: List[str] = []
        if toks[pos][:1] == "%":
            result_names.append(toks[pos][1:])
            pos += 1
            while toks[pos] == ",":
                if toks[pos + 1][:1] != "%":
                    raise self.expected("PERCENT", pos + 1)
                result_names.append(toks[pos + 1][1:])
                pos += 2
            if toks[pos] != "=":
                raise self.expected("=", pos)
            pos += 1
        name_pos = pos
        op_name = toks[pos]
        if not _is_ident(op_name) or op_name in ("inf", "nan"):
            raise self.expected("IDENT", pos)
        if toks[pos + 1] != "(":
            raise self.expected("(", pos + 1)
        self.pos = pos + 2
        operands = self._list(")", self._value_use)

        regions: List[Region] = []
        # An opening '(' introduces a region list iff the next token is '{'.
        if toks[self.pos] == "(" and toks[self.pos + 1] == "{":
            self.pos += 1
            regions = self._list(")", self.parse_region)
        attributes: Dict[str, Attribute] = {}
        if toks[self.pos] == "{":
            attributes = self.parse_attr_dict()
        self.expect(":")
        in_types, out_types = self.parse_functional_type()
        if len(in_types) != len(operands):
            raise self.error(
                f"op {op_name}: {len(operands)} operands but "
                f"{len(in_types)} operand types",
                name_pos,
            )
        if result_names and len(result_names) != len(out_types):
            raise self.error(
                f"op {op_name}: {len(result_names)} results named but "
                f"{len(out_types)} result types",
                name_pos,
            )

        op = Operation.create(op_name, operands, out_types, {}, regions)
        op.attributes = attributes
        for result, rname in zip(op.results, result_names):
            self.define_value(rname, result)
        return op

    # -- regions & blocks --------------------------------------------------

    def parse_region(self) -> Region:
        self.expect("{")
        region = Region()
        self.scopes.append({})
        while self.toks[self.pos] != "}":
            region.append(self.parse_block())
        self.pos += 1
        self.scopes.pop()
        return region

    def parse_block(self) -> Block:
        block = Block()
        toks = self.toks
        if toks[self.pos][:1] == "^":
            block.label = toks[self.pos][1:]
            self.pos += 1
            self.expect("(")
            self._list(")", lambda: self._parse_block_arg(block))
            self.expect(":")
        while toks[self.pos] != "}" and toks[self.pos][:1] != "^":
            block.append(self.parse_operation())
        return block

    def _parse_block_arg(self, block: Block) -> None:
        tok = self.toks[self.pos]
        if tok[:1] != "%":
            raise self.expected("PERCENT")
        self.pos += 1
        self.expect(":")
        self.define_value(tok[1:], block.add_argument(self.parse_type()))

    # -- attributes --------------------------------------------------------

    def parse_attr_dict(self) -> Dict[str, Attribute]:
        self.expect("{")
        return dict(self._list("}", self._parse_attr_entry))

    def _parse_attr_entry(self) -> Tuple[str, Attribute]:
        # "inf"/"nan" scan as numbers but are legal attribute *names* too.
        key = self.toks[self.pos]
        if not _is_ident(key):
            raise self.expected("IDENT")
        self.pos += 1
        self.expect("=")
        return key, self.parse_attr()

    def parse_attr(self) -> Attribute:
        tok = self.toks[self.pos]
        first = tok[:1]
        if first in _NUMBER_START and tok != "->" or tok in ("inf", "nan"):
            return self._parse_number_attr(tok)
        if first == '"':
            self.pos += 1
            body = tok[1:-1]
            if "\\" in body:
                body = body.replace('\\"', '"').replace("\\\\", "\\")
            return string_attr(body)
        if tok in ("true", "false"):
            self.pos += 1
            return bool_attr(tok == "true")
        if tok == "unit":
            self.pos += 1
            return UNIT
        if tok == "[":
            self.pos += 1
            return ArrayAttr(tuple(self._list("]", self.parse_attr)))
        if tok == "{":
            return DictAttr(tuple(self.parse_attr_dict().items()))
        # Fall back to a type attribute.
        return TypeAttr(self.parse_type())

    def _parse_number_attr(self, tok: str) -> Attribute:
        number_pos = self.pos
        self.pos += 1
        if self.toks[self.pos] != ":":
            if tok.lstrip("-").isdigit():
                return integer_attr(int(tok))
            return FloatAttr(float(tok))
        self.pos += 1
        attr_type = self.parse_type()
        try:
            if isinstance(attr_type, FloatType):
                return FloatAttr(float(tok), attr_type)
            return integer_attr(int(tok), attr_type)
        except (ValueError, IRError) as error:
            raise self.error(str(error), number_pos) from None

    # -- types -------------------------------------------------------------

    def parse_functional_type(self) -> Tuple[List[Type], List[Type]]:
        self.expect("(")
        in_types = self._list(")", self.parse_type)
        if self.toks[self.pos] != "->":
            raise self.expected("ARROW")
        self.pos += 1
        if self.toks[self.pos] != "(":
            return in_types, [self.parse_type()]
        self.pos += 1
        return in_types, self._list(")", self.parse_type)

    def parse_type(self) -> Type:
        tok = self.toks[self.pos]
        if tok == "(":
            in_types, out_types = self.parse_functional_type()
            return FunctionType(tuple(in_types), tuple(out_types))
        try:
            found = type_from_spelling(tok)
        except IRError as error:
            raise self.error(str(error)) from None
        self.pos += 1
        return found


def parse_type_literal(text: str, line: int = 0, column: int = 0) -> Type:
    """Parse a shaped type literal such as ``memref<4x?xi32>``."""
    try:
        return type_from_spelling(text)
    except IRError as error:
        raise ParseError(str(error), line, column) from None


def parse_module(source: str) -> ModuleOp:
    """Parse a full module from its textual form."""
    return Parser(source).parse_module()


def parse_op(source: str) -> Operation:
    """Parse a single (possibly nested) operation."""
    parser = Parser(source)
    op = parser.parse_operation()
    parser.expect("")
    return op
