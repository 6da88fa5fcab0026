"""Textual IR parser: the inverse of :mod:`repro.ir.printer`.

The printer writes an op on one line,
``%r = name(%a, %b) {k = v, ...} : (t, t) -> t``.  One compiled scanner
regex turns the source into a flat list of token strings in a single
``findall`` (whitespace and comments are skipped inside the pattern), and
it takes each of the three one-line parts of that form as *one* token:

* an operand list ``(%a, %b)`` (``()`` included);
* an attribute dictionary ``{k = v, ...}`` with no brace, comment or line
  break inside (a string may hold anything but a line break);
* a type signature ``: (t, t) -> t`` or ``: (t) -> (t, t)`` with no
  parenthesis inside its type lists.

A printed op is thus about six tokens (``%r``, ``=``, the name and the
three).  Everything else -- regions, block labels, a dictionary that nests,
holds a comment or spans lines, a signature holding a function type --
scans token by token: a shaped type such as ``memref<4x4xi32>`` is one
token, every other token is an identifier, number, string, value name or
one punctuation character.

A recursive-descent parser walks that list comparing token text directly,
with one grammar for both kinds of token.  Each distinct dictionary and
signature spelling is read once per parse: its text is scanned token by
token and read by the same :meth:`Parser.parse_attr_dict` or
:meth:`Parser.parse_functional_type` that reads such text elsewhere, and
the result is remembered for the rest of that parse only; each op gets
its own copy of the dictionary.  Value names resolve in one
flat dict, and each region keeps an undo log of the names it defined and
the outer values they shadowed.  Ops are built slot by slot, the way
:meth:`Operation.clone` builds them.

No positions are kept.  A parse that fails is run again over the
token-by-token scan alone, and that run's :class:`ParseError` is raised: it
names the offending token itself, not the one-line part holding it, and
re-scans the source to locate it.  Well-formed input never pays for a
diagnostic; a lexical error anywhere still beats an earlier parse error.

A parse is construction: everything it allocates is still alive when it
returns, so an automatic collection during it would only re-walk the
module being built.  :func:`parse_module` and :func:`parse_op` therefore
run with collection held off (:func:`repro.permanent.paused`), and leave
the collector as they found it on every way out.

``parse_module(print_op(m))`` reconstructs an isomorphic module; the
round-trip property is enforced by the test suite (including a
hypothesis-driven random-program test).
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Callable, Dict, List, Optional, Tuple

from .. import permanent
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
from .operation import Operation, lookup_op_class
from .region import Region
from .types import FloatType, FunctionType, Type, type_from_spelling
from .values import OpOperand, OpResult, Value

# ---------------------------------------------------------------------------
# Scanner
# ---------------------------------------------------------------------------

_SKIP = r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*"
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
_TYPES = r"\((?:[A-Za-z0-9_.$?!<>]+(?:, [A-Za-z0-9_.$?!<>]+)*)?\)"
#: The one-line operand list, attribute dictionary and type signature.
_ONE_LINE = "|".join(
    (
        r"\((?:%[A-Za-z0-9_.$-]+(?:, %[A-Za-z0-9_.$-]+)*)?\)",
        r'\{[A-Za-z_][A-Za-z0-9_.$]* = (?:[^{}\n/"]|"(?:[^"\\\n]|\\.)*")*\}',
        # Only where an op's signature stands: after its ')' or '}'.
        rf":(?<=[)}}] :) {_TYPES} -> (?:{_TYPES}|[A-Za-z0-9_.$?!<>]+)",
    )
)


def _scanner(token: str) -> "re.Pattern[str]":
    # Group 1 is the token.  The two uncaptured alternatives -- a shaped
    # literal that never closes, any other character -- make ``findall``
    # yield "" there, which the parser reports as a lexical error.  Every
    # match swallows the whitespace and comments after it, so matches tile
    # the source.
    return re.compile(rf"(?:({token})|(?:memref|tensor)<|[^ \t\r\n]){_SKIP}")


_SCAN = _scanner(f"{_ONE_LINE}|{_TOKEN}")
#: Token by token: a one-line token's own text, and a failed parse.
_FINE = _scanner(_TOKEN)
_LEADING = re.compile(_SKIP)

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NUMBER_START = frozenset("0123456789-")

_new = object.__new__


def _is_ident(tok: str) -> bool:
    return tok[:1] in _IDENT_START and tok[-1] != ">"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class Parser:
    """Recursive-descent parser over the scanned token strings.

    An error inside a one-line token is reported at that token;
    :func:`parse_module` and :func:`parse_op` then read the text again
    with :class:`_TokenByToken` to name the offending one.
    """

    scanner = _SCAN

    def __init__(self, source: str):
        self.source = source
        self.start = _LEADING.match(source).end()
        #: Token texts, closed by "" for end of input.
        self.toks: List[str] = self.scanner.findall(source, self.start)
        self.pos = 0
        if "" in self.toks:
            raise self._lexical_error(self.toks.index(""))
        self.toks.append("")
        #: Every visible value by name.
        self.names: Dict[str, Value] = {}
        #: The current region's undo log: each name it defined, mapped to
        #: the outer value that name shadows (None: none).
        self.defined: Dict[str, Optional[Value]] = {}
        #: One-line dictionary or signature spelling -> what it reads as.
        self.spellings: Dict[str, object] = {}

    # -- diagnostics -------------------------------------------------------

    def _offset(self, index: int) -> int:
        matches = self.scanner.finditer(self.source, self.start)
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

    def _parens(self, item: Callable[[], object]) -> list:
        """``'(' item (',' item)* ')'`` -- or the one token ``()``."""
        if self.toks[self.pos] == "()":
            self.pos += 1
            return []
        self.expect("(")
        return self._list(")", item)

    def _spelled(self, rule: Callable[[], object]):
        """What the one-line token at the cursor reads as under ``rule``
        (its text scanned token by token), read once per parse."""
        tok = self.toks[self.pos]
        value = self.spellings.get(tok)
        if value is None:
            toks, pos = self.toks, self.pos
            self.toks = _FINE.findall(tok)
            # A lexical error as its last token would read as end of input.
            if "" in self.toks:
                raise self.error(f"unexpected character in {tok!r}")
            self.toks.append("")
            self.pos = 0
            value = rule()
            self.expect("")
            self.toks, self.pos = toks, pos
            self.spellings[tok] = value
        self.pos += 1
        return value

    # -- value scoping -----------------------------------------------------

    def define_value(self, name: str, value: Value, index: int) -> None:
        """Bind ``name`` (its token at ``index``) in the current region."""
        if name in self.defined:
            raise self.error(f"redefinition of SSA value %{name}", index)
        self.defined[name] = self.names.get(name)
        self.names[name] = value
        value.name_hint = name

    def _value_use(self) -> Value:
        tok = self.toks[self.pos]
        if tok[:1] != "%":
            raise self.expected("PERCENT")
        value = self.names.get(tok[1:])
        if value is None:
            raise self.error(f"use of undefined value {tok}")
        self.pos += 1
        return value

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
        pos = first = self.pos
        tok = toks[pos]
        result_names: List[str] = []
        if tok[:1] == "%":
            result_names.append(tok[1:])
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
        tok = toks[pos + 1]
        self.pos = pos + 2
        if tok[:2] == "(%":
            names = self.names
            try:
                operands = [names[name] for name in tok[2:-1].split(", %")]
            except KeyError as missing:
                raise self.error(f"use of undefined value %{missing.args[0]}") from None
        elif tok == "()":
            operands = []
        elif tok == "(":
            operands = self._list(")", self._value_use)
        else:
            raise self.expected("(", pos + 1)

        regions: List[Region] = []
        # An opening '(' introduces a region list iff the next token is '{'.
        if toks[self.pos] == "(" and toks[self.pos + 1] == "{":
            self.pos += 1
            regions = self._list(")", self.parse_region)
        tok = toks[self.pos]
        if tok == "{":
            attributes = self.parse_attr_dict()
        elif tok[:1] == "{":
            attributes = self._spelled(self.parse_attr_dict).copy()
        else:
            attributes = {}
        tok = toks[self.pos]
        if tok[:1] == ":" and tok != ":":
            in_types, out_types = self._spelled(self._signature)
        else:
            in_types, out_types = self._signature()
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

        # Slot by slot, as ``Operation.clone`` builds a copy.
        op = _new(lookup_op_class(op_name) or Operation)
        op.name = op_name
        op.parent = None
        op.attributes = attributes
        if operands:
            op.operands = uses = []
            for index, value in enumerate(operands):
                operand = _new(OpOperand)
                operand.owner = op
                operand.index = index
                operand.value = value
                if value.uses:
                    value.uses.append(operand)
                else:
                    value.uses = [operand]
                uses.append(operand)
        else:
            op.operands = ()
        results = []
        for index, result_type in enumerate(out_types):
            result = _new(OpResult)
            result.type = result_type
            result.uses = ()
            result.name_hint = None
            result.owner = op
            result.index = index
            results.append(result)
        op.results = tuple(results)
        op.regions = regions = tuple(regions)
        for region in regions:
            region.parent = op
        for index, name in enumerate(result_names):
            self.define_value(name, results[index], first + 2 * index)
        return op

    # -- regions & blocks --------------------------------------------------

    def parse_region(self) -> Region:
        self.expect("{")
        region = Region()
        outer, self.defined = self.defined, {}
        while self.toks[self.pos] != "}":
            region.append(self.parse_block())
        self.pos += 1
        names = self.names
        for name, shadowed in self.defined.items():
            if shadowed is None:
                del names[name]
            else:
                names[name] = shadowed
        self.defined = outer
        return region

    def parse_block(self) -> Block:
        block = Block()
        toks = self.toks
        if toks[self.pos][:1] == "^":
            block.label = toks[self.pos][1:]
            self.pos += 1
            self._parens(lambda: self._parse_block_arg(block))
            self.expect(":")
        while toks[self.pos] != "}" and toks[self.pos][:1] != "^":
            block.append(self.parse_operation())
        return block

    def _parse_block_arg(self, block: Block) -> None:
        name_pos = self.pos
        tok = self.toks[name_pos]
        if tok[:1] != "%":
            raise self.expected("PERCENT")
        self.pos += 1
        self.expect(":")
        self.define_value(tok[1:], block.add_argument(self.parse_type()), name_pos)

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
        if first == "{":
            return DictAttr(tuple(self._spelled(self.parse_attr_dict).items()))
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

    def _signature(self) -> Tuple[List[Type], List[Type]]:
        self.expect(":")
        return self.parse_functional_type()

    def parse_functional_type(self) -> Tuple[List[Type], List[Type]]:
        in_types = self._parens(self.parse_type)
        if self.toks[self.pos] != "->":
            raise self.expected("ARROW")
        self.pos += 1
        if self.toks[self.pos][:1] != "(":
            return in_types, [self.parse_type()]
        return in_types, self._parens(self.parse_type)

    def parse_type(self) -> Type:
        tok = self.toks[self.pos]
        if tok[:1] == "(":
            in_types, out_types = self.parse_functional_type()
            return FunctionType(tuple(in_types), tuple(out_types))
        try:
            found = type_from_spelling(tok)
        except IRError as error:
            raise self.error(str(error)) from None
        self.pos += 1
        return found


class _TokenByToken(Parser):
    """The same descent over the token-by-token scan, which a failed parse
    is read again with: its error names the offending token itself."""

    scanner = _FINE


def _parse(source: str, rule: Callable[[Parser], Operation]) -> Operation:
    with permanent.paused():
        try:
            return rule(Parser(source))
        except ParseError:
            pass
        return rule(_TokenByToken(source))


def parse_module(source: str) -> ModuleOp:
    """Parse a full module from its textual form."""
    return _parse(source, Parser.parse_module)


def _single_op(parser: Parser) -> Operation:
    op = parser.parse_operation()
    parser.expect("")
    return op


def parse_op(source: str) -> Operation:
    """Parse a single (possibly nested) operation."""
    return _parse(source, _single_op)
