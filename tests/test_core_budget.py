"""The engine core's line budget: a ratchet, not a style rule.

ROADMAP item 2 wants the op semantics stated once and the three files
that state them today — ``sim/engine.py``, ``sim/plan.py``,
``sim/codegen.py`` — down by a third.  This pins the sum of their *code*
lines (a line holding at least one token that is not a comment, a
docstring or layout: what ``tokenize`` sees, so rewording a comment never
trips it) at the reading of the PR that last moved it.  A PR that grows
the core has to raise the number on purpose, and say why; one that
shrinks it lowers the number so the next cannot quietly take the room
back.  After ``tests/ir/test_diet.py``'s allocation budget.

Readings: 3 283 at PR 19 (the parent of the PR that added this gate,
which deleted the NumPy vectoriser of ``affine.for``); 2 751 after it;
2 757 with one plan cache per compile cache (PR 22: a table of plans
per engine configuration where ``attach`` used to flush, ``clear``, and
memref types keyed by rank and element — ``plan.py`` +6).
"""

from __future__ import annotations

import io
import tokenize
from pathlib import Path

SIM = Path(__file__).resolve().parents[1] / "src" / "repro" / "sim"
CORE = ("engine.py", "plan.py", "codegen.py")
BUDGET = 2757
#: How far under the budget the count may sit before the budget has to
#: follow it down.
SLACK = 40

_LAYOUT = (
    tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
)


def code_lines(source: str) -> int:
    """Lines of ``source`` holding code: not blank, not comment-only,
    not part of a docstring (a string that is a whole statement)."""
    tokens = [
        token
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type not in (tokenize.COMMENT, tokenize.NL)
    ]
    lines = set()
    for before, token, after in zip([None, *tokens], tokens, tokens[1:]):
        if token.type in _LAYOUT:
            continue
        if (
            token.type == tokenize.STRING
            and (before is None or before.type in _LAYOUT)
            and after.type == tokenize.NEWLINE
        ):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def test_the_counter_counts_code():
    assert code_lines(
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "x = 1  # trailing comments do not matter\n"
        "def f():\n"
        '    """Docstring."""\n'
        "    return (\n"
        '        "a string that is not a docstring"\n'
        "    )\n"
    ) == 5


def test_the_engine_core_stays_inside_its_budget():
    total = sum(code_lines((SIM / name).read_text()) for name in CORE)
    assert total <= BUDGET, (
        f"engine.py + plan.py + codegen.py hold {total} code lines, over "
        f"the budget of {BUDGET}: raise BUDGET (and add the reading to the "
        "docstring) on purpose, in the PR that grew the core"
    )
    # A budget nobody comes near is not a budget.
    assert total > BUDGET - SLACK, (
        f"the core shrank to {total} code lines: lower BUDGET to keep it"
    )
