"""Line budgets for the engine core and the service lifecycle: ratchets,
not style rules.

ROADMAP item 3 wants the op semantics stated once and the three files
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
memref types keyed by rank and element — ``plan.py`` +6); 2 779 once a
stamped launch body binds to its class representative's shape (a
lockstep walk beside the representative in place of a key walk, the
site's shape on ``BodySite``, the stamp relation on the cache —
``plan.py`` +22); 2 776 once a queued entry stopped stamping the issue,
ready and end times nothing read (``engine.py`` −3); 2 886 once a launch
site issues through code made for it and a generated body writes env
only for a reader (``engine.py`` +28: the issue function's generator
and its slow capture path in place of the capture loop; ``codegen.py``
+82: what a replay reads, the spill before it and the env writes that
wait for the body's readers, in place of the write-through and the
flattening depth); 2 901 once the compile cache holds a bounded number
of programs (``plan.py`` +18: ``PlanCache.forget``, the step that drops
what was compiled for an evicted program's blocks, the shapes it
represented and the cycles its plans held, and names the bodies of other
programs bound to those shapes); 2 960 once a fork–join step (a run of
launches, their ``control_and`` and its ``await``) is one plan step
(``engine.py`` +43: a launch site of several members, their layout of
distinct dependencies, targets and captures as the key of the issue
code, and the countdown they share; ``plan.py`` +26: ``step_ops``, the
one walk from ops to steps, with the fork–join match and the structure
op check; ``codegen.py`` −10: its own copy of that walk gone); 2 961
once the table of launch-issue code holds a layout's code only while a
site uses it (``engine.py`` +1: the ``weakref`` import, as
``codegen._SHAPES`` already has); 3 056 once a launch entry carries its
captures, not a dict (``codegen.py`` +84: a launch body's captures as
its parameters and its prologue without loads, the slow paths marked
where they are emitted, what a slow path binds in the one ``_cold``
namespace rather than as a default argument — plans bound where a slow
path names them — the env a launch body builds only where a slow path
or a line outside one reads it, and ``equeue.op`` results as locals;
``engine.py`` +8: the
dispatcher calls a generated body with the entry's values and builds
the plan tier's env of them, and the top block is an entry of its own
kind; ``plan.py`` +3: ``entry_env``, the one env of a launch body, and
a tier-up entered with its captures — less the per-entry ``plan_for``,
the issue's dict display and its per-member block-argument defaults);
3 001 once a waiting access is stated once (``engine.py`` −54: the
handlers return ``plan._blocked_read``/``_blocked_write`` in place of
four booking generators of their own, a write is put as array, target
and element in place of a per-call store closure, the posted and the
free branches of both handlers are one ``_unstalled`` charge, and one
wrapper keeps the detailed trace's record; ``plan.py`` −4: a blocked
ndarray write reshapes its element instead of taking the handler;
``codegen.py`` +3: a suspending body's wait is ``yield from`` the same
generator, in place of its own booking text).

ROADMAP item 4 wants the service core an explicit state machine over
one log; :data:`LIFECYCLE` pins its files the same way.  Readings: 1 507
before the PR that added this group (``scheduler.py`` 1 101, ``wal.py``
259, ``journal.py`` 94, ``linecodec.py`` 53), which made a job end in
one place and both logs one class; 1 424 after it; 1 421 once a store
hit stopped writing the WAL (the folded-hit writer left, and a hit id
resolves through the store it names); 1 461 once a store hit became one
verified read (``scheduler.py`` +40: a request resolves once per
spelling, a hit is a job made settled from its line and indexed nowhere,
a hit id reports the request its record names, and a submit whose read
missed reads again when a job settled meanwhile — less the hit's by-id
indexing, its trip through ``_settle`` and ``admit``); 1 463 once a
batch's pool recovery reaches ``/stats`` (``scheduler.py`` +2: each
batch runner's resilience counters merge under the lock, as a sweep's
do); 1 418 once a crash is caught in the job that raised it
(``scheduler.py`` −45: the batch's recursive halving and its two
counters go, and a batch and a sweep run through one method — less the
seed and check validation and the one request-from-body function it
gained); 1 087 once the lifecycle holds each fact once, in two
separate numbers.  The move: the request model (295 code lines) left
``scheduler.py`` for ``service/request.py``, which is not a lifecycle
file (it holds no job and no lock).  The cuts: ``scheduler.py`` −36 —
a job's deadline rides on the job, so the watchdog walks the drains and
``_active``/``_watch``/``_unwatch`` go; a job's outcome has one lock;
recovery indexes terminal WAL records as read, and its summary reads
the counters; submit and replay queue through one ``_enqueue``; and a
submit coalesces in one place.  ``src/`` as a whole −26.  1 084 once
a stop wakes the watchdog (``scheduler.py`` −3: the stop flag is an
event the worker reads and the watchdog sleeps on, in place of a flag
checked under the lock and a plain sleep).
"""

from __future__ import annotations

import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
CORE = ("sim/engine.py", "sim/plan.py", "sim/codegen.py")
BUDGET = 3001
#: The job lifecycle and the append-only log under the WAL and the sweep
#: journal.
LIFECYCLE = (
    "service/scheduler.py", "service/wal.py", "sim/journal.py",
    "sim/linecodec.py",
)
LIFECYCLE_BUDGET = 1084
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


def assert_inside(files, budget: int, name: str) -> None:
    total = sum(code_lines((SRC / path).read_text()) for path in files)
    assert total <= budget, (
        f"{' + '.join(files)} hold {total} code lines, over the budget of "
        f"{budget}: raise {name} (and add the reading to the docstring) on "
        "purpose, in the PR that grew them"
    )
    # A budget nobody comes near is not a budget.
    assert total > budget - SLACK, (
        f"{' + '.join(files)} shrank to {total} code lines: lower {name} "
        "to keep it"
    )


def test_the_engine_core_stays_inside_its_budget():
    assert_inside(CORE, BUDGET, "BUDGET")


def test_the_service_lifecycle_stays_inside_its_budget():
    assert_inside(LIFECYCLE, LIFECYCLE_BUDGET, "LIFECYCLE_BUDGET")
