"""The dispatcher is iterative.

A processor's event-queue loop used to be a generator under
``kernel.Process``; it is now a dispatcher of plain scheduler callbacks
(:class:`repro.sim.engine._Dispatcher`).  The generator was deleted, not
kept beside, so the oracle is a recording of it —
``tests/sim/data/dispatch_recorded.json``, which
``tests/sim/test_backend_matrix.py`` replays on every backend.

The burst test below is the bug the first callback dispatcher hit: a
body that completes without yielding must hand its value back to the
dispatch *loop*; re-entering the dispatcher from the driver's completion
dies with ``RecursionError`` a few thousand launches in.
"""

from __future__ import annotations

import pytest

from tests.differential import agree, burst


@pytest.mark.parametrize("returning", [False, True], ids=["plain", "returning"])
def test_five_thousand_zero_cycle_launches_on_one_processor(returning):
    for done in agree(lambda: burst(5000, returning=returning)).values():
        summary = done.summary
        assert (done.result.cycles, summary.scheduler_events) == (0, 7)
        assert summary.launches_executed == 5002
        assert [
            (p.name, p.executed_events) for p in done.engine.processors
        ] == [("kernel", 1), ("pe", 5000), ("host", 1)]
