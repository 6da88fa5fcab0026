"""Resilient scenario sweeps: journal resume, interruption, chaos plans.

Three guarantees under test, each phrased as bit-identity against the
uninterrupted ``jobs=1`` reference:

* a journaled sweep resumed after an interruption recomputes *only* the
  missing points (proved with a booby-trapped worker: resuming a
  complete journal must never call it);
* a cooperative cancel drains cleanly — everything reported completed
  is in the journal, and the resumed merge is bit-identical (held for
  every checkpoint kind at once by
  ``tests/integration/test_one_sweep_path.py``);
* drawn chaos plans (worker kills, chunk stalls, poisoned points fired
  *inside* pool workers) never change results, only cost recovery work.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.scenarios.sweep as sweep_module
from repro.scenarios import scenario_grid
from repro.scenarios.sweep import (
    run_scenario_sweep,
    scenario_point_export_record,
)
from repro.sim.batch import ResilienceStats
from repro.sim.journal import JournalError, load_journal
from tests.faults import SWEEP_KINDS, Fault, FaultPlan, injected, sweep_plans
from tests.faults import derandomized


def _canonical(points):
    """Bit-comparison form: export records (host timing stripped)."""
    return [scenario_point_export_record(point) for point in points]


@pytest.fixture(scope="module")
def grid():
    return scenario_grid("gemm")


@pytest.fixture(scope="module")
def reference(grid):
    """The uninterrupted ``jobs=1`` sweep every variant must match."""
    return _canonical(run_scenario_sweep(grid, jobs=1))


class TestJournalResume:
    def test_full_journal_resumes_with_zero_recompute(
        self, grid, reference, tmp_path, monkeypatch
    ):
        journal = tmp_path / "sweep.journal"
        run_scenario_sweep(grid, jobs=1, journal=journal)

        def boobytrap(payload):
            raise AssertionError(
                f"resume recomputed a journaled point: {payload!r}"
            )

        monkeypatch.setattr(
            sweep_module, "_scenario_sweep_worker", boobytrap
        )
        stats = ResilienceStats()
        resumed = run_scenario_sweep(
            grid, jobs=1, journal=journal, resume=True, runner_stats=stats
        )
        assert _canonical(resumed) == reference
        assert stats.points_resumed == len(reference)

    def test_resume_refuses_different_request(self, grid, tmp_path):
        journal = tmp_path / "sweep.journal"
        run_scenario_sweep(grid, jobs=1, journal=journal)
        with pytest.raises(JournalError):
            run_scenario_sweep(
                grid, jobs=1, seed=1, journal=journal, resume=True
            )

    def test_journal_from_parallel_run_resumes_serial(
        self, grid, reference, tmp_path
    ):
        # A jobs=2 run killed mid-sweep (its journal cut back to the
        # header and the first two points to land, in pool completion
        # order), resumed with jobs=1: the journal is execution-mode
        # agnostic.  (Cancelling a live pool instead would race it: on
        # a loaded host every chunk can finish between two polls.)
        journal = tmp_path / "sweep.journal"
        run_scenario_sweep(grid, jobs=2, journal=journal)
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(b"".join(lines[:3]))
        stats = ResilienceStats()
        resumed = run_scenario_sweep(
            grid, jobs=1, journal=journal, resume=True, runner_stats=stats
        )
        assert _canonical(resumed) == reference
        assert stats.points_resumed == 2


POINTS = scenario_grid("gemm").count()


def _check_sweep_plan(plan, grid, reference):
    with tempfile.TemporaryDirectory() as state:
        plan.state_dir = state  # fresh tickets for every drawn plan
        with injected(plan):
            points = run_scenario_sweep(
                grid, jobs=2, chunk_deadline_s=1.0  # below every stall's delay
            )
    assert _canonical(points) == reference, plan.to_json()


class TestSweepChaos:
    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    @derandomized(2)  # x 3 kinds = 6 plans
    @given(data=st.data())
    def test_drawn_plan_is_bit_identical(self, grid, reference, kind, data):
        _check_sweep_plan(data.draw(sweep_plans(POINTS, first=kind)), grid, reference)

    @pytest.mark.slow
    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    @derandomized(10)  # x 3 kinds = 30 plans
    @given(data=st.data())
    def test_drawn_plan_is_bit_identical_deeply(
        self, grid, reference, kind, data
    ):
        _check_sweep_plan(data.draw(sweep_plans(POINTS, first=kind)), grid, reference)

    def test_chaos_with_journal_checkpoints_survive(
        self, grid, reference, tmp_path
    ):
        journal = tmp_path / "sweep.journal"
        # Two chunk stalls, each killed at the chunk deadline.
        plan = FaultPlan(
            [
                Fault("batch.chunk", "slow", after=2, delay_s=2.0),
                Fault("batch.chunk", "slow", after=1, delay_s=2.0),
            ],
            state_dir=str(tmp_path / "faults"),
        )
        with injected(plan):
            points = run_scenario_sweep(
                grid, jobs=2, journal=journal, chunk_deadline_s=1.0
            )
        assert _canonical(points) == reference
        # Every point the chaotic run produced was durably journaled.
        _, journaled, _, dropped = load_journal(journal)
        assert dropped == 0
        assert len(journaled) == len(reference)
