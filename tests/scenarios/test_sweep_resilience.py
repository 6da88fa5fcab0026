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
* seeded chaos plans (worker kills, chunk stalls, poisoned points fired
  *inside* pool workers) never change results, only cost recovery work.
"""

from __future__ import annotations

import pytest

import repro.scenarios.sweep as sweep_module
from repro.scenarios import scenario_grid
from repro.scenarios.sweep import (
    run_scenario_sweep,
    scenario_point_export_record,
)
from repro.service.faults import FaultPlan, injected
from repro.sim.batch import ResilienceStats
from repro.sim.journal import JournalError, load_journal


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


CHAOS_SEEDS = range(6)


class TestSweepChaos:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_seeded_plan_is_bit_identical(
        self, grid, reference, tmp_path, seed
    ):
        plan = FaultPlan.generate_sweep(
            seed, points=len(reference), state_dir=str(tmp_path),
            slow_delay_s=2.0,
        )
        stats = ResilienceStats()
        with injected(plan):
            points = run_scenario_sweep(
                grid,
                jobs=2,
                runner_stats=stats,
                chunk_deadline_s=1.0,  # below every stall's delay
            )
        assert _canonical(points) == reference, f"chaos seed {seed}"

    def test_chaos_with_journal_checkpoints_survive(
        self, grid, reference, tmp_path
    ):
        journal = tmp_path / "sweep.journal"
        plan = FaultPlan.generate_sweep(
            11, points=len(reference), state_dir=str(tmp_path / "faults"),
        )
        (tmp_path / "faults").mkdir()
        with injected(plan):
            points = run_scenario_sweep(
                grid, jobs=2, journal=journal, chunk_deadline_s=1.0
            )
        assert _canonical(points) == reference
        # Every point the chaotic run produced was durably journaled.
        _, journaled, _, dropped = load_journal(journal)
        assert dropped == 0
        assert len(journaled) == len(reference)
