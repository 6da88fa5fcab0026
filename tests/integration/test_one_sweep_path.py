"""One sweep path: the systolic DSE, scenario sweeps and service sweeps
share one program cache, one resumable driver and one journal header.

* a ``systolic`` scenario simulation and a DSE point of the same
  structure build ONE program between them;
* interrupting after ``k`` points and resuming is bit-identical to an
  uninterrupted run for every checkpoint kind (DSE journal, scenario
  journal, service result store), with ``k`` points resumed;
* a journal's identity is what the sweep computes, never how: the same
  request resumes whatever ``jobs``/``compile_cache`` the rerun picks.
"""

from __future__ import annotations

import pytest

from repro.analysis import SweepSpec, run_sweep
from repro.analysis.dse import clear_sweep_caches, evaluate_point
from repro.dialects.linalg import ConvDims
from repro.generators.systolic import build_systolic_program
from repro.scenarios import (
    get_scenario,
    scenario_cache_stats,
    scenario_grid,
    simulate_scenario,
)
from repro.scenarios.sweep import (
    run_scenario_sweep,
    scenario_point_export_record,
)
from repro.service import (
    FaultPlan,
    JobScheduler,
    ResultStore,
    SweepRequest,
    injected,
)
from repro.sim import simulate
from repro.sim.batch import (
    ResilienceStats,
    SweepInterrupted,
    deterministic_conv_inputs,
    process_compile_cache,
)
from repro.sim.journal import load_journal
from tests.differential import HOST_FIELDS

SEED = 5


# ---------------------------------------------------------------------------
# One program cache
# ---------------------------------------------------------------------------


def _cold(cfg):
    program = build_systolic_program(cfg)
    ifmap, weights = deterministic_conv_inputs(cfg.dims, SEED)
    return simulate(
        program.module, inputs=program.prepare_inputs(ifmap, weights)
    )


def test_scenario_and_dse_point_of_one_structure_build_one_program():
    clear_sweep_caches()
    scenario = get_scenario("systolic")
    # Structural twins (equal stream length, stationary rows and filter
    # count), so the DSE point differs from the scenario request in
    # dims and data but not in the generated module.
    scenario_cfg = scenario.configure(n=2, c=4, h=5, w=5, fh=1, fw=1)
    dse_cfg = scenario.configure(
        n=2, c=1, h=6, w=6, fh=2, fw=2
    ).to_generator_config()
    assert dse_cfg.dims == ConvDims(n=2, c=1, h=6, w=6, fh=2, fw=2)

    served, _ = simulate_scenario(scenario, scenario_cfg, seed=SEED)
    point = evaluate_point(
        dse_cfg, use_des=True, seed=SEED, compile_cache=True
    )

    stats = process_compile_cache().stats
    assert scenario_cache_stats() is stats
    assert (stats.programs_built, stats.program_hits) == (1, 1)

    cold_served = _cold(scenario_cfg.to_generator_config())
    ofmap = served.summary.memory_named("ofmap_mem")
    cold_ofmap = cold_served.summary.memory_named("ofmap_mem")
    assert served.cycles == cold_served.cycles
    assert (
        served.summary.scheduler_events
        == cold_served.summary.scheduler_events
    )
    assert ofmap.bytes_written == cold_ofmap.bytes_written

    cold_point = _cold(dse_cfg)
    assert point.cycles == cold_point.cycles
    assert (
        point.peak_write_bw_x_portion
        == cold_point.summary.memory_named("ofmap_mem").avg_write_bandwidth
    )
    clear_sweep_caches()
    assert (stats.programs_built, stats.program_hits) == (0, 0)


# ---------------------------------------------------------------------------
# One resumable driver, three checkpoint kinds
# ---------------------------------------------------------------------------

K = 3


class _after:
    """A cancel stand-in that reports set after ``count`` is_set queries
    — the serial driver asks once per item, so exactly ``count`` land."""

    def __init__(self, count: int):
        self.remaining = count

    def is_set(self) -> bool:
        if self.remaining > 0:
            self.remaining -= 1
            return False
        return True


DSE_SPEC = SweepSpec(
    array_heights=(2,),
    total_pes=8,
    image_sizes=(3, 4),
    filter_sizes=(1, 2),
    channels=(1,),
    filter_counts=(1, 2),
    dataflows=("WS", "OS"),
)


def _dse_rows(points):
    return [
        (p.config, p.cycles, p.loop_iterations, p.peak_write_bw_x_portion)
        for p in points
    ]


class _JournaledSweep:
    """A library sweep checkpointed to a journal file."""

    def __init__(self, tmp_path, run, rows):
        self.journal = tmp_path / "sweep.journal"
        self.run, self.rows = run, rows

    def uninterrupted(self):
        return self.rows(self.run())

    def interrupt(self, k):
        with pytest.raises(SweepInterrupted) as info:
            self.run(journal=self.journal, cancel=_after(k))
        _, journaled, _, _ = load_journal(self.journal)
        assert len(journaled) == info.value.completed
        return info.value.completed

    def resume(self):
        stats = ResilienceStats()
        points = self.run(
            journal=self.journal, resume=True, runner_stats=stats
        )
        return self.rows(points), stats.points_resumed


class _StoreSweep:
    """A service sweep checkpointed point-by-point to the result store.
    The scheduler has no cancel seam; the interruption is every point
    from the ``k``-th on failing, and the resume a restarted service."""

    REQUEST = dict(scenario="gemm", sample=6, seed=SEED)

    def __init__(self, tmp_path):
        self.tmp_path = tmp_path

    def _run(self, store_dir):
        scheduler = JobScheduler(store=ResultStore(str(store_dir)))
        job = scheduler.submit(SweepRequest.make(**self.REQUEST))
        scheduler.run_pending()
        return scheduler, job

    @staticmethod
    def _rows(record):
        rows = []
        for point in record["points"]:
            point = dict(point, summary=dict(point["summary"]))
            # What the host did — wall clock, and which plans this run
            # found compiled by an earlier one — is not the point's.
            for name in HOST_FIELDS:
                del point["summary"][name]
            rows.append(point)
        return rows

    def uninterrupted(self):
        _, job = self._run(self.tmp_path / "reference-store")
        return self._rows(job.result())

    def interrupt(self, k):
        plan = FaultPlan.from_dict({
            "name": "fail-from-k", "seed": 0,
            "faults": [{
                "site": "job.evaluate", "action": "engine-error",
                "after": k, "count": -1,
            }],
        })
        with injected(plan):
            scheduler, job = self._run(self.tmp_path / "store")
        assert job.state == "error" and "resubmit to resume" in job.error
        return scheduler.stats.sweep_points_simulated

    def resume(self):
        scheduler, job = self._run(self.tmp_path / "store")
        assert scheduler.stats.sweep_points_resumed == job.points_resumed
        assert (
            scheduler.stats.sweep_points_simulated
            == self.REQUEST["sample"] - job.points_resumed
        )
        assert scheduler.resilience.points_resumed == job.points_resumed
        return self._rows(job.result()), job.points_resumed


def _dse_journal(tmp_path):
    return _JournaledSweep(
        tmp_path,
        lambda **kw: run_sweep(DSE_SPEC, use_des=True, seed=SEED, **kw),
        _dse_rows,
    )


def _scenario_journal(tmp_path):
    grid = scenario_grid("gemm")
    return _JournaledSweep(
        tmp_path,
        lambda **kw: run_scenario_sweep(grid, seed=SEED, **kw),
        lambda points: [scenario_point_export_record(p) for p in points],
    )


@pytest.mark.parametrize(
    "checkpoint",
    [_dse_journal, _scenario_journal, _StoreSweep],
    ids=["dse-journal", "scenario-journal", "service-store"],
)
def test_interrupt_after_k_then_resume_is_bit_identical(checkpoint, tmp_path):
    sweep = checkpoint(tmp_path)
    reference = sweep.uninterrupted()
    assert len(reference) > K
    assert sweep.interrupt(K) == K
    resumed, points_resumed = sweep.resume()
    assert resumed == reference
    assert points_resumed == K


# ---------------------------------------------------------------------------
# One journal header: identity is the request, not the execution strategy
# ---------------------------------------------------------------------------


def test_dse_journal_resumes_under_any_execution_strategy(tmp_path):
    """``compile_cache``/``reuse_results``/``jobs`` never change a
    point, so they must never make resume refuse a journal."""
    journal = tmp_path / "dse.journal"
    reference = run_sweep(
        DSE_SPEC, use_des=True, sample=3, seed=SEED, journal=journal
    )
    for strategy in (
        dict(compile_cache=True),
        dict(reuse_results=True),
        dict(jobs=2),
    ):
        stats = ResilienceStats()
        resumed = run_sweep(
            DSE_SPEC, use_des=True, sample=3, seed=SEED,
            journal=journal, resume=True, runner_stats=stats, **strategy,
        )
        assert _dse_rows(resumed) == _dse_rows(reference), strategy
        assert stats.points_resumed == 3, strategy
