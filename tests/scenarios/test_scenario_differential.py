"""Scenario sweeps are deterministic, and what double buffering buys.

Every registered scenario is a corpus program of ``tests/differential.py``
(its default and the last point of its grid), so the per-PR backend
matrix (``tests/sim/test_backend_matrix.py``) sweeps the *registry*: a
newly added workload is held to the same standard with no test to
write.  Here: sweeps in parallel and through the program cache equal
serial and cold runs, and the weekly grids none of the per-PR
programs reach.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenarios import (
    get_scenario,
    run_scenario_sweep,
    scenario_grid,
    scenario_names,
    simulate_scenario,
)
from repro.sim import simulate
from tests.differential import REFERENCE, agree, scenario_program


class TestGemmStructure:
    def test_gemm_double_buffering_hides_latency(self):
        """The point of the structure: ping-pong staging overlaps DRAM
        transfer with compute, strictly beating the single-buffer plan
        on identical data and identical total traffic."""
        double, _ = simulate_scenario(
            "gemm", get_scenario("gemm").configure(double_buffer=True)
        )
        single, _ = simulate_scenario(
            "gemm", get_scenario("gemm").configure(double_buffer=False)
        )
        assert double.cycles < single.cycles
        named = get_scenario("gemm")
        cfg = named.configure()
        assert (
            double.summary.memory_named("dram").bytes_read
            == single.summary.memory_named("dram").bytes_read
            == cfg.dram_read_bytes
        )
        np.testing.assert_array_equal(
            double.buffer("c_out"), single.buffer("c_out")
        )


class TestScenarioSweepDeterminism:
    def test_parallel_sweep_matches_serial(self):
        grid = scenario_grid(
            "mesh",
            axes={"rows": (2, 3), "link_bandwidth": (1, 2)},
            rounds=2,
        )
        serial = run_scenario_sweep(grid, jobs=1)
        parallel = run_scenario_sweep(grid, jobs=2)

        def semantic(points):
            return [
                (p.scenario, p.config, p.cycles, p.scheduler_events,
                 p.launches_executed)
                for p in points
            ]

        assert semantic(serial) == semantic(parallel)

    def test_cached_replays_match_cold_runs(self):
        """The per-process program cache (module + plan reuse) changes
        nothing observable: replaying a structure equals a cold build."""
        scenario = get_scenario("gemm")
        cfg = scenario.configure(k=8)
        warm1, _ = simulate_scenario(scenario, cfg, seed=9)
        warm2, _ = simulate_scenario(scenario, cfg, seed=9)  # cache hit
        cold = simulate(
            scenario.build(cfg), inputs=scenario.make_inputs(cfg, 9)
        )
        for result in (warm2, cold):
            assert result.cycles == warm1.cycles
            assert (
                result.summary.scheduler_events
                == warm1.summary.scheduler_events
            )
            np.testing.assert_array_equal(
                result.buffer("c_out"), warm1.buffer("c_out")
            )

    def test_heap_scheduler_sweep_override(self):
        grid = scenario_grid("gemm", axes={"k": (8, 16)})
        wheel = run_scenario_sweep(grid, jobs=1)
        heap = run_scenario_sweep(
            grid, jobs=1, option_overrides={"scheduler": "heap"}
        )
        assert [p.cycles for p in wheel] == [p.cycles for p in heap]
        assert [p.scheduler_events for p in wheel] == [
            p.scheduler_events for p in heap
        ]


@pytest.mark.slow
class TestBigGridSlow:
    """Weekly-CI scale: grids none of the per-PR workloads reach."""

    def test_mesh_8x8_differential(self):
        program = scenario_program(
            "mesh", seed=0, rows=8, cols=8, rounds=6, link_bandwidth=2
        )
        result = agree(program.build)[REFERENCE].result
        program.check(result)
        assert result.summary.launches_executed > 8 * 8 * 6

    def test_gemm_long_reduction_differential(self):
        program = scenario_program("gemm", seed=0, k=64, tile_k=8, m=6, n=6)
        program.check(agree(program.build)[REFERENCE].result)

    def test_full_default_grids_oracle_checked(self):
        """Every point of every scenario's declared sweep grid builds,
        simulates, and passes its reference-stats oracle."""
        for name in scenario_names():
            points = run_scenario_sweep(
                scenario_grid(name), jobs=1, check=True
            )
            assert points
            assert all(p.checked is not None for p in points)
