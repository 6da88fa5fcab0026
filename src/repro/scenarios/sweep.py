"""Sweep execution over registry grids.

A :class:`ScenarioGrid` is the registry-native analogue of
:class:`repro.analysis.SweepSpec`: a scenario name plus config axes that
expand into config instances.  :func:`run_scenario_sweep` evaluates a
grid point-by-point through the same machinery the systolic DSE uses —
the :func:`~repro.sim.batch.journaled_sweep` driver
(:class:`~repro.sim.batch.SweepRunner` sharding with signature-affine
chunking, deterministic submission-order merging) and the process's one
program cache keyed on :meth:`~.registry.Scenario.signature` (module
built and verified once per structure, compiled block plans shared via
a per-structure :class:`~repro.sim.plan.PlanCache`) — so ``jobs=N``
results are bit-identical to ``jobs=1``.  DSE results are memoized on its
programs; ``repro.analysis.clear_sweep_caches()`` alone empties it.

``repro.analysis.run_sweep`` accepts a :class:`ScenarioGrid` directly
and delegates here, which is how registry grids ride the existing sweep
entry point.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..sim import EngineOptions
from ..sim.batch import (
    CachedProgram,
    ResilienceStats,
    SweepRunner,
    journaled_sweep,
    process_compile_cache,
    subsample,
)
from .registry import Scenario, get_scenario


@dataclass(frozen=True)
class ScenarioGrid:
    """A registry sweep space: scenario name + config axes (+ fixed base).

    Stored as tuples so grids are hashable and pickle cleanly into
    worker processes.
    """

    scenario: str
    axes: Tuple[Tuple[str, Tuple], ...]
    base: Tuple[Tuple[str, object], ...] = ()

    def points(self) -> List[object]:
        """Expand the axes into config instances (invalid combos skipped)."""
        return get_scenario(self.scenario).grid_points(
            dict(self.axes), **dict(self.base)
        )

    def count(self) -> int:
        return len(self.points())


def scenario_grid(
    name: str,
    axes: Optional[Mapping[str, Sequence]] = None,
    **base,
) -> ScenarioGrid:
    """A grid over a registered scenario.

    ``axes`` defaults to the scenario's declared sweep grid; ``base``
    pins non-swept config fields.
    """
    scenario = get_scenario(name)
    grid = scenario.default_grid() if axes is None else dict(axes)
    return ScenarioGrid(
        scenario=name,
        axes=tuple((axis, tuple(values)) for axis, values in grid.items()),
        base=tuple(sorted(base.items())),
    )


@dataclass
class ScenarioPoint:
    """One sweep measurement for one scenario config."""

    scenario: str
    config: object
    cycles: int
    scheduler_events: int
    launches_executed: int
    execution_time_s: float
    #: Reference stats the oracle verified (``None`` when not requested).
    checked: Optional[Dict] = None


# ---------------------------------------------------------------------------
# Scenario programs in the process compile cache
# ---------------------------------------------------------------------------


def cached_scenario_program(scenario: Scenario, cfg) -> CachedProgram:
    """This process's cached program for a config's structure, with
    what its build knows (a systolic program's stamps)."""
    return process_compile_cache().lookup(
        scenario.signature(cfg), lambda: scenario.build_program(cfg)
    )


def simulate_scenario(
    name_or_scenario,
    cfg=None,
    seed: int = 0,
    options: Optional[EngineOptions] = None,
    check: bool = False,
):
    """Simulate one scenario config through the per-process cache.

    Returns ``(result, checked_stats)`` where ``checked_stats`` is the
    oracle's dict when ``check`` is set, else ``None``.  Results are
    bit-identical to a cold build-and-simulate of the same config.
    """
    scenario = (
        name_or_scenario
        if isinstance(name_or_scenario, Scenario)
        else get_scenario(name_or_scenario)
    )
    if cfg is None:
        cfg = scenario.configure()
    result = cached_scenario_program(scenario, cfg).simulate(
        scenario.make_inputs(cfg, seed), options
    )
    checked = scenario.check(cfg, result, seed) if check else None
    return result, checked


# ---------------------------------------------------------------------------
# The sweep entry point
# ---------------------------------------------------------------------------


def _scenario_sweep_worker(payload: Tuple) -> ScenarioPoint:
    """Spawn-safe worker: evaluate one (scenario, config) sweep point."""
    name, cfg, seed, option_overrides, check = payload
    scenario = get_scenario(name)
    options = EngineOptions(
        **{"verify_module": False, **(option_overrides or {})}
    )
    started = time.perf_counter()
    result, checked = simulate_scenario(
        scenario, cfg, seed=seed, options=options, check=check
    )
    elapsed = time.perf_counter() - started
    return ScenarioPoint(
        scenario=name,
        config=cfg,
        cycles=result.cycles,
        scheduler_events=result.summary.scheduler_events,
        launches_executed=result.summary.launches_executed,
        execution_time_s=elapsed,
        checked=checked,
    )


def _payload_signature(payload: Tuple) -> Tuple:
    """Shard key: group structurally identical points in one worker."""
    return get_scenario(payload[0]).signature(payload[1])


def _payload_context(payload: Tuple) -> str:
    """Fault-hook context for one payload (``batch.worker`` targeting)."""
    return f"{payload[0]}:seed={payload[2]}"


# -- journal codecs ---------------------------------------------------------


def grid_record(grid: ScenarioGrid) -> Dict:
    """A JSON-native description of a grid (journal headers)."""
    return {
        "scenario": grid.scenario,
        "axes": {axis: list(values) for axis, values in grid.axes},
        "base": dict(grid.base),
    }


def scenario_point_record(point: ScenarioPoint) -> Dict:
    """The JSON-native form of one sweep point (journal / export)."""
    return {
        "scenario": point.scenario,
        "config": asdict(point.config),
        "cycles": int(point.cycles),
        "scheduler_events": int(point.scheduler_events),
        "launches_executed": int(point.launches_executed),
        "execution_time_s": float(point.execution_time_s),
        "checked": point.checked,
    }


def scenario_point_from_record(record: Mapping) -> ScenarioPoint:
    """Rebuild a :class:`ScenarioPoint` from its journaled record."""
    name = record["scenario"]
    return ScenarioPoint(
        scenario=name,
        config=get_scenario(name).configure(**record["config"]),
        cycles=record["cycles"],
        scheduler_events=record["scheduler_events"],
        launches_executed=record["launches_executed"],
        execution_time_s=record["execution_time_s"],
        checked=record.get("checked"),
    )


def scenario_point_export_record(point: ScenarioPoint) -> Dict:
    """The deterministic export form: the journal record minus the one
    host-timing field, so two runs of the same sweep produce
    byte-identical export files (the ``--sweep-out`` diff contract)."""
    record = scenario_point_record(point)
    del record["execution_time_s"]
    return record


def run_scenario_sweep(
    grid: ScenarioGrid,
    jobs: Optional[int] = 1,
    seed: int = 0,
    sample: Optional[int] = None,
    chunk_size: Optional[int] = None,
    option_overrides: Optional[Dict] = None,
    check: bool = False,
    journal=None,
    resume: bool = False,
    cancel=None,
    runner_stats: Optional[ResilienceStats] = None,
    chunk_deadline_s: Optional[float] = None,
) -> List[ScenarioPoint]:
    """Evaluate every grid point with the DES; results in point order.

    ``jobs`` follows :func:`repro.analysis.run_sweep`'s convention
    (``1`` = in-process serial loop, ``None``/``0`` = all usable CPUs);
    any parallel value shards signature-affinely across the
    :class:`SweepRunner` pool and is bit-identical to the serial loop.
    ``sample`` evaluates only a deterministic subsample of that many
    points (same convention as the systolic sweep).
    ``option_overrides`` restates :class:`EngineOptions` fields (e.g.
    ``{"scheduler": "heap"}`` for a differential sweep, or
    ``{"mode": "plan"}`` to select an
    :class:`~repro.sim.ExecutionMode` — all three modes are
    bit-identical); ``check`` runs each point's reference-stats oracle
    in the worker.

    Resilience (see ``docs/performance.md``, "Resilient sweeps"):

    * ``journal`` (a path or a :class:`SweepJournal`) checkpoints each
      point as it completes; ``resume=True`` loads the journal's valid
      prefix first and computes only the missing points — the merged
      result is bit-identical to an uninterrupted run.
    * ``cancel`` (a :class:`threading.Event`) requests a graceful stop:
      in-flight work drains into the journal, then
      :class:`~repro.sim.batch.SweepInterrupted` is raised.
    * ``runner_stats`` accumulates the run's
      :class:`~repro.sim.batch.ResilienceStats` (pool rebuilds, resumed
      points, ...); ``chunk_deadline_s`` bounds each parallel dispatch
      round's wall clock.
    """
    return journaled_sweep(
        _scenario_sweep_worker,
        [
            (grid.scenario, cfg, seed, option_overrides, check)
            for cfg in subsample(grid.points(), sample, seed)
        ],
        request={
            "grid": grid_record(grid),
            "seed": int(seed),
            "sample": sample,
            "options": dict(option_overrides or {}),
            "check": bool(check),
        },
        encode=scenario_point_record,
        decode=scenario_point_from_record,
        runner=SweepRunner(
            jobs=jobs,
            chunk_size=chunk_size,
            key=_payload_signature,
            describe=_payload_context,
            chunk_deadline_s=chunk_deadline_s,
        ),
        journal=journal,
        resume=resume,
        cancel=cancel,
        runner_stats=runner_stats,
    )
