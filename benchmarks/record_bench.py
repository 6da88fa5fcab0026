#!/usr/bin/env python
"""Record the performance benchmarks as machine-readable JSON snapshots.

Runs the ``bench_engine_speed`` workload (the §VI-C wall-clock
comparison), the sweep-throughput workload (the §VI-E whole-sweep
scalability story), and the service-throughput workload (``equeue-serve``
cold vs warm requests/s — see ``docs/serving.md``) directly — no pytest
involved — and writes ``BENCH_engine_speed.json``,
``BENCH_sweep_throughput.json``, and ``BENCH_service_throughput.json``
at the repository root so the performance trajectory is tracked across
PRs::

    PYTHONPATH=src python benchmarks/record_bench.py
    PYTHONPATH=src python benchmarks/record_bench.py --engine-only
    PYTHONPATH=src python benchmarks/record_bench.py --sweep-jobs 8

The engine snapshot records events/s for the plan-mode engine on both
scheduler backends (the tiered event wheel and the binary-heap
reference), the interpreted engine, the warm execution-mode ablation
(plan vs source codegen over a pre-warmed plan cache — the
compile-once/execute-many regime, recorded as ``codegen_speedup``),
and one oracle-checked events/s row per registered workload scenario
(``scenario_runs``, from :mod:`repro.scenarios` via
``bench_scenarios.py`` — each row in its own subprocess); the sweep
snapshot records
whole-sweep points/s for the serial reference loop versus the sharded
batch runner (``jobs=N`` with cross-simulation compile caching and
structural result reuse), after checking the two produce bit-identical
DSE points.

``--check-regression`` additionally diffs the fresh engine snapshot
against the committed one and exits non-zero on a >10% events/s drop,
so CI fails when a change slows the engine down.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_engine_speed.json"
SWEEP_OUTPUT = REPO_ROOT / "BENCH_sweep_throughput.json"
SERVICE_OUTPUT = REPO_ROOT / "BENCH_service_throughput.json"
SIZE = 16  # matches bench_engine_speed's default (non-FULL_SWEEP) workload
#: Enabled-telemetry cost ceiling: metrics-on warm wall clock may be at
#: most 2% above metrics-off (see docs/observability.md).
OBS_OVERHEAD_CEILING = 1.02


def _bench_program():
    """The engine-speed workload: program plus deterministic inputs."""
    from repro.dialects.linalg import ConvDims
    from repro.generators.systolic import (
        SystolicConfig,
        build_systolic_program,
    )

    rng = np.random.default_rng(7)
    dims = ConvDims(n=1, c=3, h=SIZE, w=SIZE, fh=2, fw=2)
    program = build_systolic_program(SystolicConfig("WS", 4, 4, dims))
    ifmap = rng.integers(-3, 4, (dims.c, dims.h, dims.w)).astype(np.int32)
    weights = rng.integers(
        -3, 4, (dims.n, dims.c, dims.fh, dims.fw)
    ).astype(np.int32)
    return program, ifmap, weights


def _warm_up(program, options, ifmap, weights, plan_cache):
    """Simulate until a pass compiles no plan and generates no body, and
    return the first pass's summary with every pass's generated bodies
    counted in.

    One pass is not warm under ``mode=codegen``: a block a few
    executions short of the tier-up threshold when the pass ends gets
    its generated body in the next.  The warm rows must sit past every
    tier-up, or ``codegen_speedup`` stops measuring generated code
    against plan replay and starts measuring code generation.
    """
    from repro.sim import simulate

    first = None
    generated = 0
    while True:
        summary = simulate(
            program.module,
            options,
            inputs=program.prepare_inputs(ifmap, weights),
            plan_cache=plan_cache,
        ).summary
        first = first or summary
        generated += summary.blocks_codegenned
        if not (summary.plans_compiled or summary.blocks_codegenned):
            return dataclasses.replace(first, blocks_codegenned=generated)


def _row(mode, scheduler, warm, result, wall_clock_s, compile_summary):
    """One engine-speed snapshot row from a timed simulation."""
    summary = result.summary
    if compile_summary is None:
        compile_summary = summary
    events = summary.scheduler_events
    return {
        "mode": mode,
        # Kept for readers of pre-ExecutionMode snapshots.
        "compile_plans": mode != "interpret",
        "scheduler": scheduler,
        "warm": warm,
        "cycles": result.cycles,
        "scheduler_events": events,
        "wall_clock_s": round(wall_clock_s, 6),
        "events_per_s": round(events / wall_clock_s) if wall_clock_s else 0,
        "microtask_events": summary.microtask_events,
        "wheel_events": summary.wheel_events,
        "heap_events": summary.heap_events,
        "launches_executed": summary.launches_executed,
        "plans_compiled": compile_summary.plans_compiled,
        "plan_cache_hits": summary.plan_cache_hits,
        "blocks_codegenned": compile_summary.blocks_codegenned,
        "codegen_fallbacks": compile_summary.codegen_fallbacks,
    }


def run_workload(
    mode: str = "plan",
    scheduler: str = "wheel",
    warm: bool = False,
    repeats: int = 1,
) -> dict:
    """One engine-speed row.

    ``mode`` selects the execution path (interpret | plan | codegen).
    ``warm=True`` measures steady-state throughput: the plan cache is
    pre-warmed by a throwaway run, so the timed pass pays zero plan
    compilation or source codegen — the compile-once/execute-many regime
    every sweep and service workload runs in.  ``repeats`` times the
    measured pass that many times and keeps the fastest (noise floor).
    """
    from repro.sim import EngineOptions, PlanCache, simulate

    program, ifmap, weights = _bench_program()
    options = EngineOptions(mode=mode, scheduler=scheduler)
    plan_cache = None
    compile_summary = None
    if warm:
        plan_cache = PlanCache()
        # The timed pass compiles nothing (the cache is warm); the
        # warm-up's counters describe the artifacts it executes.
        compile_summary = _warm_up(
            program, options, ifmap, weights, plan_cache
        )
    wall_clock_s = None
    for _ in range(max(1, repeats)):
        inputs = program.prepare_inputs(ifmap, weights)
        started = time.perf_counter()
        result = simulate(
            program.module, options, inputs=inputs, plan_cache=plan_cache
        )
        elapsed = time.perf_counter() - started
        if wall_clock_s is None or elapsed < wall_clock_s:
            wall_clock_s = elapsed
    return _row(mode, scheduler, warm, result, wall_clock_s, compile_summary)


def run_warm_ablation(repeats: int = 5) -> list:
    """Both warm execution-mode rows (plan and codegen) from one process.

    The ``codegen_speedup`` ratio gates CI, so its two sides must not be
    measured in separate subprocesses minutes apart: machine-load drift
    between the invocations shows up as a phantom ratio change.  Here
    each mode gets its own pre-warmed plan cache, then the timed passes
    are *interleaved* (plan, codegen, plan, codegen, ...) with best-of-N
    per mode, so a load spike degrades both sides symmetrically and the
    ratio stays machine-neutral.
    """
    from repro.sim import EngineOptions, PlanCache, simulate

    program, ifmap, weights = _bench_program()
    modes = ("plan", "codegen")
    options = {m: EngineOptions(mode=m) for m in modes}
    caches = {m: PlanCache() for m in modes}
    compile_summaries = {
        m: _warm_up(program, options[m], ifmap, weights, caches[m])
        for m in modes
    }
    best = {m: None for m in modes}
    results = {}
    for _ in range(max(1, repeats)):
        for m in modes:
            inputs = program.prepare_inputs(ifmap, weights)
            started = time.perf_counter()
            results[m] = simulate(
                program.module,
                options[m],
                inputs=inputs,
                plan_cache=caches[m],
            )
            elapsed = time.perf_counter() - started
            if best[m] is None or elapsed < best[m]:
                best[m] = elapsed
    return [
        _row(m, "wheel", True, results[m], best[m], compile_summaries[m])
        for m in modes
    ]


def run_obs_overhead(repeats: int = 150) -> dict:
    """The telemetry-cost row: warm plan-mode passes with the metrics
    registry enabled vs disabled, interleaved as ``repeats`` adjacent
    on/off pairs in one process; the recorded ``obs_overhead`` is the
    **median of the per-pair relative differences** (as a ratio).

    The ratio gates CI at 1.02 (enabled telemetry must cost <= 2%), so
    its measurement has to resolve well under 2% on a single-CPU runner
    whose wall clock drifts by more than that over seconds.  Three
    choices buy that resolution: the workload is a *short* (~tens of
    ms) run so the two sides of a pair sit close enough in time to
    share one drift regime (the difference cancels it); the pair order
    alternates so any residual within-pair ramp biases successive pairs
    in opposite directions; and the median over many pairs discards
    preemption spikes.  A best-of-N quotient of two long runs has none
    of these protections and swings by ±4% on identical code here —
    unusable for this gate.

    The engine records metrics once per *run* (never per event), so
    the enabled side pays a handful of counter increments; anything
    above the gate means a metric write crept into the event loop.
    The two sides must also stay bit-identical (cycles, event counts):
    telemetry observes the simulation, it never perturbs it.
    """
    import gc

    from repro.dialects.linalg import ConvDims
    from repro.generators.systolic import (
        SystolicConfig,
        build_systolic_program,
    )
    from repro.obs import metrics as obs_metrics
    from repro.sim import EngineOptions, PlanCache, simulate

    rng = np.random.default_rng(7)
    dims = ConvDims(n=1, c=3, h=6, w=6, fh=2, fw=2)
    program = build_systolic_program(SystolicConfig("WS", 4, 4, dims))
    ifmap = rng.integers(-3, 4, (dims.c, dims.h, dims.w)).astype(np.int32)
    weights = rng.integers(
        -3, 4, (dims.n, dims.c, dims.fh, dims.fw)
    ).astype(np.int32)
    options = EngineOptions(mode="plan")
    cache = PlanCache()
    simulate(
        program.module,
        options,
        inputs=program.prepare_inputs(ifmap, weights),
        plan_cache=cache,
    )
    states = ("off", "on")
    best = {state: None for state in states}
    samples = {state: [] for state in states}
    results = {}
    diffs = []
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for iteration in range(max(1, repeats)):
            ordered = states if iteration % 2 == 0 else states[::-1]
            elapsed = {}
            prepared = {
                state: program.prepare_inputs(ifmap, weights)
                for state in ordered
            }
            for state in ordered:
                if state == "on":
                    obs_metrics.enable_metrics()
                else:
                    obs_metrics.disable_metrics()
                started = time.perf_counter()
                results[state] = simulate(
                    program.module,
                    options,
                    inputs=prepared[state],
                    plan_cache=cache,
                )
                elapsed[state] = time.perf_counter() - started
                samples[state].append(elapsed[state])
                if best[state] is None or elapsed[state] < best[state]:
                    best[state] = elapsed[state]
            diffs.append(
                (elapsed["on"] - elapsed["off"]) / max(elapsed["off"], 1e-9)
            )
            if iteration % 25 == 24:
                # Periodic collection between pairs (never inside one)
                # keeps heap growth from turning into allocator drift.
                gc.collect()
    finally:
        obs_metrics.disable_metrics()
        if gc_was_enabled:
            gc.enable()
    overhead = 1.0 + sorted(diffs)[len(diffs) // 2]
    on, off = results["on"], results["off"]
    if on.cycles != off.cycles or (
        on.summary.scheduler_events != off.summary.scheduler_events
    ):
        raise SystemExit(
            "telemetry perturbed the simulation: metrics-on "
            f"{on.cycles}cy/{on.summary.scheduler_events}ev != metrics-off "
            f"{off.cycles}cy/{off.summary.scheduler_events}ev"
        )
    registry = obs_metrics.get_registry().snapshot()
    return {
        "repeats": repeats,
        "wall_clock_off_s": round(best["off"], 6),
        "wall_clock_on_s": round(best["on"], 6),
        "obs_overhead": round(overhead, 4),
        "cycles": on.cycles,
        "scheduler_events": on.summary.scheduler_events,
        "identical_results": True,
        "metrics_recorded": sum(
            1 for v in registry.values() if isinstance(v, (int, float)) and v
        ),
    }


def throughput_sweep_spec():
    """The sweep-throughput workload: a natural DSE slice of the §VI-E
    space (all three dataflows over two array shapes and a block of conv
    shapes) in the many-small-points regime Fig. 12 targets.  288 DES
    points over 62 distinct structural signatures (~4.6 points per
    structure), so it exercises both sharding and the cross-simulation
    caches."""
    from repro.analysis import SweepSpec

    return SweepSpec(
        array_heights=(4, 8),
        total_pes=64,
        image_sizes=(2, 4),
        filter_sizes=(1, 2),
        channels=(1, 2, 4),
        filter_counts=(1, 2, 4, 8),
        dataflows=("WS", "IS", "OS"),
    )


def _sweep_fingerprint(points) -> list:
    """The observable (timing-semantic) content of a sweep result, as
    JSON-comparable rows (scenarios run in separate processes)."""
    return [
        [
            point.dataflow,
            point.config.array_height,
            point.config.array_width,
            list(vars(point.config.dims).values()),
            point.cycles,
            point.loop_iterations,
            repr(point.peak_write_bw_x_portion),
            point.simulated,
        ]
        for point in points
    ]


def run_sweep_scenario(jobs, compile_cache, reuse_results) -> dict:
    """Run one sweep-throughput scenario in *this* process.

    Flags are explicit (never ``None``) so the recorded metadata states
    exactly which caches were active, independent of ``run_sweep``'s
    defaulting policy.
    """
    from repro.analysis import run_sweep

    spec = throughput_sweep_spec()
    started = time.perf_counter()
    points = run_sweep(
        spec,
        use_des=True,
        jobs=jobs,
        compile_cache=compile_cache,
        reuse_results=reuse_results,
    )
    wall_clock_s = time.perf_counter() - started
    return {
        "jobs": jobs,
        "compile_cache": compile_cache,
        "reuse_results": reuse_results,
        "points": len(points),
        "wall_clock_s": round(wall_clock_s, 6),
        "points_per_s": round(len(points) / wall_clock_s, 3)
        if wall_clock_s
        else 0.0,
        "fingerprint": _sweep_fingerprint(points),
    }


def _scenario_subprocess(flag: str, **kwargs) -> dict:
    """Run one scenario in a fresh interpreter, so scenarios cannot
    contaminate each other (warm caches, heap growth, inherited state)."""
    import subprocess
    import sys

    from repro.sim.batch import _export_import_path

    _export_import_path()  # children must find repro via PYTHONPATH
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        flag,
        json.dumps(kwargs),
    ]
    proc = subprocess.run(
        command, capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"scenario {flag} {kwargs} failed:\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


def _sweep_scenario_subprocess(**kwargs) -> dict:
    return _scenario_subprocess("--sweep-scenario", **kwargs)


def _engine_scenario_subprocess(**kwargs) -> dict:
    """One engine-speed workload in its own interpreter: the wheel, heap,
    and interpreted rows must not share a process, or the later rows run
    against a warmer, more fragmented heap than the first (the same
    isolation rule the sweep scenarios follow)."""
    return _scenario_subprocess("--engine-scenario", **kwargs)


def _engine_ablation_subprocess(**kwargs) -> list:
    """Both warm execution-mode rows from ONE fresh interpreter: the
    codegen/plan ratio gates CI, so its two sides must share a process
    (and interleave their timed passes) to stay machine-neutral."""
    return _scenario_subprocess("--ablation-scenario", **kwargs)


def _obs_overhead_subprocess(**kwargs) -> dict:
    """The telemetry-cost row from ONE fresh interpreter: the gated
    obs_overhead ratio, like the codegen ratio, must measure both sides
    in one process with interleaved passes."""
    return _scenario_subprocess("--obs-scenario", **kwargs)


def _workload_row_subprocess(**kwargs) -> dict:
    """One registry-scenario row in its own interpreter (same isolation
    rule: rows must not inherit each other's warm caches and heaps)."""
    return _scenario_subprocess("--scenario-row", **kwargs)


def run_scenario_row(name: str) -> dict:
    """One per-workload events/s row (shared with bench_scenarios.py)."""
    from bench_scenarios import run_scenario_workload

    return run_scenario_workload(name)


def run_service_scenario() -> dict:
    """The cold/warm/restart service passes (shared with
    bench_service.py; run via subprocess isolation like every scenario)."""
    from bench_service import run_service_throughput

    return run_service_throughput()


def record_service_throughput(output: Path) -> dict:
    """Snapshot ``equeue-serve`` cold-vs-warm requests/s.

    The warm/cold ratio is the serving subsystem's acceptance headline
    (warm responses must not pay simulation cost), so a recorded ratio
    below 10x fails the run — unlike raw events/s it is measured within
    one process on one machine, with the same clock applied to both
    passes, so it is stable enough to gate.
    """
    snapshot = _scenario_subprocess("--service-scenario")
    output.write_text(json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")
    runs = {run["pass"]: run for run in snapshot["runs"]}
    print(
        f"{output}: cold {runs['cold']['requests_per_s']} req/s -> warm "
        f"{runs['warm']['requests_per_s']} req/s "
        f"({snapshot['warm_speedup']}x, hit rate "
        f"{snapshot['warm_hit_rate']:.0%}, restart "
        f"{snapshot['restart_speedup']}x)"
    )
    if snapshot["warm_speedup"] < 10.0:
        raise SystemExit(
            "service warm/cold requests/s ratio "
            f"{snapshot['warm_speedup']}x fell below the 10x acceptance "
            "floor (warm-path latency is no longer decoupled from "
            "simulation cost)"
        )
    return snapshot


def record_scenario_rows() -> list:
    from repro.scenarios import scenario_names

    rows = [
        _workload_row_subprocess(name=name) for name in scenario_names()
    ]
    for row in rows:
        print(
            f"  scenario {row['scenario']:>10}: {row['events_per_s']:,} "
            f"events/s ({row['cycles']} cycles, "
            f"{row['scheduler_events']} events, oracle-checked)"
        )
    return rows


def record_sweep_throughput(output: Path, jobs: int) -> dict:
    # The reference scenario is run_sweep's jobs=1 default: the cold
    # serial loop.  The parallel scenario matches run_sweep's defaults
    # for jobs != 1 (both caches on), stated explicitly for the record.
    reference = _sweep_scenario_subprocess(
        jobs=1, compile_cache=False, reuse_results=False
    )
    serial_cached = _sweep_scenario_subprocess(
        jobs=1, compile_cache=True, reuse_results=True
    )
    parallel = _sweep_scenario_subprocess(
        jobs=jobs, compile_cache=True, reuse_results=True
    )
    runs = [
        {"mode": "serial-reference", **reference},
        {"mode": "serial-cached", **serial_cached},
        {"mode": f"parallel-jobs{jobs}", **parallel},
    ]
    fingerprints = [run.pop("fingerprint") for run in runs]
    if not all(fp == fingerprints[0] for fp in fingerprints[1:]):
        raise SystemExit(
            "sweep results differ between serial and parallel runs"
        )
    from repro.sim.batch import default_jobs

    snapshot = {
        "benchmark": "bench_sweep_throughput",
        "workload": (
            "DES sweep: 3 dataflows x {4,8}-high 64-PE arrays x "
            "{2,4}-image x {1,2} filter x {1,2,4} channels x "
            "{1,2,4,8} counts"
        ),
        "points": runs[0]["points"],
        "usable_cpus": default_jobs(),
        "runs": runs,
        "identical_results": True,
        "speedup": round(
            reference["wall_clock_s"]
            / max(parallel["wall_clock_s"], 1e-9),
            3,
        ),
        "speedup_serial_cached": round(
            reference["wall_clock_s"]
            / max(serial_cached["wall_clock_s"], 1e-9),
            3,
        ),
    }
    output.write_text(json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")
    print(
        f"{output}: {runs[-1]['points_per_s']} points/s at jobs={jobs} "
        f"({snapshot['speedup']}x over the serial reference loop, "
        f"{runs[0]['points']} points, identical results)"
    )
    return snapshot


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Record benchmark snapshots at the repo root."
    )
    parser.add_argument(
        "-o", "--output", default=str(DEFAULT_OUTPUT),
        help="output JSON path (default: repo-root BENCH_engine_speed.json)",
    )
    parser.add_argument(
        "--interpret-only", action="store_true",
        help="record only the interpreted engine (skip the compiled run)",
    )
    parser.add_argument(
        "--engine-only", action="store_true",
        help="skip the sweep-throughput snapshot",
    )
    parser.add_argument(
        "--sweep-only", action="store_true",
        help="record only the sweep-throughput snapshot",
    )
    parser.add_argument(
        "--service-only", action="store_true",
        help="record only the service-throughput snapshot",
    )
    parser.add_argument(
        "--skip-service", action="store_true",
        help="skip the service-throughput snapshot",
    )
    parser.add_argument(
        "--service-output", default=str(SERVICE_OUTPUT),
        help="service snapshot path (default: repo-root "
        "BENCH_service_throughput.json)",
    )
    parser.add_argument(
        "--sweep-output", default=str(SWEEP_OUTPUT),
        help="sweep snapshot path (default: repo-root "
        "BENCH_sweep_throughput.json)",
    )
    parser.add_argument(
        "--sweep-jobs", type=int, default=4,
        help="worker processes for the parallel sweep run (default 4)",
    )
    parser.add_argument(
        "--check-regression", action="store_true",
        help="compare the fresh engine snapshot against the committed one "
        "at the output path and fail on a >10%% drop of the "
        "machine-neutral compiled/interpreted events/s ratio; raw "
        "events/s diffs are printed informationally (CI guard; the "
        "fresh snapshot is still written)",
    )
    parser.add_argument(
        "--regression-threshold", type=float, default=0.10,
        help="fractional events/s drop tolerated by --check-regression "
        "(default 0.10)",
    )
    parser.add_argument(
        "--skip-scenarios", action="store_true",
        help="skip the per-workload scenario rows in the engine snapshot",
    )
    parser.add_argument(
        "--sweep-scenario", default="", help=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--engine-scenario", default="", help=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--ablation-scenario", default="", help=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--obs-scenario", default="", help=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--scenario-row", default="", help=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--service-scenario", default="", help=argparse.SUPPRESS,
    )
    args = parser.parse_args(argv)

    if args.sweep_scenario:
        print(json.dumps(run_sweep_scenario(**json.loads(args.sweep_scenario))))
        return 0
    if args.engine_scenario:
        print(json.dumps(run_workload(**json.loads(args.engine_scenario))))
        return 0
    if args.ablation_scenario:
        print(json.dumps(
            run_warm_ablation(**json.loads(args.ablation_scenario))
        ))
        return 0
    if args.obs_scenario:
        print(json.dumps(run_obs_overhead(**json.loads(args.obs_scenario))))
        return 0
    if args.scenario_row:
        print(json.dumps(run_scenario_row(**json.loads(args.scenario_row))))
        return 0
    if args.service_scenario:
        print(json.dumps(run_service_scenario(
            **json.loads(args.service_scenario)
        )))
        return 0

    if args.sweep_only:
        record_sweep_throughput(Path(args.sweep_output), args.sweep_jobs)
        return 0
    if args.service_only:
        record_service_throughput(Path(args.service_output))
        return 0

    output = Path(args.output)
    committed = None
    if args.check_regression and output.exists():
        committed = json.loads(output.read_text(encoding="utf-8"))

    runs = []
    if not args.interpret_only:
        runs.append(
            _engine_scenario_subprocess(mode="plan", scheduler="wheel")
        )
        # The scheduler-backend ablation row: same compiled engine on the
        # reference binary-heap scheduler.
        runs.append(
            _engine_scenario_subprocess(mode="plan", scheduler="heap")
        )
        # The execution-mode ablation rows, measured warm (pre-warmed
        # plan cache, interleaved best-of-5): the compile-once/
        # execute-many regime where source codegen earns its keep.  Both
        # rows come from one subprocess so the gated ratio cannot be
        # skewed by machine drift between separate invocations.
        runs.extend(_engine_ablation_subprocess(repeats=5))
    runs.append(_engine_scenario_subprocess(mode="interpret"))
    obs_row = None
    if not args.interpret_only:
        # The telemetry-cost row: enabled-metrics warm passes vs
        # disabled, interleaved in one subprocess; the ratio gates below.
        obs_row = _obs_overhead_subprocess(repeats=150)
    compiled = next(
        (r for r in runs if r["mode"] == "plan" and not r["warm"]), None
    )
    heap_run = next(
        (
            r
            for r in runs
            if r["mode"] == "plan" and r["scheduler"] == "heap"
        ),
        None,
    )
    warm_plan = next(
        (r for r in runs if r["mode"] == "plan" and r["warm"]), None
    )
    warm_codegen = next(
        (r for r in runs if r["mode"] == "codegen" and r["warm"]), None
    )
    interpreted = next(r for r in runs if r["mode"] == "interpret")
    snapshot = {
        "benchmark": "bench_engine_speed",
        "workload": f"{SIZE}x{SIZE} ifmap, 2x2x3 weights, 4x4 WS array",
        "runs": runs,
    }
    if compiled is not None:
        snapshot["speedup"] = round(
            interpreted["wall_clock_s"]
            / max(compiled["wall_clock_s"], 1e-9),
            3,
        )
        if compiled["cycles"] != interpreted["cycles"]:
            raise SystemExit(
                "compiled/interpreted cycle mismatch: "
                f"{compiled['cycles']} != {interpreted['cycles']}"
            )
    if compiled is not None and heap_run is not None:
        snapshot["scheduler_speedup"] = round(
            heap_run["wall_clock_s"]
            / max(compiled["wall_clock_s"], 1e-9),
            3,
        )
        if heap_run["cycles"] != compiled["cycles"] or (
            heap_run["scheduler_events"] != compiled["scheduler_events"]
        ):
            raise SystemExit(
                "wheel/heap scheduler mismatch: "
                f"{compiled['cycles']}cy/{compiled['scheduler_events']}ev "
                f"!= {heap_run['cycles']}cy/{heap_run['scheduler_events']}ev"
            )
    if warm_plan is not None and warm_codegen is not None:
        # Codegen is an execution path, not a model change: cycles and
        # event counts must be bit-identical before the ratio means
        # anything.
        for row in (warm_plan, warm_codegen):
            if row["cycles"] != interpreted["cycles"] or (
                row["scheduler_events"] != interpreted["scheduler_events"]
            ):
                raise SystemExit(
                    f"mode={row['mode']} warm row diverged: "
                    f"{row['cycles']}cy/{row['scheduler_events']}ev != "
                    f"{interpreted['cycles']}cy/"
                    f"{interpreted['scheduler_events']}ev"
                )
        snapshot["codegen_speedup"] = round(
            warm_codegen["events_per_s"]
            / max(warm_plan["events_per_s"], 1),
            3,
        )
        print(
            f"  codegen ablation (warm): plan "
            f"{warm_plan['events_per_s']:,} -> codegen "
            f"{warm_codegen['events_per_s']:,} events/s "
            f"({snapshot['codegen_speedup']}x, "
            f"{warm_codegen['blocks_codegenned']} blocks generated, "
            f"{warm_codegen['codegen_fallbacks']} fallbacks)"
        )
    if obs_row is not None:
        snapshot["obs_overhead"] = obs_row["obs_overhead"]
        snapshot["obs_overhead_run"] = obs_row
        print(
            f"  obs overhead (warm): metrics off "
            f"{obs_row['wall_clock_off_s']:.4f}s -> on "
            f"{obs_row['wall_clock_on_s']:.4f}s "
            f"({obs_row['obs_overhead']}x, "
            f"{obs_row['metrics_recorded']} metrics recorded, "
            "identical results)"
        )
        if obs_row["obs_overhead"] > OBS_OVERHEAD_CEILING:
            raise SystemExit(
                f"enabled-telemetry overhead {obs_row['obs_overhead']}x "
                f"exceeds the {OBS_OVERHEAD_CEILING}x acceptance ceiling "
                "(a metric write crept into the simulation hot path; "
                "see docs/observability.md)"
            )
    headline = compiled or interpreted
    print(
        f"{output}: {headline['events_per_s']:,} events/s "
        f"({headline['wall_clock_s']:.3f} s, {headline['cycles']} cycles"
        + (
            f", {snapshot['speedup']}x over interpreted)"
            if compiled is not None
            else ")"
        )
    )
    if not args.skip_scenarios:
        snapshot["scenario_runs"] = record_scenario_rows()
    output.write_text(json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")
    if committed is not None:
        check_engine_regression(
            committed, snapshot, args.regression_threshold
        )
    if not args.engine_only:
        record_sweep_throughput(Path(args.sweep_output), args.sweep_jobs)
        if not args.skip_service:
            record_service_throughput(Path(args.service_output))
    return 0


def _run_mode(run: dict) -> str:
    """A run's execution mode; pre-ExecutionMode snapshots only carry
    the ``compile_plans`` boolean, which maps onto plan/interpret."""
    mode = run.get("mode")
    if mode is not None:
        return mode
    return "plan" if run.get("compile_plans") else "interpret"


def _events_per_s(snapshot: dict, compile_plans: bool) -> int:
    """The snapshot's first cold run with the given engine strategy (any
    scheduler — pre-wheel snapshots lack the field), or 0."""
    for run in snapshot.get("runs", []):
        if run.get("warm"):
            continue
        if (_run_mode(run) != "interpret") == compile_plans:
            return run.get("events_per_s", 0)
    return 0


def _mode_events_per_s(snapshot: dict, mode: str, warm: bool) -> int:
    """The snapshot's first run with the given mode/warmth, or 0 (older
    committed snapshots have no warm ablation rows)."""
    for run in snapshot.get("runs", []):
        if _run_mode(run) == mode and bool(run.get("warm")) == warm:
            return run.get("events_per_s", 0)
    return 0


def check_engine_regression(
    committed: dict, fresh: dict, threshold: float
) -> None:
    """Fail (exit non-zero) when events/s regressed beyond tolerance.

    The gate is the **compiled/interpreted events/s ratio**, measured
    within each snapshot, at ``threshold`` (default 10%): it is
    machine-neutral, so a committed baseline recorded on different
    hardware cannot trip it, and it catches regressions of the compiled
    fast path.  The raw events/s diff is printed *informationally only*:
    this class of single-CPU environment swings raw throughput by well
    over 30% on identical code (clock throttling, runner-class
    variance), so any raw cross-machine tolerance either flakes or is
    too loose to mean anything — a slowdown hitting both engine
    strategies proportionally must be judged from the printed numbers
    (or a local A/B), not gated in CI.

    Runs are compared like-for-like (compiled vs compiled, falling back
    to interpreted vs interpreted for ``--interpret-only`` snapshots);
    an exceeded tolerance aborts so CI fails on the regression.
    """
    checks = []  # (metric, before, after, tolerance or None=informational)
    before = _events_per_s(committed, True)
    after = _events_per_s(fresh, True)
    if before and after:
        checks.append(("events/s (compiled)", before, after, None))
        base_before = _events_per_s(committed, False)
        base_after = _events_per_s(fresh, False)
        if base_before and base_after:
            checks.append(
                (
                    "compiled/interpreted events/s ratio",
                    round(before / base_before, 4),
                    round(after / base_after, 4),
                    threshold,
                )
            )
        # The codegen ablation gate: the warm codegen/plan events/s
        # ratio is machine-neutral the same way (both sides measured in
        # one run on one machine), so a codegen-path regression fails CI
        # even when raw throughput swings.
        cg_before = _mode_events_per_s(committed, "codegen", warm=True)
        cg_after = _mode_events_per_s(fresh, "codegen", warm=True)
        warm_before = _mode_events_per_s(committed, "plan", warm=True)
        warm_after = _mode_events_per_s(fresh, "plan", warm=True)
        if cg_before and cg_after and warm_before and warm_after:
            checks.append(
                (
                    "codegen/plan warm events/s ratio",
                    round(cg_before / warm_before, 4),
                    round(cg_after / warm_after, 4),
                    threshold,
                )
            )
    else:
        before = _events_per_s(committed, False)
        after = _events_per_s(fresh, False)
        if before and after:
            checks.append(("events/s (interpreted)", before, after, None))
    if not checks:
        print(
            "regression check: no comparable runs between committed and "
            "fresh snapshots; skipped"
        )
        return
    failures = []
    # The telemetry gate is absolute, not relative to the committed
    # snapshot: enabled metrics must cost <= 2% regardless of history.
    obs_overhead = fresh.get("obs_overhead")
    if obs_overhead is not None:
        verdict = "OK" if obs_overhead <= OBS_OVERHEAD_CEILING else (
            "REGRESSION"
        )
        print(
            f"regression check [obs_overhead]: fresh {obs_overhead}x "
            f"(absolute ceiling {OBS_OVERHEAD_CEILING}x): {verdict}"
        )
        if obs_overhead > OBS_OVERHEAD_CEILING:
            failures.append(
                f"obs_overhead {obs_overhead}x exceeds the "
                f"{OBS_OVERHEAD_CEILING}x ceiling"
            )
    for metric, before, after, tolerance in checks:
        change = (after - before) / before
        if tolerance is None:
            print(
                f"regression check [{metric}]: committed {before:,} -> "
                f"fresh {after:,} ({change:+.1%}, informational)"
            )
            continue
        verdict = "OK" if change >= -tolerance else "REGRESSION"
        print(
            f"regression check [{metric}]: committed {before:,} -> fresh "
            f"{after:,} ({change:+.1%}, tolerance -{tolerance:.0%}): "
            f"{verdict}"
        )
        if change < -tolerance:
            failures.append(f"{metric} fell {-change:.1%} (> {tolerance:.0%})")
    if failures:
        raise SystemExit(
            "engine-speed regression vs the committed "
            "BENCH_engine_speed.json: " + "; ".join(failures)
        )


if __name__ == "__main__":
    raise SystemExit(main())
