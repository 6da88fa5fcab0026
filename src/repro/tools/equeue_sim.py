"""``equeue-sim``: simulate textual EQueue programs (Fig. 7's flow).

Usage::

    equeue-sim program.mlir --trace trace.json
    equeue-sim program.mlir --mode plan --stats-json stats.json
    equeue-sim program.mlir --pipeline "equeue-read-write,..." --max-cycles 100000
    equeue-sim a.mlir b.mlir c.mlir --jobs 4
    equeue-sim --scenario gemm:k=32,tile_k=8 --seed 7
    equeue-sim --scenario gemm --sweep --jobs 4 --journal sweep.journal
    equeue-sim --scenario gemm --sweep --journal sweep.journal --resume
    equeue-sim --list-scenarios

Multiple input files form a batch: each program is an independent
simulation, so ``--jobs N`` shards them across a process pool (see
:mod:`repro.sim.batch`).  Summaries are printed in input order either
way, so parallel output is identical to serial output.

``--scenario NAME[:key=val,...]`` simulates a registered workload from
:mod:`repro.scenarios` instead of an input file: the scenario's module
is built and verified, deterministic inputs are generated from
``--seed``, and after the summary the scenario's reference-stats oracle
runs against the result.  ``--list-scenarios`` enumerates the registry.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from .. import dialects  # noqa: F401  (register dialects)
from ..ir import parse_module, verify
from ..obs import spans as obs_spans
from ..obs.spans import span as _span
from ..passes import PassManager
from ..scenarios import ScenarioError, all_scenarios, parse_scenario_spec
from ..sim import (
    EngineOptions,
    ExecutionMode,
    SweepRunner,
    resolve_execution_mode,
    simulate,
)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equeue-sim",
        description="Simulate EQueue programs and print the profiling "
        "summary (§IV-B).  Multiple inputs run as a batch.",
    )
    parser.add_argument(
        "input", nargs="*", default=["-"],
        help="input .mlir file(s) ('-' for stdin)",
    )
    parser.add_argument(
        "--pipeline", default="",
        help="pass pipeline to apply before simulation",
    )
    parser.add_argument(
        "--trace", default="",
        help="write a Chrome Trace Event JSON file to this path "
        "(single input only)",
    )
    parser.add_argument(
        "--host-trace", default="",
        help="write ONE merged Perfetto-loadable JSON to this path: "
        "host wall-clock spans (parse, verify, plan/codegen compile, "
        "DES run) on their own pid alongside the simulated-cycle "
        "slices (single input only; see docs/observability.md)",
    )
    parser.add_argument(
        "--inputs", default="",
        help="an .npz file whose arrays initialize same-named buffers",
    )
    parser.add_argument(
        "--stats-json", default="",
        help="write the machine-readable result record (the canonical "
        "format shared with the service result store) to this path "
        "(single input only)",
    )
    parser.add_argument(
        "--dump-buffer", action="append", default=[],
        help="print a named buffer's final contents (repeatable)",
    )
    parser.add_argument(
        "--max-cycles", type=int, default=0,
        help="stop the simulation after this many cycles (0 = unlimited)",
    )
    parser.add_argument(
        "--strict-capacity", action="store_true",
        help="error if allocations exceed declared memory sizes",
    )
    parser.add_argument(
        "--mode", choices=[m.value for m in ExecutionMode],
        default=resolve_execution_mode(None).value,
        help="execution path: the reference interpreter, block-plan "
        "replay only, or plan replay that swaps in specialized Python "
        "source for each block once it has run often enough to repay "
        "generating it (bit-identical results across all three; "
        "default: %(default)s)",
    )
    parser.add_argument(
        "--scheduler", choices=("wheel", "heap"), default="wheel",
        help="discrete-event scheduler backend: the tiered event wheel "
        "(default) or the classic binary heap (slower; for differential "
        "debugging, mirroring --mode interpret)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="simulate a multi-file batch across this many worker "
        "processes (0 = all usable CPUs; default 1 = serial)",
    )
    parser.add_argument(
        "--scenario", default="",
        help="simulate a registered workload instead of an input file: "
        "NAME or NAME:key=val,... (see --list-scenarios)",
    )
    parser.add_argument(
        "--list-scenarios", action="store_true",
        help="list the registered workload scenarios and exit",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed for deterministic scenario input generation (default 0)",
    )
    parser.add_argument(
        "--sweep", action="store_true",
        help="run the scenario's default parameter grid instead of a "
        "single point (spec values pin non-axis fields); combine with "
        "--jobs for a parallel sweep",
    )
    parser.add_argument(
        "--journal", default="",
        help="checkpoint completed sweep points to this append-only "
        "journal so an interrupted run can be resumed (--sweep only)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep from --journal, recomputing "
        "only the missing points",
    )
    parser.add_argument(
        "--sweep-out", default="",
        help="write the sweep's canonical result records (JSONL, one "
        "point per line, host-timing fields stripped) to this path",
    )
    parser.add_argument(
        "--sample", type=int, default=0,
        help="deterministically subsample the sweep grid to this many "
        "points (0 = full grid; --sweep only)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="run each scenario's reference-stats oracle on every sweep "
        "point (--sweep only)",
    )
    return parser


def _simulate_payload(payload: Tuple) -> Tuple[str, str, Optional[str]]:
    """Batch worker: simulate one program, return (name, output, error).

    Module-level and fed purely picklable data so it is spawn-safe for
    :class:`~repro.sim.batch.SweepRunner` workers.
    """
    (
        name, source, pipeline, inputs_path, dump_buffers,
        max_cycles, strict_capacity, mode, scheduler, trace_path,
        stats_path, host_trace_path,
    ) = payload
    lines: List[str] = []
    try:
        with _span("sim.parse", input=name):
            module = parse_module(source)
        with _span("sim.verify", input=name):
            verify(module)
        if pipeline:
            with _span("sim.pipeline", pipeline=pipeline):
                PassManager.parse(pipeline).run(module)
        options = EngineOptions(
            trace=bool(trace_path or host_trace_path),
            detailed_trace=bool(trace_path or host_trace_path),
            max_cycles=max_cycles,
            strict_capacity=strict_capacity,
            mode=mode,
            scheduler=scheduler,
        )
        inputs = None
        if inputs_path:
            import numpy as np

            with np.load(inputs_path) as data:
                inputs = {key: data[key] for key in data.files}
        result = simulate(module, options, inputs=inputs)
    except Exception as error:  # CLI boundary: report, don't traceback
        return name, "", str(error)
    emitted, error = _emit_result(
        result, dump_buffers, trace_path, stats_path,
        host_trace_path=host_trace_path,
    )
    lines.extend(emitted)
    return name, "\n".join(lines), error


def _emit_result(
    result, dump_buffers, trace_path, stats_path="", checked=None,
    host_trace_path="",
) -> Tuple[List[str], Optional[str]]:
    """Summary, buffer dumps, and trace/stats writes for one simulation.

    Returns ``(lines, error)``; shared by the file and --scenario paths
    so output and error handling cannot drift between them.
    ``stats_path`` writes the canonical machine-readable record
    (:func:`repro.sim.batch.result_record` — the same format the service
    result store and ``equeue-serve`` responses use); ``checked`` is the
    oracle's stats dict when one ran.
    """
    lines = [result.summary.format()]
    for buffer_name in dump_buffers:
        try:
            lines.append(
                f"{buffer_name} = {result.buffer(buffer_name).tolist()}"
            )
        except Exception as error:
            return lines, str(error)
    if trace_path:
        try:
            result.trace.to_json(trace_path)
        except OSError as error:
            # A bad --trace path must report cleanly, not traceback
            # (the simulation itself succeeded; only the write failed).
            return lines, str(error)
        lines.append(
            f"trace written to {trace_path} ({len(result.trace)} records)"
        )
    if host_trace_path:
        tracer = obs_spans.TRACER
        host_events = tracer.to_events() if tracer is not None else []
        try:
            obs_spans.merge_host_trace(
                host_events, result.trace.to_events(), path=host_trace_path
            )
        except OSError as error:
            return lines, str(error)
        lines.append(
            f"host trace written to {host_trace_path} "
            f"({len(host_events)} host spans, "
            f"{len(result.trace)} cycle records)"
        )
    if stats_path:
        from ..analysis.export import record_line
        from ..sim.batch import result_record

        try:
            with open(stats_path, "w", encoding="utf-8") as handle:
                handle.write(record_line(result_record(result, checked)))
                handle.write("\n")
        except OSError as error:
            return lines, str(error)
        lines.append(f"stats written to {stats_path}")
    return lines, None


def _print_scenarios() -> None:
    scenarios = all_scenarios()
    print("available scenarios:")
    width = max(len(s.name) for s in scenarios)
    for scenario in scenarios:
        cfg = scenario.configure()
        defaults = ",".join(
            f"{f}={getattr(cfg, f)}" for f in scenario.field_names()
        )
        print(f"  {scenario.name:<{width}}  {scenario.summary}")
        print(f"  {'':<{width}}  defaults: {defaults}")


def _engine_options(args, trace: bool) -> EngineOptions:
    return EngineOptions(
        trace=trace,
        detailed_trace=trace,
        max_cycles=args.max_cycles,
        strict_capacity=args.strict_capacity,
        mode=args.mode,
        scheduler=args.scheduler,
    )


def _run_scenario(args, scenario, cfg) -> int:
    """Build, simulate, and oracle-check one registry scenario."""
    try:
        with _span("scenario.build", scenario=scenario.name):
            module = scenario.build(cfg)
        with _span("scenario.make_inputs", seed=args.seed):
            inputs = scenario.make_inputs(cfg, args.seed)
        result = simulate(
            module,
            _engine_options(args, bool(args.trace or args.host_trace)),
            inputs=inputs,
        )
    except Exception as error:  # CLI boundary: report, don't traceback
        print(f"equeue-sim: error: {error}", file=sys.stderr)
        return 1
    # Run the oracle before emitting so --stats-json records its stats.
    checked = None
    check_failure = None
    if not result.truncated:
        try:
            checked = scenario.check(cfg, result, args.seed)
        except AssertionError as error:
            check_failure = str(error)
    print(f"== scenario {scenario.name}: {cfg} ==")
    lines, error = _emit_result(
        result, args.dump_buffer, args.trace, args.stats_json, checked,
        host_trace_path=args.host_trace,
    )
    print("\n".join(lines))
    if error is not None:
        print(f"equeue-sim: error: {error}", file=sys.stderr)
        return 1
    if result.truncated:
        print("reference check: skipped (simulation truncated)")
        return 0
    if check_failure is not None:
        print(
            f"equeue-sim: error: scenario {scenario.name!r} failed its "
            f"reference check: {check_failure}",
            file=sys.stderr,
        )
        return 1
    summary = ", ".join(f"{key}={value}" for key, value in checked.items())
    print(f"reference check: OK ({summary})" if checked
          else "reference check: OK")
    return 0


def _sweep_option_overrides(args) -> Optional[dict]:
    """Engine-option overrides a sweep should apply to every point.

    Only non-default flags are recorded so the journal header (which
    embeds these) stays identical between a plain run and a resume that
    passed the same command line.
    """
    overrides = {}
    if args.max_cycles:
        overrides["max_cycles"] = args.max_cycles
    if args.strict_capacity:
        overrides["strict_capacity"] = True
    if args.mode != resolve_execution_mode(None).value:
        overrides["mode"] = args.mode
    if args.scheduler != "wheel":
        overrides["scheduler"] = args.scheduler
    return overrides or None


def _run_sweep(args, scenario, cfg) -> int:
    """Run a scenario parameter sweep with journaling and graceful stop.

    SIGTERM/SIGINT request a drain instead of killing the process:
    in-flight points finish, completed points land in the journal, and
    the run exits with status 3 so callers know ``--resume`` applies.
    """
    import signal
    import threading
    from dataclasses import asdict

    from ..analysis.export import record_line
    from ..scenarios import scenario_grid
    from ..scenarios.sweep import (
        run_scenario_sweep,
        scenario_point_export_record,
    )
    from ..sim.batch import ResilienceStats, SweepInterrupted
    from ..sim.journal import JournalError

    # The full spec config is the grid base: axis fields are overridden
    # per point, every other field stays pinned at the spec's value.
    grid = scenario_grid(scenario.name, **asdict(cfg))
    stats = ResilienceStats()
    cancel = threading.Event()

    def _request_stop(signum, frame):
        cancel.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _request_stop)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        try:
            points = run_scenario_sweep(
                grid,
                jobs=args.jobs,
                seed=args.seed,
                sample=args.sample or None,
                option_overrides=_sweep_option_overrides(args),
                check=args.check,
                journal=args.journal or None,
                resume=args.resume,
                cancel=cancel,
                runner_stats=stats,
            )
        except SweepInterrupted as stop:
            hint = (
                f"; journaled to {args.journal} — rerun with --resume "
                "to finish"
                if args.journal
                else "; no --journal was set, progress is lost"
            )
            print(
                "equeue-sim: sweep interrupted at "
                f"{stop.completed}/{stop.total} points{hint}",
                file=sys.stderr,
            )
            return 3
        except (JournalError, ScenarioError, OSError) as error:
            print(f"equeue-sim: error: {error}", file=sys.stderr)
            return 1
        except Exception as error:  # CLI boundary: report, don't traceback
            print(f"equeue-sim: error: {error}", file=sys.stderr)
            return 1
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    print(f"== sweep {scenario.name}: {len(points)} points ==")
    if points:
        cycles = [point.cycles for point in points]
        print(
            f"cycles: min={min(cycles)} max={max(cycles)} "
            f"total={sum(cycles)}"
        )
    if stats.points_resumed:
        print(f"resumed from journal: {stats.points_resumed} points")
    if stats.eventful():
        eventful = {k: v for k, v in stats.to_dict().items() if v}
        print(
            "resilience: "
            + ", ".join(f"{key}={value}" for key, value in eventful.items())
        )
    if args.check:
        print(f"reference checks: OK ({len(points)} points)")
    if args.sweep_out:
        try:
            with open(args.sweep_out, "w", encoding="utf-8") as handle:
                for point in points:
                    handle.write(
                        record_line(scenario_point_export_record(point))
                    )
                    handle.write("\n")
        except OSError as error:
            print(f"equeue-sim: error: {error}", file=sys.stderr)
            return 1
        print(f"sweep records written to {args.sweep_out}")
    return 0


def _validate_args(parser: argparse.ArgumentParser, args) -> None:
    """Single validation path for every flag combination.

    All rejections route through ``parser.error`` so bad invocations
    exit with a clean usage error (status 2), never a traceback, and
    the rules cannot drift between call sites.  (``--mode`` is range-
    checked by its argparse ``choices``.)
    """
    # -- flag-value ranges ---------------------------------------------
    if args.max_cycles < 0:
        parser.error(f"--max-cycles must be >= 0, got {args.max_cycles}")
    if args.jobs < 0:
        parser.error(f"--jobs must be >= 0, got {args.jobs}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if args.sample < 0:
        parser.error(f"--sample must be >= 0, got {args.sample}")
    # -- sweep flag dependencies ---------------------------------------
    if args.sweep and not args.scenario:
        parser.error("--sweep requires --scenario")
    if not args.sweep:
        for flag, value in (
            ("--journal", args.journal),
            ("--resume", args.resume),
            ("--sweep-out", args.sweep_out),
            ("--sample", args.sample),
            ("--check", args.check),
        ):
            if value:
                parser.error(f"{flag} requires --sweep")
    if args.resume and not args.journal:
        parser.error("--resume requires --journal")
    # -- scenario-mode exclusions --------------------------------------
    if args.scenario:
        if args.input != ["-"]:
            parser.error("--scenario replaces input files; drop the paths")
        # Batch/file-only flags would be silently meaningless here, and a
        # user passing them likely expects them to apply — reject loudly.
        if args.pipeline:
            parser.error("--pipeline does not apply to --scenario runs")
        if args.inputs:
            parser.error(
                "--inputs does not apply to --scenario runs (scenario "
                "inputs are generated from --seed)"
            )
        if args.jobs != 1 and not args.sweep:
            parser.error("--jobs applies to multi-file batches and "
                         "--sweep runs, not single --scenario runs")
        if args.sweep:
            # Single-run output flags have no per-point meaning.
            for flag, value in (
                ("--trace", args.trace),
                ("--host-trace", args.host_trace),
                ("--stats-json", args.stats_json),
                ("--dump-buffer", args.dump_buffer),
            ):
                if value:
                    parser.error(f"{flag} does not apply to --sweep runs")


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.list_scenarios:
        _print_scenarios()
        return 0
    _validate_args(parser, args)
    if args.host_trace:
        # Arm the host span tracer for this process; the engine, the
        # parser, and the plan/codegen compilers all record into it.
        obs_spans.enable_spans()
    if args.scenario:
        try:
            scenario, cfg = parse_scenario_spec(args.scenario)
        except ScenarioError as error:
            parser.error(str(error))
        if args.sweep:
            return _run_sweep(args, scenario, cfg)
        return _run_scenario(args, scenario, cfg)
    if args.trace and len(args.input) > 1:
        print(
            "equeue-sim: error: --trace supports a single input file",
            file=sys.stderr,
        )
        return 1
    if args.host_trace and len(args.input) > 1:
        print(
            "equeue-sim: error: --host-trace supports a single input file",
            file=sys.stderr,
        )
        return 1
    if args.stats_json and len(args.input) > 1:
        print(
            "equeue-sim: error: --stats-json supports a single input file",
            file=sys.stderr,
        )
        return 1

    sources = []
    stdin_source = None
    for name in args.input:
        if name == "-":
            if stdin_source is None:  # stdin is consumable exactly once
                stdin_source = sys.stdin.read()
            sources.append(("<stdin>", stdin_source))
        else:
            try:
                with open(name, "r", encoding="utf-8") as handle:
                    sources.append((name, handle.read()))
            except OSError as error:
                print(f"equeue-sim: error: {error}", file=sys.stderr)
                return 1

    payloads = [
        (
            name, source, args.pipeline, args.inputs, args.dump_buffer,
            args.max_cycles, args.strict_capacity, args.mode,
            args.scheduler, args.trace, args.stats_json, args.host_trace,
        )
        for name, source in sources
    ]
    runner = SweepRunner(jobs=1 if len(payloads) == 1 else args.jobs)
    failed = False
    batch = len(payloads) > 1
    for name, output, error in runner.map(_simulate_payload, payloads):
        if batch:
            print(f"== {name} ==")
        if output:
            print(output)
        if error is not None:
            # Name the file on stderr too: batch headers go to stdout
            # only, and the streams may be captured separately.
            prefix = f"{name}: " if batch else ""
            print(f"equeue-sim: error: {prefix}{error}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
