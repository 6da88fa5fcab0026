#!/usr/bin/env python3
"""The repo's layered performance benchmark (see README.md beside this file).

    python3 benchmarks/perf/run.py                      # every workload, full report
    python3 benchmarks/perf/run.py --quick              # tiny op counts, < 30 s
    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --update-expected

Every block of timed ops runs in a fresh subprocess of this same file
(``--block``).  The full report runs ``--blocks`` untraced blocks per
workload, round-robin across workloads so a noisy phase of the shared
machine is spread over all of them, then one traced block per workload.
With ``--trace 0|1`` (the benchmark driver's form) it runs one workload
and prints one JSON object as the last line: the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).

Exit code is non-zero when any op failed.
"""

from __future__ import annotations

import sys
import time

PROCESS_STARTED = time.perf_counter()

from pathlib import Path  # noqa: E402

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
sys.path[:0] = [str(PERF_DIR), str(REPO_ROOT / "src")]

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]
#: Set-ups timed per workload and run (the median is reported): the
#: blocks' own plus as many set-up-only blocks as it takes.
SETUP_SAMPLES = 5
BLOCK_TIMEOUT_S = 170


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument(
        "--seed", type=lambda text: int(text) % 2**31, default=0,
        help="drives input data, op order and request schedule",
    )
    parser.add_argument(
        "--seconds", type=float,
        help="timed seconds per untraced block (default: run_seconds of "
        "BENCHMARK.json; one pass with --quick)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="driver form: 0 = end-to-end metrics, 1 = per-layer metrics",
    )
    parser.add_argument(
        "--blocks", type=int,
        help="untraced blocks per workload (default 2; 1 with --trace or --quick)",
    )
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default="", help="results file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--update-expected", action="store_true")
    # One block in this process (what the orchestrator spawns).
    parser.add_argument("--block", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--collect", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--passes", type=int, default=0, help=argparse.SUPPRESS)
    # Test hooks: make one op fail, to prove failures are counted.
    parser.add_argument(
        "--inject", default="", choices=("", "bad-request", "bad-fingerprint"),
        help=argparse.SUPPRESS,
    )
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Spawning blocks
# ---------------------------------------------------------------------------


def spawn_block(args, workload: str, seconds: float, *flags: str) -> Dict:
    """Run one block in a fresh interpreter; returns its result."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--block",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        *flags,
    ]
    if args.quick:
        command.append("--quick")
    if args.inject:
        command += ["--inject", args.inject]
    # A fixed hash seed keeps dict/set layouts, and so timings, alike
    # from block to block.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    done = subprocess.run(
        command, capture_output=True, text=True, env=env,
        timeout=BLOCK_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"block {workload} {' '.join(flags)} exited "
            f"{done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def end_to_end(blocks: List[Dict], setups: List[float]) -> Dict[str, float]:
    """The end-to-end metrics of one workload from its untraced blocks.

    Every pass of every block is one sample of throughput, median
    latency and CPU per op; the reported value is the median sample.
    """
    passes = [p for block in blocks for p in block["passes"]]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(p["ops"] / p["wall_s"] for p in passes),
        "op_p50_ms": statistics.median(p["p50_ms"] for p in passes),
        "cpu_s_per_op": statistics.median(p["cpu_s"] / p["ops"] for p in passes),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in blocks),
    }


def per_layer(untraced: List[Dict], traced: Dict) -> Dict[str, float]:
    """The per-layer metrics: the traced block's ledger plus the
    diagnostics that compare it with the untraced blocks."""
    metrics = dict(traced["layers"]["metrics"])
    everything = untraced + [traced]
    passes = [p for block in untraced for p in block["passes"]]
    attempted = sum(b["attempted"] for b in everything)
    untraced_rate = statistics.median(p["ops"] / p["wall_s"] for p in passes)
    traced_rate = statistics.median(
        p["ops"] / p["wall_s"] for p in traced["passes"]
    )
    metrics.update(
        {
            "client.op_p90_ms": statistics.median(b["op_p90_ms"] for b in untraced),
            "client.op_p99_ms": statistics.median(b["op_p99_ms"] for b in untraced),
            "client.samples": sum(b["samples"] for b in untraced),
            "client.unreferenced_ops": sum(b["unreferenced_ops"] for b in everything),
            "client.raw_ops_per_s": statistics.median(
                p["ops"] / p["raw_wall_s"] for p in passes
            ),
            "failed_share": sum(b["failed"] for b in everything) / attempted,
            "ref_cycle_error": max(b["ref_cycle_error"] for b in everything),
            "host.probe_ms": statistics.median(b["probe_ms"] for b in untraced),
            "host.slowdown": statistics.median(b["slowdown"] for b in untraced),
            "host.noisy_share": statistics.median(b["noisy_share"] for b in untraced),
            "obs.trace_overhead": traced_rate / untraced_rate,
            "obs.first_op_closure": traced["layers"]["first_op_closure"],
        }
    )
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    unknown = sorted(set(metrics) - declared)
    if unknown:
        raise SystemExit(f"per-layer metrics not in BENCHMARK.json: {unknown}")
    # A layer a workload never enters reads 0 there.
    return {name: float(metrics.get(name, 0.0)) for name in sorted(declared)}


def with_units(values: Dict[str, float], section: str) -> Dict[str, Dict]:
    units = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    return {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
    }


# ---------------------------------------------------------------------------
# Running workloads
# ---------------------------------------------------------------------------


def run_workloads(args, names: List[str], blocks: int, want_trace: Optional[int]) -> Dict:
    """Run the requested blocks; returns ``{workload: report}``."""
    untraced: Dict[str, List[Dict]] = {name: [] for name in names}
    setups: Dict[str, List[float]] = {name: [] for name in names}
    traced: Dict[str, Dict] = {}
    seconds = args.seconds
    if want_trace == 1:
        # The traced block shares the run's time with the untraced block
        # it is compared against.
        seconds = args.seconds / 2
    for _ in range(blocks):
        for name in names:  # round-robin across workloads
            block = spawn_block(args, name, seconds, "--trace", "0")
            untraced[name].append(block)
            setups[name].append(block["setup_s"])
    for name in names:
        if want_trace != 1 and not args.quick:
            for _ in range(max(0, SETUP_SAMPLES - blocks)):
                extra = spawn_block(args, name, 0.0, "--trace", "0", "--setup-only")
                setups[name].append(extra["setup_s"])
        if want_trace != 0:
            traced[name] = spawn_block(args, name, seconds, "--trace", "1")
    reports = {}
    for name in names:
        everything = untraced[name] + ([traced[name]] if name in traced else [])
        report = {
            "attempted": sum(b["attempted"] for b in everything),
            "failed": sum(b["failed"] for b in everything),
            "failures": [why for b in everything for why in b["failures"]],
            "end_to_end": with_units(
                end_to_end(untraced[name], setups[name]), "end_to_end"
            ),
            # What each median was taken over: every set-up, and for
            # the rest the per-block values (--compare's spread).
            "samples": {
                metric: setups[name]
                if metric == "setup_s"
                else [
                    end_to_end([block], setups[name])[metric]
                    for block in untraced[name]
                ]
                for metric in (m["name"] for m in BENCHMARK["end_to_end"])
            },
            "passes_by_block": [block["passes"] for block in untraced[name]],
        }
        if name in traced:
            report["per_layer"] = with_units(
                per_layer(untraced[name], traced[name]), "per_layer"
            )
            report["self_time"] = traced[name]["layers"]["self_time"]
            report["trace"] = traced[name]["layers"]["trace"]
        report["correct"] = report["failed"] == 0
        reports[name] = report
    return reports


def print_report(name: str, report: Dict) -> None:
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    print(f"\n== {name}: {report['attempted']} ops, {report['failed']} failed ==")
    for why in report["failures"][:5]:
        print(f"   FAILED {why}")
    for metric, entry in report["end_to_end"].items():
        samples = ", ".join(f"{v:.4g}" for v in report["samples"][metric])
        print(
            f"  {metric:<14} {entry['value']:>12.5g} {entry['unit']:<6}"
            f" bound {bounds[metric]:.0%}   samples: {samples}"
        )
    if "per_layer" not in report:
        return
    print("  -- per layer (layers this workload never enters read 0 and are omitted) --")
    for metric, entry in report["per_layer"].items():
        if entry["value"]:
            print(f"  {metric:<30} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  -- self time by span, traced block ({report['trace']}) --")
    print(f"  {'span':<26} {'count':>7} {'total s':>10} {'self s':>10}")
    for row in report["self_time"]:
        print(
            f"  {row['name']:<26} {row['count']:>7} "
            f"{row['total_s']:>10.4f} {row['self_s']:>10.4f}"
        )


def contract_line(report: Dict, section: str) -> str:
    """The driver's result object (last line of stdout)."""
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": report[section],
        }
    )


def update_expected(args) -> int:
    """Re-pin ``expected.json`` from one collecting block per workload at
    seed 0; refuses when any oracle or reference check fails."""
    args.seed = 0
    pinned: Dict[str, Dict] = {}
    for name in WORKLOAD_NAMES:
        # One pass each; service_mixed runs until its supply of new
        # structures is spent, so that every one of them is pinned.
        passes = "1000" if name == "service_mixed" else "1"
        block = spawn_block(
            args, name, 0.0, "--trace", "0", "--collect", "--passes", passes
        )
        if block["failed"] or block["ref_cycle_error"]:
            raise SystemExit(
                f"refusing to pin {name}: {block['failed']} failed ops, "
                f"ref_cycle_error {block['ref_cycle_error']}: {block['failures']}"
            )
        pinned.setdefault(block["expected_key"], {}).update(block["fingerprints"])
    path = PERF_DIR / "expected.json"
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {sum(len(t) for t in pinned.values())} fingerprints in {path}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.block:
        # The ruler first, while the process holds nothing else (its
        # ring is weighed by the RSS it adds), and read before the
        # heavy imports: set-up is scaled by the host's speed at both
        # of its ends.
        import host

        ruler = host.Ruler()
        ruler.read(host.SETUP_READINGS)
        import block

        print(json.dumps(block.run_block(args, PROCESS_STARTED, ruler)))
        return 0
    if args.compare:
        import compare

        return compare.main(*args.compare, BENCHMARK)
    if args.update_expected:
        return update_expected(args)
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(BENCHMARK["run_seconds"])
    blocks = args.blocks or (1 if args.quick or args.trace is not None else 2)
    started = time.perf_counter()
    reports = run_workloads(args, names, blocks, args.trace)
    for name, report in reports.items():
        print_report(name, report)
    out = Path(args.out) if args.out else REPO_ROOT / "benchmarks/out/perf/results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(
            {
                "schema": "equeue-perf/v1",
                "seed": args.seed,
                "seconds": args.seconds,
                "quick": args.quick,
                "workloads": reports,
            },
            indent=1,
        )
    )
    print(f"\nwrote {out} in {time.perf_counter() - started:.1f} s")
    failed = sum(report["failed"] for report in reports.values())
    if args.trace is not None and args.workload:
        section = "per_layer" if args.trace else "end_to_end"
        print(contract_line(reports[args.workload], section))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
