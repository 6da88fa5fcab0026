"""One benchmark block: set a workload up, time passes of ops, judge them.

A block runs in a fresh subprocess (``run.py --block``) so that set-up
time is paid from a cold interpreter every time and no state leaks
between blocks.  The block owns all timing:

* set-up is the wall from process start to the first timed op, less
  what the host-speed ruler (``host.py``) spent;
* a pass is a workload-defined, fixed list of ops, timed segment by
  segment, with a ruler reading after each segment;
* the number of passes is fixed by the requested seconds (see
  :func:`pass_count`), so op and sample counts repeat exactly;
* every op is judged after its pass, outside the timed region;
* the gated times (a pass's wall, CPU and median latency, and set-up)
  are divided by one number per block, ``host.slowdown`` of the
  readings around them; the raw values are kept beside them.

A traced block switches on ``repro.obs`` spans (the harness's own
``op``/``call.*`` spans and the program's shipped span sites land in one
recorder) and the metrics registry, then reports per-layer numbers for
its first pass (``layers``) and writes a Chrome trace.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from typing import Dict, List, Optional

import host
import probes
import tracing
import workloads


def cpu_seconds() -> float:
    """CPU seconds of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Ledger:
    """Correctness bookkeeping across the passes of one block."""

    def __init__(self, expected: Dict, seed: int):
        self.expected = expected
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.fingerprints: Dict[str, Dict] = {}
        self.reference_error = 0.0
        self.unreferenced = 0

    def fail(self, op_id: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{op_id}: {why}")

    def record(self, op, verdict) -> None:
        self.attempted += op.count
        if verdict.reference_error is None:
            self.unreferenced += op.count
        else:
            self.reference_error = max(
                self.reference_error, verdict.reference_error
            )
        why = verdict.error or self._mismatch(op.op_id, verdict.fingerprint)
        if not why and verdict.reference_error:
            why = f"cycles off the reference by {verdict.reference_error:.3%}"
        if why:
            self.fail(op.op_id, why)

    def _mismatch(self, op_id: str, fingerprint: Optional[Dict]) -> Optional[str]:
        if fingerprint is None:
            return "no fingerprint"
        earlier = self.fingerprints.setdefault(op_id, fingerprint)
        if earlier != fingerprint:
            return f"repeats disagree: {earlier} then {fingerprint}"
        pinned = self.expected.get(op_id)
        if pinned is None:
            return None
        for key, value in pinned.items():
            # Buffer contents depend on the input data, so the digest
            # is pinned for seed 0 only; cycles and events for any seed.
            if key == "digest" and self.seed != 0:
                continue
            if fingerprint.get(key) != value:
                return f"{key} {fingerprint.get(key)!r} != expected {value!r}"
        return None


def run_pass(workload, pass_index: int, ledger: Ledger, ruler, traced: bool) -> Dict:
    """Time one pass; returns its raw record."""
    segments = workload.segments(pass_index)
    engine_before = tracing.engine_counters() if traced else {}
    ops = []
    wall = cpu = 0.0
    for segment in segments:
        cpu_started = cpu_seconds()
        started = time.perf_counter()
        segment_ops = segment()
        wall += time.perf_counter() - started
        cpu += cpu_seconds() - cpu_started
        ops.extend(segment_ops)
        ruler.read()
    verdicts = [workload.judge(op) for op in ops]
    for op, verdict in zip(ops, verdicts):
        ledger.record(op, verdict)
    counts = workload.pass_counts()
    if traced:
        engine_after = tracing.engine_counters()
        counts.update(
            {key: engine_after[key] - engine_before[key] for key in engine_after}
        )
    why = workload.pass_error(counts)
    if why:
        ledger.fail(f"pass-{pass_index}", why)
    latencies_ms = [op.latency_s * 1e3 for op in ops]
    return {
        "ops": sum(op.count for op in ops),
        "raw_wall_s": wall,
        "raw_cpu_s": cpu,
        "raw_p50_ms": statistics.median(latencies_ms),
        "latencies_ms": latencies_ms,
        "counts": counts,
        "verdicts": verdicts,
    }


def pass_count(workload, seconds: float, override: int = 0) -> int:
    """How many passes a block of ``seconds`` runs.

    Fixed work, not a stopwatch: the count is the workload's frozen
    passes-per-10-s scaled by the requested seconds.  Some workloads
    slow down as their state grows (the service's job index), so a
    time-boxed block would measure a faster program on its slower
    later passes, and op and sample counts would not repeat.
    """
    count = override or max(
        1, round(workload.sizes["passes_per_10s"] * seconds / 10.0)
    )
    return min(count, workload.max_passes() or count)


def run_block(args, process_started: float, ruler) -> Dict:
    """Run the block ``args`` describes in this process; returns its
    JSON-ready result.  ``ruler`` holds the readings taken at
    ``process_started``."""
    traced = bool(args.trace)
    recorder = tracing.start() if traced else None
    workload = workloads.WORKLOADS[args.workload](
        args.seed, workloads.load_sizes(args.quick)[args.workload]
    )
    expected = json.loads((workloads.PERF_DIR / "expected.json").read_text())
    expected = dict(expected.get(workload.expected_key, {}))
    try:
        workload.setup()
        if args.inject == "bad-request":
            workload.inject_bad_request()
        elif args.inject == "bad-fingerprint":
            op_id = sorted(expected)[0]
            expected[op_id] = {**expected[op_id], "cycles": -1}
        gc.collect()
        setup_raw = time.perf_counter() - process_started - ruler.spent_s
        ready = len(ruler.readings)
        ruler.read(host.SETUP_READINGS)
        result = {
            "workload": workload.name,
            "expected_key": workload.expected_key,
            "seed": args.seed,
            "traced": traced,
            "setup_s": setup_raw / host.slowdown(ruler.readings),
            "raw_setup_s": setup_raw,
        }
        if args.setup_only:
            return result
        setup_spans = len(recorder) if traced else 0
        ledger = Ledger(expected, args.seed)
        passes = [
            run_pass(workload, index, ledger, ruler, traced)
            for index in range(pass_count(workload, args.seconds, args.passes))
        ]
        # One divisor for the whole block: every reading from the ones
        # after set-up on.
        readings = ruler.readings[ready:]
        slowdown = host.slowdown(readings)
        latencies = [ms for p in passes for ms in p["latencies_ms"]]
        centiles = statistics.quantiles(latencies, n=100, method="inclusive")
        result.update(
            attempted=ledger.attempted,
            failed=ledger.failed,
            failures=ledger.failures,
            ref_cycle_error=ledger.reference_error,
            unreferenced_ops=ledger.unreferenced,
            # The ring is resident from the first line of the process
            # to the last, so it is part of the peak whenever that was.
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            - ruler.rss_mb,
            samples=len(latencies),
            op_p90_ms=centiles[89],
            op_p99_ms=centiles[98],
            slowdown=slowdown,
            probe_ms=statistics.fmean(readings) * 1e3,
            noisy_share=host.noisy_share(readings),
            passes=[
                {
                    "ops": p["ops"],
                    "wall_s": p["raw_wall_s"] / slowdown,
                    "cpu_s": p["raw_cpu_s"] / slowdown,
                    "p50_ms": p["raw_p50_ms"] / slowdown,
                    "raw_wall_s": p["raw_wall_s"],
                }
                for p in passes
            ],
        )
        if args.collect:
            result["fingerprints"] = ledger.fingerprints
        if traced:
            result["layers"] = tracing.layers(
                workload, recorder, setup_spans, passes
            )
            # Probes time bare calls: telemetry goes off first.
            tracing.stop()
            probe = probes.PROBES.get(workload.name)
            if probe:
                result["layers"]["metrics"].update(probe(workload, passes[0]))
        return result
    finally:
        workload.close()
        if traced:
            tracing.stop()
