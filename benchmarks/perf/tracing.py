"""The traced block's span ledger: per-layer totals, self time, trace file.

The harness wraps every call into a public function in
``repro.obs.span("call.<function>")`` and every op in ``span("op")``.
With tracing off those are the shared no-op span; a traced block calls
``repro.obs.enable_spans()`` so the harness spans and the spans the
program already ships (``engine.verify``, ``engine.elaborate``,
``engine.des_run``, ``plan.compile``, ``codegen.compile``, ``store.put``,
``server.respond``) land in one in-memory recorder.  Nothing is added
under ``src/``.

Nesting is recovered per thread from the timestamps: a span's parent is
the innermost span on the same thread that contains it.  A span's self
time is its duration minus the part its children cover.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List

from repro.obs import disable_spans, enable_spans, merge_host_trace
from repro.obs import metrics as obs_metrics
from workloads import OUT_DIR

#: Harness call spans -> the per-layer metric holding their seconds per
#: pass.  Set-up calls (marked) are totalled over set-up instead.
CALL_METRICS = {
    "call.parse_module": "ir.parse_s",
    "call.verify": "ir.verify_s",
    "call.PassManager.run": "passes.run_s",
    "call.simulate": "sim.simulate_s",
    "call.result_record": "sim.result_record_s",
    "call.Scenario.check": "scenarios.check_s",
    "call.run_sweep": "dse.run_sweep_s",
    "call.ServiceClient.run": "client.run_s",
}
SETUP_CALL_METRICS = {
    "call.print_op": "ir.print_s",
    "call.Scenario.build": "scenarios.build_s",
    "call.Scenario.make_inputs": "scenarios.make_inputs_s",
}
#: Span sites the program ships; reported as ``span.<name>_s`` per pass.
PROGRAM_SPANS = (
    "engine.verify",
    "engine.elaborate",
    "engine.des_run",
    "plan.compile",
    "codegen.compile",
    "store.put",
    "server.respond",
)
#: ``ProfilingSummary`` fields summed over the simulations of a pass
#: that the harness holds a summary for (``sim.<field>``).
SUMMARY_COUNTERS = (
    "vector_loops",
    "vector_iterations",
    "vector_fallbacks",
    "codegen_fallbacks",
    "microtask_events",
    "wheel_events",
    "heap_events",
)
#: Wire ``timings`` of simulated service jobs -> per-layer medians.
WIRE_TIMINGS = {
    "queued_s": "scheduler.queued_ms",
    "execute_s": "scheduler.execute_ms",
    "store_put_s": "store.put_wire_ms",
}
#: Metrics-registry counters -> per-layer count metrics (per pass).
ENGINE_COUNTERS = {
    "engine.runs": "sim.runs",
    "engine.cycles": "sim.cycles",
    "engine.scheduler_events": "sim.events",
    "engine.launches": "sim.launches",
    "engine.plans_compiled": "sim.plans_compiled",
    "engine.plan_cache_hits": "sim.plan_cache_hits",
    "engine.blocks_codegenned": "sim.blocks_codegenned",
    "engine.run_seconds.sum": "sim.engine_run_s",
}


def start():
    """Switch the program's telemetry on; returns the span recorder."""
    obs_metrics.enable_metrics()
    return enable_spans()


def stop() -> None:
    disable_spans()
    obs_metrics.disable_metrics()


def engine_counters() -> Dict[str, float]:
    snapshot = obs_metrics.get_registry().snapshot()
    return {
        metric: snapshot.get(name, 0.0)
        for name, metric in ENGINE_COUNTERS.items()
    }


def nest(events: List[dict]) -> List[dict]:
    """Give each span a ``parent`` (index into ``events`` or None), its
    ``self`` time (microseconds not covered by children) and whether it
    is ``outermost`` (no ancestor of the same name), per thread."""
    by_thread = defaultdict(list)
    for index, event in enumerate(events):
        event.update(index=index, self=event["dur"], parent=None, outermost=True)
        by_thread[event["tid"]].append(event)
    for spans in by_thread.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: List[dict] = []
        for event in spans:
            while stack and event["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
                stack.pop()
            if stack:
                event["parent"] = stack[-1]["index"]
                stack[-1]["self"] -= event["dur"]
                event["outermost"] = all(
                    ancestor["name"] != event["name"] for ancestor in stack
                )
            stack.append(event)
    return events


def self_time_table(events: List[dict]) -> List[Dict]:
    """Per span name: count, inclusive and self seconds (raw wall).
    Inclusive time counts outermost spans only, so recursion (a plan
    compiling its sub-plans) is not counted twice."""
    rows: Dict[str, Dict] = {}
    for event in events:
        row = rows.setdefault(
            event["name"],
            {"name": event["name"], "count": 0, "total_s": 0.0, "self_s": 0.0},
        )
        row["count"] += 1
        row["total_s"] += event["dur"] / 1e6 * event["outermost"]
        row["self_s"] += event["self"] / 1e6
    return sorted(rows.values(), key=lambda row: -row["self_s"])


def first_op_closure(events: List[dict], by_index: Dict[int, dict]) -> float:
    """For the first ``op`` span: the self times of its subtree summed,
    over its wall.  1.0 means the table accounts for the whole op."""
    root = next((e for e in events if e["name"] == "op"), None)
    if root is None:
        return 0.0

    def under_root(event: dict) -> bool:
        while event is not None and event is not root:
            event = by_index.get(event["parent"])
        return event is root

    return sum(e["self"] for e in events if under_root(e)) / root["dur"]


def layers(workload, recorder, setup_count: int, passes: List[Dict]) -> Dict:
    """The traced block's per-layer report, in raw seconds (also writes
    the trace)."""
    events = nest(recorder.to_events())
    setup_events = events[:setup_count]  # spans are recorded as they close
    run_events = events[setup_count:]
    metrics: Dict[str, float] = {}

    def seconds(spans: List[dict], name: str, per: int) -> float:
        total = sum(e["dur"] for e in spans if e["name"] == name and e["outermost"])
        return total / 1e6 / per

    for name, metric in CALL_METRICS.items():
        metrics[metric] = seconds(run_events, name, len(passes))
    for name, metric in SETUP_CALL_METRICS.items():
        metrics[metric] = seconds(setup_events, name, 1)
    for name in PROGRAM_SPANS:
        metrics[f"span.{name}_s"] = seconds(run_events, name, len(passes))

    # Counts are those of the first pass: passes are identical by
    # construction, so they repeat exactly from run to run.
    first = passes[0]
    metrics.update(first["counts"])
    for field in SUMMARY_COUNTERS:
        metrics[f"sim.{field}"] = sum(
            (v.summary or {}).get(field, 0) for v in first["verdicts"]
        )
    metrics["client.pass_wall_s"] = statistics.mean(p["raw_wall_s"] for p in passes)
    metrics["client.pass_ops"] = first["ops"]
    if metrics["sim.events"]:
        metrics["sim.host_us_per_event"] = (
            metrics["sim.engine_run_s"] * 1e6 / metrics["sim.events"]
        )
    if metrics.get("ir.parsed_ops") and metrics["ir.parse_s"]:
        metrics["ir.parse_ops_per_s"] = metrics["ir.parsed_ops"] / metrics["ir.parse_s"]
    for key, metric in WIRE_TIMINGS.items():
        samples = [
            v.timings[key] * 1e3
            for p in passes
            for v in p["verdicts"]
            if key in v.timings
        ]
        if samples:
            metrics[metric] = statistics.median(samples)

    report = {
        "metrics": metrics,
        "self_time": self_time_table(run_events),
        "first_op_closure": first_op_closure(
            run_events, {e["index"]: e for e in run_events}
        ),
        "spans": len(events),
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}.json"
    for event in events:
        # Chrome's viewer shows args on click: parent and self time there.
        event.setdefault("args", {}).update(
            span=event.pop("index"),
            parent=event.pop("parent"),
            self_us=event.pop("self"),
        )
        del event["outermost"]
    merge_host_trace(events, [], path=str(trace_path), indent=None)
    report["trace"] = str(trace_path.relative_to(OUT_DIR.parents[2]))
    return report
