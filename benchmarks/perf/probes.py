"""Layer probes: small fixed measurements a traced block adds after its
timed passes.  Each times calls into public functions and reports the
median, in raw seconds.

* the execution-mode matrix and the bare DES kernels, on
  ``engine_steady`` (they show where a default-mode change would land);
* direct-call timings of the store, the WAL and the scheduler's
  store-hit path plus the HTTP floor, on the service workloads;
* a second sweep pass over warm caches, on ``dse_sweep``.
"""

from __future__ import annotations

import hashlib
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List

from repro.service import AdmissionWAL, JobRequest, JobScheduler, ResultStore
from repro.service.scheduler import request_store_key
from repro.sim import EngineOptions, PlanCache, make_simulator, simulate
from workloads import OUT_DIR

#: Interleaved repeats of the mode matrix and the kernel mesh, and
#: direct calls per service probe (``--quick`` shrinks all three).
REPEATS = 5
DIRECT_CALLS = 200


def time_calls(calls: List[Callable[[], object]]) -> float:
    """Median seconds of the given calls, each timed alone."""
    samples = []
    for call in calls:
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# sim: execution-mode matrix and bare kernels
# ---------------------------------------------------------------------------


def mode_matrix(program, repeats: int) -> Dict[str, float]:
    """Cold and warm wall of each execution mode on one program, the
    variants interleaved so a noisy phase hits all of them alike."""
    variants = {
        "sim.interpret_s": (EngineOptions(mode="interpret"), None),
        "sim.plan_cold_s": (EngineOptions(mode="plan"), "cold"),
        "sim.plan_warm_s": (EngineOptions(mode="plan"), PlanCache()),
        "sim.codegen_cold_s": (EngineOptions(mode="codegen"), "cold"),
        "sim.codegen_warm_s": (EngineOptions(mode="codegen"), PlanCache()),
        "sim.heap_warm_s": (EngineOptions(scheduler="heap"), PlanCache()),
    }

    def run(options, cache):
        if cache == "cold":
            cache = PlanCache()
        return simulate(
            program.module, options, inputs=program.inputs, plan_cache=cache
        )

    reference = None
    for options, cache in variants.values():
        if isinstance(cache, PlanCache):
            run(options, cache)  # warm it
    samples: Dict[str, List[float]] = {name: [] for name in variants}
    for _ in range(repeats):
        for name, (options, cache) in variants.items():
            started = time.perf_counter()
            result = run(options, cache)
            samples[name].append(time.perf_counter() - started)
            observed = (result.cycles, result.summary.scheduler_events)
            if reference is None:
                reference = observed
            elif observed != reference:
                raise RuntimeError(f"{name} diverged: {observed} != {reference}")
    out = {name: statistics.median(values) for name, values in samples.items()}
    out["sim.plan_compile_s"] = out["sim.plan_cold_s"] - out["sim.plan_warm_s"]
    out["sim.codegen_compile_s"] = (
        out["sim.codegen_cold_s"] - out["sim.codegen_warm_s"]
    )
    # Runs after which a cold codegen start has caught up with a cold
    # plan start; -1 when warm codegen is not faster, so it never does.
    gain = out["sim.plan_warm_s"] - out["sim.codegen_warm_s"]
    extra = out["sim.codegen_cold_s"] - out["sim.plan_cold_s"]
    out["sim.codegen_breakeven_runs"] = 1.0 + extra / gain if gain > 0 else -1.0
    return out


def kernel_events_per_s(kind: str, repeats: int) -> float:
    """Events per second of a fixed synthetic process mesh on one
    scheduler backend: 64 tickers advancing by 1..5-cycle delays (wheel
    buckets) each waking a listener through an event (microtask ring)."""
    size, steps = 64, 400

    def once() -> float:
        sim = make_simulator(kind)
        mail = [sim.event() for _ in range(size)]

        def ticker(k: int):
            for step in range(steps):
                yield 1 + (k + step) % 5
                fired, mail[k] = mail[k], sim.event()
                fired.trigger(step)

        def listener(k: int):
            for _ in range(steps):
                yield mail[k]

        for k in range(size):
            sim.process(ticker(k))
            sim.process(listener(k))
        started = time.perf_counter()
        sim.run()
        return sim.processed_events / (time.perf_counter() - started)

    return statistics.median(once() for _ in range(repeats))


def engine_probes(workload) -> Dict[str, float]:
    repeats = workload.sizes.get("probe_repeats", REPEATS)
    out = mode_matrix(workload.programs["systolic-WS"], repeats)
    out["kernel.wheel_events_per_s"] = kernel_events_per_s("wheel", repeats)
    out["kernel.heap_events_per_s"] = kernel_events_per_s("heap", repeats)
    return out


# ---------------------------------------------------------------------------
# service: direct calls
# ---------------------------------------------------------------------------


def service_probes(workload) -> Dict[str, float]:
    calls = workload.sizes.get("probe_calls", DIRECT_CALLS)
    record = workload.client.run("gemm", seed=workload.seed)["record"]
    keys = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(calls)]
    out = {
        "client.rtt_healthz_ms": 1e3 * time_calls([workload.client.healthz] * calls)
    }
    with tempfile.TemporaryDirectory(prefix="probe-", dir=OUT_DIR) as tmp:
        store = ResultStore(Path(tmp) / "store")
        out["store.put_ms"] = 1e3 * time_calls(
            [lambda key=key: store.put(key, record) for key in keys]
        )
        out["store.get_ms"] = 1e3 * time_calls(
            [lambda key=key: store.get(key) for key in keys]
        )
        with AdmissionWAL(Path(tmp) / "probe.wal") as wal:
            request = JobRequest.make("gemm").to_dict()
            out["wal.append_ms"] = 1e3 * time_calls(
                [
                    lambda i=i, key=key: wal.append_admitted(f"p{i}", key, request)
                    for i, key in enumerate(keys)
                ]
            )
        # The scheduler's store-hit fast path, without HTTP: submit
        # requests whose records are already in the store.
        scheduler = JobScheduler(store=store)
        requests = [JobRequest.make("gemm", seed=i) for i in range(calls)]
        for item in requests:
            store.put(request_store_key(item), record)
        jobs = []
        out["scheduler.submit_hit_ms"] = 1e3 * time_calls(
            [lambda item=item: jobs.append(scheduler.submit(item)) for item in requests]
        )
        if any(job.source != "store" for job in jobs):
            raise RuntimeError("submit_hit probe missed the store")
    return out


# ---------------------------------------------------------------------------
# dse: the sweep layer's own overhead
# ---------------------------------------------------------------------------


def dse_probes(workload, first_pass: Dict) -> Dict[str, float]:
    """A second pass over un-cleared caches costs only the sweep layer's
    per-point bookkeeping; the first pass's counters give the rest."""
    workload.cold = False
    started = time.perf_counter()
    for segment in workload.segments(1):
        segment()
    warm = time.perf_counter() - started
    counts = first_pass["counts"]
    signatures = counts["batch.compile_cache_misses"]
    lookups = signatures + counts["batch.compile_cache_hits"]
    return {
        "dse.points": first_pass["ops"],
        "dse.signatures": signatures,
        "dse.s_per_signature": first_pass["raw_wall_s"] / signatures,
        "dse.result_reuse_share": 1.0 - lookups / first_pass["ops"],
        "dse.cold_pass_s": first_pass["raw_wall_s"],
        "dse.warm_pass_s": warm,
    }


PROBES = {
    "engine_steady": lambda workload, first_pass: engine_probes(workload),
    "dse_sweep": dse_probes,
    "service_warm": lambda workload, first_pass: service_probes(workload),
    "service_mixed": lambda workload, first_pass: service_probes(workload),
}
