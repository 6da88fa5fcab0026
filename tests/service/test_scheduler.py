"""The job scheduler: request resolution, coalescing, batching, store
spill, and the service's core determinism guarantee — warm-store
responses are bit-identical to cold sweep results, with zero engine or
compile work on the warm path."""

from __future__ import annotations

import builtins
import hashlib
import io
import json
import os
import threading
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import repro.codeversion as codeversion
import repro.service.request as request_module
import repro.service.scheduler as scheduler_module
from repro.scenarios import (
    all_scenarios,
    clear_scenario_caches,
    scenario_cache_stats,
    scenario_grid,
    scenario_names,
)
from repro.scenarios.sweep import run_scenario_sweep
from repro.service import JobRequest, JobScheduler, ResultStore
from repro.service.scheduler import RequestError, SweepRequest
from repro.sim import ExecutionMode, resolve_execution_mode
from tests import faults
from tests.serving import wait_until


class TestJobRequest:
    def test_spec_and_config_dict_resolve_identically(self):
        by_spec = JobRequest.make("gemm:m=8,k=8")
        by_dict = JobRequest.make("gemm", config={"m": 8, "k": 8})
        assert by_spec == by_dict
        assert by_spec.key() == by_dict.key()

    def test_defaults_are_materialized(self):
        request = JobRequest.make("fir")
        config = dict(request.config)
        assert config["taps"] == 32  # full resolved config, not overrides
        explicit = JobRequest.make("fir", config={"taps": 32})
        assert explicit.key() == request.key()

    def test_distinct_requests_get_distinct_keys(self):
        base = JobRequest.make("fir")
        assert JobRequest.make("fir", seed=1).key() != base.key()
        assert JobRequest.make("fir", config={"taps": 16}).key() != base.key()
        assert (
            JobRequest.make("fir", options={"scheduler": "heap"}).key()
            != base.key()
        )
        assert JobRequest.make("fir", check=False).key() != base.key()

    def test_unknown_scenario_and_option_rejected(self):
        with pytest.raises(RequestError, match="valid scenarios"):
            JobRequest.make("nonesuch")
        with pytest.raises(RequestError, match="valid options"):
            JobRequest.make("fir", options={"trace": True})
        with pytest.raises(RequestError, match="no config key"):
            JobRequest.make("fir", config={"bogus": 1})

    def test_non_scalar_values_rejected(self):
        """JSON lists/objects must be refused at the boundary — they
        would otherwise freeze into unhashable, unsimulatable requests."""
        with pytest.raises(RequestError, match="must be a scalar"):
            JobRequest.make("fir", config={"taps": [1, 2]})
        with pytest.raises(RequestError, match="must be a scalar"):
            JobRequest.make("fir", options={"max_cycles": [100]})

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1.5), ("seed", True), ("seed", "7"), ("seed", -1),
         ("seed", None), ("check", "false"), ("check", None), ("check", 1)],
    )
    def test_bad_seed_or_check_rejected(self, field, value):
        """Neither is coerced: ``1.5`` and ``True`` are not seed 1, and
        ``"false"`` is not ``True``."""
        with pytest.raises(RequestError, match=f"{field} must be"):
            JobRequest.make("fir", **{field: value})

    def test_numpy_integer_seed_is_the_int_seed(self):
        request = JobRequest.make("fir", seed=np.int64(3))
        assert request == JobRequest.make("fir", seed=3)
        assert type(request.seed) is int

    def test_code_version_is_part_of_the_key(self, monkeypatch):
        before = JobRequest.make("fir").key()
        monkeypatch.setenv("EQUEUE_CODE_VERSION", "v-next")
        assert JobRequest.make("fir").key() != before


#: ``(job key, sha256 of the wire dict, sweep key)`` — 16 hex digits
#: each — for the cases of :func:`recorded_request_cases`, recorded at
#: the commit before ``JobRequest.make`` stopped calling
#: ``dataclasses.asdict`` three times per request, under
#: ``EQUEUE_CODE_VERSION=request-keys-recorded-at-pr13``.
RECORDED_REQUEST_KEYS = {
    "fir/bare": ("4aa2f7d28e3a1427", "ab5cf34eb4b7d7e9", "8e8af493c3892ebb"),
    "fir/spec": ("ce0cf6f97ecc0a0d", "0b6f9e9966728a80", "b5bccbc390141ec8"),
    "fir/defaults-spelled-out": ("4aa2f7d28e3a1427", "ab5cf34eb4b7d7e9", "8e8af493c3892ebb"),
    "fir/override": ("52b5cbc4c08107f3", "6ed91d8691945af9", "6fbc1c9996d170c0"),
    "fir/spec+config": ("69f0fcda11618efa", "d2aefa8b3477b55d", "94112d1a8e1ab611"),
    "gemm/bare": ("68db7ad4de7704ab", "253e32796abd93e6", "14b80339a96d817a"),
    "gemm/spec": ("1f354f265fda0045", "e852b8e1bf8e2c3e", "431e87b338c4b086"),
    "gemm/defaults-spelled-out": ("68db7ad4de7704ab", "253e32796abd93e6", "14b80339a96d817a"),
    "gemm/override": ("a19a8aa9c6956c64", "a2644f1fab6c99bc", "2a05d561906ece78"),
    "gemm/spec+config": ("548ab915a09707e6", "078bd6eb238eee45", "b152a0af1333dd42"),
    "mesh/bare": ("e772cdfbbb31dfe7", "2824b7e4abb2aa4d", "62c4938dfbc54fac"),
    "mesh/spec": ("1b2a1c6c2bebd04e", "738672b0c3457eb1", "3064104873923b57"),
    "mesh/defaults-spelled-out": ("e772cdfbbb31dfe7", "2824b7e4abb2aa4d", "62c4938dfbc54fac"),
    "mesh/override": ("2fce690e2dbb6d5d", "8e381dd9596a7465", "63e153a07a1480bb"),
    "mesh/spec+config": ("7ab1d48cd6ad32d2", "d249cca1505d23ff", "04f03ec7617dfabf"),
    "pipeline/bare": ("0dbf8f9295848f35", "c69f1c7c3de0a271", "f8d5eb01c95f3e7b"),
    "pipeline/spec": ("e940df5101dc52fc", "0e89bafc216cc627", "105365e71f6cd099"),
    "pipeline/defaults-spelled-out": ("0dbf8f9295848f35", "c69f1c7c3de0a271", "f8d5eb01c95f3e7b"),
    "pipeline/override": ("9d9b387690606b6d", "4f997dbf7ca55ba1", "a8f2c692cac671d0"),
    "pipeline/spec+config": ("bcb408864c7d31ef", "b83082f219978d73", "8c83b08bc750071b"),
    "systolic/bare": ("79c4846a86e95ae0", "14176aa9ab31a20d", "b567f0609e20e8b9"),
    "systolic/spec": ("cf10c05eef255541", "64b493fe4062d943", "dd2854450b0eed3f"),
    "systolic/defaults-spelled-out": ("79c4846a86e95ae0", "14176aa9ab31a20d", "b567f0609e20e8b9"),
    "systolic/override": ("a4b4ad4a94828180", "fc3eee7dd70e8a02", "7599373850faca31"),
    "systolic/spec+config": ("7ad87d9c5d075d53", "ee0eedc652329e56", "c630fd2ee99bde96"),
    "gemm/int-for-bool": ("f37fe692f30dcc59", "348514f3574a9457", "12b18d0a1a75e252"),
}


def recorded_request_cases():
    """Per registered scenario: the bare name, a spec override, every
    default spelled out (an override that adds nothing), a config
    override, and a config override that undoes the spec's."""
    for scenario in all_scenarios():
        name = scenario.name
        defaults = asdict(scenario.configure())
        axis, values = next(iter(scenario.default_grid().items()))
        other = next(v for v in values if v != defaults[axis])
        yield f"{name}/bare", dict(scenario=name)
        yield f"{name}/spec", dict(scenario=f"{name}:{axis}={other}")
        yield f"{name}/defaults-spelled-out", dict(
            scenario=name, config=defaults
        )
        yield f"{name}/override", dict(
            scenario=name, config={axis: other}, seed=3
        )
        yield f"{name}/spec+config", dict(
            scenario=f"{name}:{axis}={other}",
            config={axis: defaults[axis]},
            options={"scheduler": "wheel"},
        )
    yield "gemm/int-for-bool", dict(
        scenario="gemm", config={"double_buffer": 1}
    )


class TestRequestIdentityIsRecorded:
    """Store keys, wire dicts (what the WAL persists) and sweep keys of
    every registered scenario are what they were before the request
    model went on its ``asdict`` diet."""

    def test_every_registered_scenario_is_recorded(self):
        cases = dict(recorded_request_cases())
        assert set(cases) == set(RECORDED_REQUEST_KEYS)
        assert {case.split("/")[0] for case in cases} == set(scenario_names())

    @pytest.mark.parametrize("case", sorted(RECORDED_REQUEST_KEYS))
    def test_keys_and_wire_dict_unchanged(self, case, monkeypatch):
        monkeypatch.setenv(
            "EQUEUE_CODE_VERSION", "request-keys-recorded-at-pr13"
        )
        kwargs = dict(recorded_request_cases())[case]
        request = JobRequest.make(**kwargs)
        wire = json.dumps(request.to_dict(), sort_keys=True)
        sweep = SweepRequest.make(sample=2, **kwargs)
        assert (
            request.key()[:16],
            hashlib.sha256(wire.encode("utf-8")).hexdigest()[:16],
            sweep.key()[:16],
        ) == RECORDED_REQUEST_KEYS[case]

    def test_an_equal_value_of_another_type_is_still_an_override(self):
        # 1 == True and 16.0 == 16, but not on the wire or in the key.
        as_int = JobRequest.make("gemm", config={"double_buffer": 1})
        assert type(dict(as_int.config)["double_buffer"]) is int
        as_float = JobRequest.make("gemm", config={"k": 16.0})
        assert type(dict(as_float.config)["k"]) is float


class TestScheduling:
    def test_cold_then_store_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        scheduler = JobScheduler(store=store)
        request = JobRequest.make("fir")
        job = scheduler.submit(request)
        assert job.state == "queued" and not job.done
        assert scheduler.run_pending() == 1
        assert job.done and job.source == "simulated"
        record = job.result()
        assert record["cycles"] > 0
        assert record["checked"]["cycles"] == record["cycles"]
        # A fresh submit of the same request never queues: store hit.
        warm = scheduler.submit(request)
        assert warm.done and warm.source == "store"
        assert warm.record == record
        assert scheduler.stats.store_hits == 1
        assert scheduler.stats.simulated == 1

    def test_inflight_coalescing(self, tmp_path):
        scheduler = JobScheduler(store=ResultStore(tmp_path))
        request = JobRequest.make("mesh")
        first = scheduler.submit(request)
        second = scheduler.submit(request)
        assert second is first
        assert first.waiters == 2
        assert scheduler.stats.coalesced == 1
        scheduler.run_pending()
        assert first.done
        assert scheduler.stats.simulated == 1

    def test_batches_group_by_engine_options(self, tmp_path):
        scheduler = JobScheduler(store=ResultStore(tmp_path))
        scheduler.submit(JobRequest.make("fir"))
        scheduler.submit(JobRequest.make("fir", seed=1))
        scheduler.submit(JobRequest.make("fir", options={"scheduler": "heap"}))
        assert scheduler.run_pending() == 3
        assert scheduler.stats.batches == 2  # {} x2 and {"heap"} x1

    def test_failing_job_reports_error_not_crash(self, tmp_path):
        scheduler = JobScheduler(store=ResultStore(tmp_path))
        # max_cycles=1 truncates the FIR run mid-launch, which the
        # engine reports as an error — the job must carry it, not crash
        # the batch.
        bad = scheduler.submit(
            JobRequest.make("fir", options={"max_cycles": 1})
        )
        good = scheduler.submit(JobRequest.make("fir"))
        scheduler.run_pending()
        assert bad.state == "error"
        with pytest.raises(RuntimeError, match="failed"):
            bad.result()
        assert good.done and good.record["cycles"] > 0
        assert scheduler.stats.errors == 1
        # Errors are not persisted: nothing claims that key in the store.
        assert scheduler.store.get(bad.key) is None

    def test_truncated_uncheck_run_is_served(self, tmp_path):
        scheduler = JobScheduler(store=ResultStore(tmp_path))
        job = scheduler.submit(
            JobRequest.make("gemm", options={"max_cycles": 5}, check=False)
        )
        scheduler.run_pending()
        record = job.result()
        assert record["truncated"] is True
        assert record["checked"] is None

    def test_store_put_failure_never_wedges_the_job(self, tmp_path):
        """A failing spill (disk full, root removed) is counted; the job
        still completes from its in-memory record and waiters wake."""
        scheduler = JobScheduler(store=ResultStore(tmp_path))

        def broken_put(key, record):
            raise OSError("no space left on device")

        scheduler.store.put = broken_put
        job = scheduler.submit(JobRequest.make("fir"))
        scheduler.run_pending()
        assert job.done and job.source == "simulated"
        assert job.result()["cycles"] > 0
        assert scheduler.stats.store_put_failures == 1

    def test_completed_jobs_pruned_beyond_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scheduler_module, "MAX_JOBS", 2)
        scheduler = JobScheduler(store=ResultStore(tmp_path))
        jobs = []
        for seed in range(3):
            jobs.append(scheduler.submit(JobRequest.make("mesh", seed=seed)))
            scheduler.run_pending()
        assert scheduler.stats.jobs_pruned == 1
        assert jobs[0].id not in scheduler._jobs  # oldest done job dropped
        assert scheduler.job(jobs[2].id) is jobs[2]
        # A pruned id is not a 404: it resolves through its terminal
        # record to the stored result, bit-identical to the original.
        resurrected = scheduler.job(jobs[0].id)
        assert resurrected is not None and resurrected is not jobs[0]
        assert resurrected.done and resurrected.source == "store"
        assert resurrected.result() == jobs[0].result()
        assert scheduler.stats.resurrected == 1
        # The pruned job's record is still one store hit away.
        again = scheduler.submit(JobRequest.make("mesh", seed=0))
        assert again.done and again.source == "store"

    def test_prune_drops_exactly_the_oldest_done_jobs(
        self, tmp_path, monkeypatch
    ):
        """3 x MAX_JOBS admissions: the index holds MAX_JOBS, the pruned
        ids are the oldest *done* ones in issue order, a still-queued
        job older than all of them is stepped over, every pruned id
        still resolves through the terminal index, and an admission
        past the cap looks at a handful of jobs, not at all of them."""
        cap = 50
        monkeypatch.setattr(scheduler_module, "MAX_JOBS", cap)
        scheduler = JobScheduler(store=ResultStore(tmp_path))
        requests = [JobRequest.make("fir", seed=seed) for seed in range(3 * cap)]
        first = scheduler.submit(requests[0])
        scheduler.run_pending()
        queued = scheduler.submit(requests[1])
        looked_at = []
        is_done = scheduler_module.Job.done.fget
        later = []
        with monkeypatch.context() as counting:
            counting.setattr(
                scheduler_module.Job,
                "done",
                property(lambda job: looked_at.append(job) or is_done(job)),
            )
            for seed, request in enumerate(requests[2:], start=2):
                later.append(scheduler.submit(request))
                # Finished the way a drain finishes it: spilled, settled.
                scheduler._finish(later[-1], {"seed": seed})
        assert len(looked_at) < 10 * len(later)  # was > cap per admission
        issued = [first, queued, *later]
        assert len({job.id for job in issued}) == 3 * cap
        assert len(scheduler._jobs) == cap
        assert scheduler.stats.jobs_pruned == 2 * cap
        pruned = [job for job in issued if job.id not in scheduler._jobs]
        done = [job for job in issued if job.done]
        assert pruned == done[: 2 * cap]
        assert scheduler.job(queued.id) is queued and not queued.done
        for job in pruned:
            resurrected = scheduler.job(job.id)
            assert resurrected.done and resurrected.source == "store"
            assert resurrected.result() == job.result()

    def test_a_hit_is_held_by_the_store_alone(self, tmp_path):
        """A hit makes no job: no event, no lock, no index entry.  Its
        id resolves through the store it names while the record is
        stored — reporting the request the record names — and misses
        once the record is evicted.  A library caller's hit parses its
        record on first use, to the record the store holds."""
        store = ResultStore(tmp_path)
        scheduler = JobScheduler(store=store)
        cold = scheduler.submit(JobRequest.make("fir", seed=7))
        scheduler.run_pending()
        hit = scheduler.submit(JobRequest.make("fir", seed=7))
        again = scheduler.submit(JobRequest.make("fir", seed=7))
        assert hit.id == again.id == "hit-" + cold.key and hit is not again
        assert hit.request_id != again.request_id
        assert hit._done is None
        assert list(scheduler._jobs) == [cold.id]
        assert scheduler.stats_dict()["jobs"] == 1
        assert scheduler.stats.store_hits == 2
        assert hit.result() == store.get(cold.key) == cold.record
        resolved = scheduler.job(hit.id)
        assert resolved is not hit and resolved.source == "store"
        assert resolved.to_dict() == {**hit.to_dict(), "request_id": None}
        store._blob_path(cold.key).unlink()
        assert scheduler.job(hit.id) is None
        assert scheduler.job("hit-../not-a-key") is None

    def test_background_worker_drains(self, tmp_path):
        scheduler = JobScheduler(store=ResultStore(tmp_path))
        scheduler.start()
        try:
            job = scheduler.submit(JobRequest.make("fir"))
            assert job.wait(timeout=60)
            assert job.result()["cycles"] > 0
        finally:
            scheduler.stop()

    def test_stop_wakes_the_watchdog(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "WATCHDOG_POLL_S", 5.0)
        scheduler = JobScheduler(store=None)
        ticked = threading.Event()
        scheduler._watchdog_tick = lambda now: ticked.set()
        scheduler.start()
        assert ticked.wait(timeout=10)  # its 5 s wait comes next
        began = time.perf_counter()
        scheduler.stop()
        assert time.perf_counter() - began < 1.0

    def test_concurrent_submitters_share_one_record(self, tmp_path):
        scheduler = JobScheduler(store=ResultStore(tmp_path))
        request = JobRequest.make("gemm")
        records = []
        lock = threading.Lock()

        def submit():
            job = scheduler.submit(request)
            job.wait(timeout=60)
            with lock:
                records.append(job.result())

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for thread in threads:
            thread.start()
        scheduler.start()
        try:
            for thread in threads:
                thread.join(timeout=60)
        finally:
            scheduler.stop()
        assert len(records) == 4
        assert all(record == records[0] for record in records)
        # At most one simulation ran, no matter how submits interleaved
        # with the worker (coalesced or store-served, never recomputed).
        assert scheduler.stats.simulated == 1

    def test_a_submit_racing_completion_never_joins_the_answered_job(
        self, tmp_path, monkeypatch
    ):
        """A submit that lands the instant a job has woken its waiters —
        the caller already holding the answer — must not coalesce onto
        that finished job: it waits out the settle and hits the store."""
        scheduler = JobScheduler(store=ResultStore(tmp_path))
        request = JobRequest.make("fir")
        job = scheduler.submit(request)
        racers = []
        settle = scheduler_module.Job._settle

        def settle_then_race(self, outcome, source=None):
            won = settle(self, outcome, source)
            if not racers:
                racer = threading.Thread(
                    target=lambda: racers.append(scheduler.submit(request))
                )
                racers.append(racer)
                racer.start()
                racer.join(0.2)  # blocked until the settle is whole
            return won

        monkeypatch.setattr(scheduler_module.Job, "_settle", settle_then_race)
        scheduler.run_pending()
        racers[0].join(timeout=60)
        late = racers[1]
        assert late is not job and late.source == "store"
        assert job.waiters == 1 and late.record == job.record

    def test_a_submit_whose_read_missed_a_twin_that_settled_hits(
        self, tmp_path
    ):
        """The other side of that race: a submit's store read misses,
        then its twin is admitted, simulated, spilled and settled before
        the submit takes the lock again — it must find the record, not
        queue the key a second time."""
        scheduler = JobScheduler(store=ResultStore(tmp_path))
        request = JobRequest.make("fir", seed=3)
        read = scheduler.store.read
        missed, twin_done = threading.Event(), threading.Event()

        def read_then_stall(key):
            found = read(key)
            if threading.current_thread().name == "late":
                missed.set()
                assert twin_done.wait(60)
            return found

        scheduler.store.read = read_then_stall
        late = []
        racer = threading.Thread(
            target=lambda: late.append(scheduler.submit(request)), name="late"
        )
        racer.start()
        assert missed.wait(60)
        twin = scheduler.submit(request)
        assert scheduler.run_pending() == 1 and twin.source == "simulated"
        twin_done.set()
        racer.join(timeout=60)
        assert not racer.is_alive() and late[0].source == "store"
        assert late[0].record == twin.record
        assert scheduler.run_pending() == 0
        assert scheduler.stats.simulated == 1


class TestRobustness:
    """Deadlines, crash containment, admission control, worker survival
    — the hardened tier, driven by the deterministic fault plane."""

    def test_poisoned_batch_fails_the_culprit_alone(
        self, tmp_path, monkeypatch
    ):
        """A crash is caught in the job that raised it: the culprit
        fails, and nothing — it or its batch-mates — runs twice."""
        evaluated = []
        evaluate = scheduler_module.evaluate_request

        def counting(payload):
            evaluated.append(payload[2])
            return evaluate(payload)

        monkeypatch.setattr(scheduler_module, "evaluate_request", counting)
        plan = faults.FaultPlan(
            [faults.Fault("job.evaluate", "poison", match="seed=2", count=-1)]
        )
        scheduler = JobScheduler(store=ResultStore(tmp_path))
        with faults.injected(plan):
            jobs = [
                scheduler.submit(JobRequest.make("gemm", seed=seed))
                for seed in range(4)
            ]
            scheduler.run_pending()
        assert [job.state for job in jobs] == ["done", "done", "error", "done"]
        assert "crashed" in jobs[2].error
        assert sorted(evaluated) == [0, 1, 2, 3]
        # Batch-mates completed with real records, spilled to the store.
        for job in (jobs[0], jobs[1], jobs[3]):
            assert job.result()["cycles"] > 0
            assert scheduler.store.get(job.key) == job.record
        # The poisoned key claims nothing: a healthy retry simulates it.
        assert scheduler.store.get(jobs[2].key) is None

    def test_item_that_kills_pool_workers_completes_in_the_parent(
        self, tmp_path
    ):
        """A job that kills every pool worker it touches is the pool's
        to survive: the runner corners it and runs it in the parent,
        where it completes like any other.  A worker's death fails every
        chunk in flight with it, so a batch-mate may be cornered beside
        the culprit: at least one item is."""
        plan = faults.FaultPlan(
            [faults.Fault("batch.worker", "kill", match="gemm:seed=1",
                          count=-1)]
        )
        scheduler = JobScheduler(store=ResultStore(tmp_path), jobs=2)
        with faults.injected(plan):
            jobs = [
                scheduler.submit(JobRequest.make("gemm", seed=seed))
                for seed in range(4)
            ]
            scheduler.run_pending()
        assert [job.state for job in jobs] == ["done"] * 4
        resilience = scheduler.stats_dict()["resilience"]
        assert resilience["poison_isolated"] >= 1
        assert scheduler.stats.errors == 0
        assert scheduler.stats.simulated == 4
        for job in jobs:
            assert scheduler.store.get(job.key) == job.record

    def test_transient_pool_error_still_completes_every_job(self, tmp_path):
        plan = faults.FaultPlan([faults.Fault("batch.map", "pool-error")])
        scheduler = JobScheduler(store=ResultStore(tmp_path))
        with faults.injected(plan):
            jobs = [
                scheduler.submit(JobRequest.make("gemm", seed=seed))
                for seed in range(3)
            ]
            scheduler.run_pending()
        # The runner's machinery failed before any item ran: it runs
        # every item serially instead.
        assert [job.state for job in jobs] == ["done"] * 3
        assert scheduler.stats_dict()["resilience"]["serial_fallbacks"] == 1

    def test_deadline_fails_job_not_worker(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scheduler_module, "WATCHDOG_POLL_S", 0.02)
        plan = faults.FaultPlan(
            [faults.Fault("job.evaluate", "slow", delay_s=0.6)]
        )
        scheduler = JobScheduler(store=ResultStore(tmp_path), deadline_s=0.15)
        scheduler.start()
        try:
            with faults.injected(plan):
                slow = scheduler.submit(JobRequest.make("fir"))
                assert slow.wait(timeout=10)
            assert slow.state == "error"
            assert "deadline" in slow.error
            assert scheduler.stats.deadline_failures == 1
            # The worker survived and serves the next job normally.
            after = scheduler.submit(JobRequest.make("fir", seed=1))
            assert after.wait(timeout=30)
            assert after.result()["cycles"] > 0
            assert scheduler.worker_health()["worker_alive"]
        finally:
            scheduler.stop(timeout=10)

    def test_batch_pool_recovery_reaches_stats(self, tmp_path):
        """A pool worker killed under a batch is rebuilt around, and the
        rebuild is counted on ``/stats`` like a sweep's."""
        plan = faults.FaultPlan(
            [faults.Fault("batch.chunk", "kill")],
            state_dir=str(tmp_path / "tickets"),
        )
        scheduler = JobScheduler(store=ResultStore(tmp_path / "store"), jobs=2)
        with faults.injected(plan):
            jobs = [
                scheduler.submit(JobRequest.make("gemm", seed=seed))
                for seed in range(2)
            ]
            scheduler.run_pending()
        assert [job.state for job in jobs] == ["done", "done"]
        assert scheduler.stats_dict()["resilience"]["pool_rebuilds"] >= 1

    def test_wedged_worker_is_replaced(self, tmp_path, monkeypatch):
        """A worker still stuck ``STUCK_GRACE_S`` past a deadline is
        written off: the next job runs on a fresh thread, and the old
        thread's late record settles nothing (first writer wins)."""
        monkeypatch.setattr(scheduler_module, "WATCHDOG_POLL_S", 0.02)
        monkeypatch.setattr(scheduler_module, "STUCK_GRACE_S", 0.1)
        plan = faults.FaultPlan(
            [faults.Fault("job.evaluate", "slow", delay_s=1.0)]
        )
        scheduler = JobScheduler(store=ResultStore(tmp_path), deadline_s=0.15)
        ran_on = {}
        run = scheduler._run

        def recording(jobs):
            for job in jobs:
                ran_on[job.id] = threading.get_ident()
            return run(jobs)

        scheduler._run = recording
        scheduler.start()
        wedged = scheduler._worker
        try:
            with faults.injected(plan):
                slow = scheduler.submit(JobRequest.make("fir"))
                assert slow.wait(timeout=10)
                wait_until(lambda: scheduler.stats.worker_restarts)
            assert slow.state == "error"
            assert "deadline exceeded" in slow.error
            health = scheduler.worker_health()
            assert health["worker_restarts"] == 1
            assert "wedged" in health["last_error"]
            assert health["worker_alive"]
            after = scheduler.submit(JobRequest.make("fir", seed=1))
            assert after.wait(timeout=30)
            assert after.result()["cycles"] > 0
            assert ran_on[slow.id] == wedged.ident
            assert ran_on[after.id] != wedged.ident
            # The old thread wakes, spills its record and settles nothing.
            wait_until(lambda: scheduler.store.get(slow.key) is not None)
            assert scheduler.store.get(slow.key)["cycles"] > 0
            assert slow.state == "error" and "deadline exceeded" in slow.error
            assert scheduler.stats.deadline_failures == 1
            assert scheduler.stats.simulated == 1
        finally:
            scheduler.stop(timeout=10)
        wedged.join(timeout=10)
        assert not wedged.is_alive()

    def test_per_job_deadline_overrides_default(self, tmp_path):
        scheduler = JobScheduler(store=ResultStore(tmp_path), deadline_s=0.2)
        job = scheduler.submit(JobRequest.make("fir"), deadline_s=9.0)
        assert job.deadline_s == 9.0
        scheduler.run_pending()
        assert job.state == "done"

    def test_queue_full_rejects_cleanly(self, tmp_path):
        from repro.service.scheduler import QueueFullError

        scheduler = JobScheduler(store=ResultStore(tmp_path), max_queue=2)
        scheduler.submit(JobRequest.make("fir", seed=0))
        scheduler.submit(JobRequest.make("fir", seed=1))
        with pytest.raises(QueueFullError, match="queue full"):
            scheduler.submit(JobRequest.make("fir", seed=2))
        assert scheduler.stats.rejected_queue_full == 1
        # Free admissions are never refused: a coalesce joins its twin...
        twin = scheduler.submit(JobRequest.make("fir", seed=0))
        assert twin.waiters == 2
        # ...and after the queue drains, a store hit answers instantly.
        scheduler.run_pending()
        hit = scheduler.submit(JobRequest.make("fir", seed=1))
        assert hit.done and hit.source == "store"

    def test_draining_refuses_new_work_completes_old(self, tmp_path):
        from repro.service.scheduler import DrainingError

        scheduler = JobScheduler(store=ResultStore(tmp_path))
        admitted = scheduler.submit(JobRequest.make("fir"))
        scheduler.drain()
        with pytest.raises(DrainingError, match="draining"):
            scheduler.submit(JobRequest.make("fir", seed=1))
        assert scheduler.stats.rejected_draining == 1
        scheduler.run_pending()
        assert admitted.result()["cycles"] > 0
        # Read-only paths still answer while draining.
        hit = scheduler.submit(JobRequest.make("fir"))
        assert hit.done and hit.source == "store"

    def test_worker_death_restarts_in_place_and_surfaces(self, tmp_path):
        plan = faults.FaultPlan([faults.Fault("scheduler.worker", "die")])
        scheduler = JobScheduler(store=ResultStore(tmp_path))
        scheduler.start()
        try:
            with faults.injected(plan):
                job = scheduler.submit(JobRequest.make("fir"))
                assert job.wait(timeout=30)
            assert job.result()["cycles"] > 0
            health = scheduler.worker_health()
            assert health["worker_alive"]
            assert health["worker_restarts"] == 1
            assert "injected worker death" in health["last_error"]
            assert health["last_error_at"] is not None
        finally:
            scheduler.stop(timeout=10)

    def test_late_record_cannot_overwrite_deadline_failure(self, tmp_path):
        """First-writer-wins, under the scheduler's lock: the watchdog
        fails the job, the engine's eventual record must not resurrect
        it."""
        scheduler = JobScheduler(store=ResultStore(tmp_path))
        job = scheduler.submit(JobRequest.make("fir"))
        assert scheduler._settle(
            job, "deadline exceeded (simulated)", None, "deadline_failures"
        ) is True
        assert scheduler._settle(
            job, {"cycles": 1}, "simulated", "simulated"
        ) is False
        assert job.state == "error"
        assert job.record is None
        assert scheduler.stats.deadline_failures == 1
        assert scheduler.stats.simulated == 0


# ---------------------------------------------------------------------------
# The determinism + zero-work acceptance criteria
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", scenario_names())
def test_warm_store_equals_cold_sweep(name, tmp_path, monkeypatch):
    """For every registered scenario: the warm-store service response is
    bit-identical to the cold ``run_scenario_sweep(jobs=1)`` reference,
    and the warm path provably runs no simulation and builds no program."""
    clear_scenario_caches()
    [cold] = run_scenario_sweep(
        scenario_grid(name, axes={}), jobs=1, seed=0, check=True
    )

    store = ResultStore(tmp_path)
    warm_up = JobScheduler(store=store)
    request = JobRequest.make(name)
    first = warm_up.submit(request)
    warm_up.run_pending()
    record = first.result()

    # The service record matches the cold sweep reference exactly.
    assert record["cycles"] == cold.cycles
    assert record["summary"]["scheduler_events"] == cold.scheduler_events
    assert record["summary"]["launches_executed"] == cold.launches_executed
    assert record["checked"] == cold.checked
    assert record["truncated"] is False

    # Warm path: a fresh scheduler over the same store (a restarted
    # server, effectively), with the execution path booby-trapped — any
    # simulation or program build would fail the test.
    warm = JobScheduler(store=ResultStore(tmp_path))

    def boom(*args, **kwargs):
        raise AssertionError("warm path invoked the simulation engine")

    monkeypatch.setattr(scheduler_module, "evaluate_request", boom)
    monkeypatch.setattr("repro.sim.batch.simulate", boom)
    built_before = scenario_cache_stats().programs_built
    job = warm.submit(request)
    assert job.done and job.source == "store"
    assert job.record == record  # bit-identical stats
    assert job.record["summary"] == record["summary"]
    assert scenario_cache_stats().programs_built == built_before
    assert warm.stats.simulated == 0 and warm.stats.store_hits == 1


def test_code_version_bump_invalidates_store(tmp_path, monkeypatch):
    scheduler = JobScheduler(store=ResultStore(tmp_path))
    request = JobRequest.make("fir")
    job = scheduler.submit(request)
    scheduler.run_pending()
    assert job.done
    # Same request under a bumped code version: the old record is
    # unreachable (new key), so the job queues for fresh simulation.
    monkeypatch.setenv("EQUEUE_CODE_VERSION", "v-next")
    bumped = scheduler.submit(JobRequest.make("fir"))
    assert not bumped.done and bumped.state == "queued"
    assert bumped.key != job.key


def test_every_stats_write_holds_the_lock(tmp_path):
    """A counter written outside the scheduler's lock races whatever
    else writes it — an abandoned worker still draining beside its
    replacement does.  Every ``SchedulerStats`` write holds the lock:
    submits, a coalesce, a hit and a drain of two batches."""
    scheduler = JobScheduler(store=ResultStore(tmp_path))
    unlocked = []

    class Guarded(scheduler_module.SchedulerStats):
        def __setattr__(self, name, value):
            if not scheduler._lock._is_owned():
                unlocked.append(name)
            super().__setattr__(name, value)

    guarded = Guarded()
    unlocked.clear()  # the dataclass's own construction
    scheduler.stats = guarded
    cheap = JobRequest.make("fir", options={"max_cycles": 10_000})
    for request in (JobRequest.make("fir", seed=11), cheap, cheap):
        scheduler.submit(request)
    assert scheduler.run_pending() == 2
    assert scheduler.submit(cheap).source == "store"
    assert (guarded.batches, guarded.coalesced, guarded.store_hits) == (2, 1, 1)
    assert unlocked == []


def test_the_first_submit_reads_no_source(tmp_path, monkeypatch):
    """The code version is hashed when the scheduler is built, not
    inside the first submit: with no WAL to hash it at recovery, a
    first-seen request's submit still opens no file of the package's
    source."""
    monkeypatch.delenv("EQUEUE_CODE_VERSION", raising=False)
    monkeypatch.setattr(codeversion, "_CODE_VERSION", None)
    scheduler = JobScheduler(store=ResultStore(tmp_path))
    root = Path(codeversion.__file__).resolve().parent
    opened = []
    real_open = io.open

    def watched_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            path = Path(file).resolve()
            if path.suffix == ".py" and root in path.parents:
                opened.append(path)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", watched_open)
    monkeypatch.setattr(builtins, "open", watched_open)
    job = scheduler.submit(JobRequest.make("fir", seed=4321))
    assert job.state == "queued"
    assert opened == []


# ---------------------------------------------------------------------------
# Execution-mode store safety
# ---------------------------------------------------------------------------


class TestExecutionModeStoreSafety:
    """The resolved mode participates in the store key: plan and codegen
    records never cross, while default spellings coalesce onto one key."""

    def test_default_spellings_share_one_key(self):
        default = resolve_execution_mode(None)
        base = JobRequest.make("fir")
        assert JobRequest.make("fir", options={"mode": default.value}) == base
        assert JobRequest.make("fir", options={"mode": default}) == base
        assert base.options == ()  # canonical: default mode is omitted
        for mode in set(ExecutionMode) - {default}:
            spelled = JobRequest.make("fir", options={"mode": mode.value})
            assert dict(spelled.options) == {"mode": mode.value}

    def test_elided_mode_follows_the_resolver(self, monkeypatch):
        """The default that is left out of a key is whatever
        ``resolve_execution_mode(None)`` says — it is not spelled a
        second time in the service, so changing it cannot leave ``{}``
        and the spelled-out default on two keys."""
        resolve = scheduler_module.resolve_execution_mode
        for module in (request_module, scheduler_module):
            monkeypatch.setattr(
                module,
                "resolve_execution_mode",
                lambda mode: resolve("plan" if mode is None else mode),
            )
        # Spellings resolved under the real default resolve anew.
        monkeypatch.setattr(request_module, "_RESOLVED", {})
        assert JobRequest.make("fir", options={"mode": "plan"}).options == ()
        codegen = JobRequest.make("fir", options={"mode": "codegen"})
        assert dict(codegen.options) == {"mode": "codegen"}
        scheduler = JobScheduler(store=None)
        scheduler.submit(JobRequest.make("fir"))
        assert scheduler.stats.submitted_by_mode == {"plan": 1}

    def test_removed_alias_and_bad_values_rejected(self):
        with pytest.raises(RequestError, match="unknown engine option"):
            JobRequest.make("fir", options={"compile_plans": False})
        with pytest.raises(RequestError, match="valid modes"):
            JobRequest.make("fir", options={"mode": "turbo"})

    def test_each_mode_gets_its_own_key(self):
        keys = {
            mode: JobRequest.make("fir", options={"mode": mode}).key()
            for mode in ("interpret", "plan", "codegen")
        }
        assert len(set(keys.values())) == 3

    def test_warm_hits_never_cross_modes(
        self, tmp_path, monkeypatch, tier_up_at
    ):
        """A record persisted under mode=plan must never answer a
        mode=codegen request (or vice versa); true same-mode hits serve
        with provably zero engine work."""
        clear_scenario_caches()
        tier_up_at(0)  # fir is too small to generate code on its own
        plan_request = JobRequest.make("fir", options={"mode": "plan"})
        codegen_request = JobRequest.make("fir")

        cold = JobScheduler(store=ResultStore(tmp_path))
        plan_job = cold.submit(plan_request)
        cold.run_pending()
        plan_record = plan_job.result()
        assert plan_record["summary"]["execution_mode"] == "plan"
        assert plan_record["summary"]["blocks_codegenned"] == 0

        # A fresh scheduler over the warm store: the codegen request
        # must queue and simulate, not hit the plan record.
        cross = JobScheduler(store=ResultStore(tmp_path))
        codegen_job = cross.submit(codegen_request)
        assert not codegen_job.done
        cross.run_pending()
        assert codegen_job.source == "simulated"
        assert cross.stats.store_hits == 0
        codegen_record = codegen_job.result()
        assert codegen_record["summary"]["execution_mode"] == "codegen"
        assert codegen_record["summary"]["blocks_codegenned"] > 0
        # The modes are bit-identical where it counts.
        assert codegen_record["cycles"] == plan_record["cycles"]
        assert (
            codegen_record["summary"]["scheduler_events"]
            == plan_record["summary"]["scheduler_events"]
        )
        assert codegen_record["checked"] == plan_record["checked"]

        # True per-mode hits, booby-trapped: any simulation fails.
        warm = JobScheduler(store=ResultStore(tmp_path))

        def boom(*args, **kwargs):
            raise AssertionError("warm path invoked the simulation engine")

        monkeypatch.setattr(scheduler_module, "evaluate_request", boom)
        monkeypatch.setattr("repro.sim.batch.simulate", boom)
        for request, record in (
            (plan_request, plan_record),
            (codegen_request, codegen_record),
        ):
            job = warm.submit(request)
            assert job.done and job.source == "store"
            assert job.record == record
        # The explicit default spelling hits the same record.
        spelled = warm.submit(
            JobRequest.make("fir", options={"mode": "codegen"})
        )
        assert spelled.done and spelled.source == "store"
        assert spelled.record == codegen_record
        assert warm.stats.simulated == 0
        assert warm.stats.store_hits == 3

    def test_stats_report_submissions_by_mode(self, tmp_path):
        scheduler = JobScheduler(store=ResultStore(tmp_path))
        scheduler.submit(JobRequest.make("fir"))
        scheduler.submit(JobRequest.make("fir", options={"mode": "plan"}))
        scheduler.submit(
            JobRequest.make("fir", options={"mode": "interpret"}, seed=1)
        )
        scheduler.run_pending()
        by_mode = scheduler.stats_dict()["submitted_by_mode"]
        assert by_mode == {"plan": 1, "codegen": 1, "interpret": 1}
