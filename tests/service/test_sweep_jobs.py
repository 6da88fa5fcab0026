"""Service sweep jobs: checkpointed execution, progress, restart-resume."""

from __future__ import annotations

import threading

import pytest

from repro.service import (
    JobRequest,
    JobScheduler,
    ResultStore,
    ServiceClient,
    SweepJob,
    SweepRequest,
)
from repro.service.scheduler import RequestError, request_store_key
from repro.service.server import make_server
from tests.differential import HOST_FIELDS
from tests.faults import Fault, FaultPlan, injected


@pytest.fixture
def scheduler(tmp_path):
    return JobScheduler(store=ResultStore(str(tmp_path / "store")), jobs=1)


class TestSweepRequest:
    def test_make_resolves_spec(self):
        request = SweepRequest.make("gemm:k=32", sample=4)
        assert request.scenario == "gemm"
        assert dict(request.base)["k"] == 32
        assert request.sample == 4

    def test_point_requests_are_job_requests(self):
        request = SweepRequest.make("gemm")
        points = request.point_requests()
        assert len(points) == 12
        assert all(isinstance(point, JobRequest) for point in points)
        # Every point has a distinct content-addressed identity.
        assert len({point.key() for point in points}) == 12

    def test_sample_is_deterministic_subset(self):
        sampled = SweepRequest.make("gemm", sample=3).point_requests()
        again = SweepRequest.make("gemm", sample=3).point_requests()
        full = {p.key() for p in SweepRequest.make("gemm").point_requests()}
        assert sampled == again
        assert len(sampled) == 3
        assert {p.key() for p in sampled} <= full

    @pytest.mark.parametrize("sample", [0, -1, 1.5, True, "3"])
    def test_bad_sample_rejected(self, sample):
        with pytest.raises(RequestError):
            SweepRequest.make("gemm", sample=sample)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(RequestError):
            SweepRequest.make("nope")


class TestSchedulerSweeps:
    def test_sweep_completes_with_aggregate_record(self, scheduler):
        job = scheduler.submit(SweepRequest.make("gemm", sample=4))
        assert isinstance(job, SweepJob)
        scheduler.run_pending()
        record = job.result()
        assert record["kind"] == "scenario-sweep/v1"
        assert record["points_total"] == 4
        assert record["points_failed"] == 0
        assert len(record["points"]) == 4
        assert job.progress() == {
            "points_done": 4, "points_total": 4, "points_resumed": 0,
        }

    def test_resubmit_is_store_hit(self, scheduler):
        job = scheduler.submit(SweepRequest.make("gemm", sample=4))
        scheduler.run_pending()
        again = scheduler.submit(SweepRequest.make("gemm", sample=4))
        assert again.done and again.source == "store"
        assert again.record == job.record
        assert again.progress() == job.progress()
        # Held by the store alone, its id resolves with its progress.
        assert again.id not in scheduler._jobs
        assert scheduler.job(again.id).progress() == job.progress()

    def test_inflight_sweeps_coalesce(self, scheduler):
        first = scheduler.submit(SweepRequest.make("gemm", sample=4))
        second = scheduler.submit(SweepRequest.make("gemm", sample=4))
        assert first is second
        assert first.waiters == 2

    def test_points_checkpoint_as_single_job_hits(self, scheduler):
        request = SweepRequest.make("gemm", sample=4)
        scheduler.submit(request)
        scheduler.run_pending()
        # Each sweep point is now an individual store hit for plain jobs.
        point = request.point_requests()[0]
        job = scheduler.submit(point)
        assert job.done and job.source == "store"

    def test_failed_point_fails_sweep_but_checkpoints_rest(self, scheduler):
        plan = FaultPlan.from_dict({
            "name": "one-bad-point", "seed": 0,
            "faults": [{
                "site": "job.evaluate", "action": "engine-error",
                "after": 2, "count": 1,
            }],
        })
        request = SweepRequest.make("gemm", seed=3)
        with injected(plan):
            job = scheduler.submit(request)
            scheduler.run_pending()
        assert job.state == "error"
        assert "resubmit to resume" in job.error
        # The aggregate must NOT be stored (transient failure), but the
        # good points are checkpointed individually.
        assert scheduler.store.get(request_store_key(request)) is None
        assert scheduler.stats.sweep_point_failures == 1

        # Resubmit without faults: resumes from checkpoints.
        resumed = scheduler.submit(request)
        scheduler.run_pending()
        record = resumed.result()
        assert record["points_failed"] == 0
        assert resumed.points_resumed == 11
        assert scheduler.stats.sweep_points_resumed == 11
        # Only the failed point simulated on the resume pass.
        assert scheduler.stats.sweep_points_simulated == 12

    def test_a_lost_checkpoint_costs_only_its_store_entry(self, scheduler):
        request = SweepRequest.make("gemm", sample=4)
        lost = request_store_key(request.point_requests()[1])
        plan = FaultPlan([Fault("store.put", "io-error", match=lost)])
        with injected(plan):
            job = scheduler.submit(request)
            scheduler.run_pending()
        assert scheduler.stats.store_put_failures == 1
        assert scheduler.store.get(lost) is None
        clean = JobScheduler(store=None, jobs=1)
        reference = clean.submit(request)
        clean.run_pending()

        def measured(record):
            for point in record["points"]:
                for field in HOST_FIELDS:
                    point["summary"].pop(field, None)
            return record

        assert measured(job.result()) == measured(reference.result())

    def test_stats_carry_resilience_counters(self, scheduler):
        scheduler.submit(SweepRequest.make("gemm", sample=2))
        scheduler.run_pending()
        stats = scheduler.stats_dict()
        assert "resilience" in stats
        assert stats["sweeps_submitted"] == 1
        assert stats["sweep_points_simulated"] == 2


@pytest.fixture
def service(tmp_path):
    server = make_server(
        host="127.0.0.1", port=0, store_path=str(tmp_path / "store")
    )
    server.scheduler.start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=60.0)
    try:
        yield client, server
    finally:
        server.shutdown()
        server.scheduler.stop()
        server.server_close()
        thread.join(timeout=30)


class TestSweepAPI:
    def test_run_sweep_end_to_end(self, service):
        client, _ = service
        job = client.run_sweep("gemm", sample=4, wait=120.0)
        assert job["state"] == "done"
        assert job["progress"]["points_total"] == 4
        assert job["progress"]["points_done"] == 4
        record = job["record"]
        assert record["points_failed"] == 0
        assert len(record["points"]) == 4
        stats = client.stats()
        assert stats["sweeps_submitted"] == 1
        assert "resilience" in stats

    def test_resubmitted_sweep_is_store_hit(self, service):
        client, _ = service
        first = client.run_sweep("gemm", sample=3, wait=120.0)
        again = client.run_sweep("gemm", sample=3, wait=120.0)
        assert again["source"] == "store"
        assert again["record"] == first["record"]

    def test_bad_sweep_request_is_400(self, service):
        client, _ = service
        with pytest.raises(Exception) as info:
            client.submit_sweep("gemm", sample=0)
        assert "sample" in str(info.value)
