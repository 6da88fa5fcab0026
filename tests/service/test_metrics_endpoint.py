"""The telemetry surface of ``equeue-serve``: ``GET /metrics``
(Prometheus text), the versioned ``/stats`` schema with its flattened
``metrics`` mirror, per-job request ids and timings, and the access log.
"""

from __future__ import annotations

import io
import json
from urllib.request import urlopen

import pytest

from repro.obs import logs as obs_logs
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import parse_metrics
from repro.service import ServiceClient
from repro.service.scheduler import STATS_SCHEMA
from tests.serving import live_server, url_of

#: Flattened /stats keys (and, dots-to-underscores, /metrics samples)
#: that form the stable scrape contract; removing any is a breaking
#: change to dashboards (see docs/observability.md).
GOLDEN_FLAT_KEYS = (
    "scheduler.submitted",
    "scheduler.simulated",
    "scheduler.store_hits",
    "scheduler.coalesced",
    "scheduler.errors",
    "scheduler.queued",
    "scheduler.inflight",
    "scheduler.worker.worker_restarts",
    "scheduler.resilience.pool_rebuilds",
    "scheduler.wal_append_failures",
    "store.hits",
    "store.misses",
    "store.puts",
    "store.entries",
    "store.evictions",
    "program_cache.program_hits",
    "program_cache.programs_built",
    "program_cache.programs_evicted",
    "gc.collections.gen0",
    "gc.collections.gen1",
    "gc.collections.gen2",
    "gc.pause_seconds.gen0",
    "gc.pause_seconds.gen1",
    "gc.pause_seconds.gen2",
    "gc.frozen_objects",
    "server.requests",
    "server.connections",
    "server.open_connections",
)


@pytest.fixture
def service(tmp_path):
    with live_server(store_path=str(tmp_path / "store")) as server:
        yield ServiceClient(url_of(server), timeout=60.0), url_of(server)


def scrape(base_url):
    with urlopen(base_url + "/metrics", timeout=30) as response:
        content_type = response.headers.get("Content-Type", "")
        body = response.read().decode("utf-8")
    return content_type, parse_metrics(body)


class TestStatsSchema:
    def test_versioned_schema_and_metrics_mirror(self, service):
        client, _ = service
        stats = client.stats()
        assert stats["schema"] == STATS_SCHEMA == "equeue-stats/v1"
        # Historical top-level keys stay (additive versioning only).
        for legacy in ("submitted", "store_hits", "simulated", "store"):
            assert legacy in stats
        flat = stats["metrics"]
        for key in GOLDEN_FLAT_KEYS:
            assert key in flat, f"missing golden /stats metric {key}"
        # The mirror re-derives from the same payload: spot-check.
        assert flat["scheduler.submitted"] == stats["submitted"]
        assert flat["store.hits"] == stats["store"]["hits"]
        assert flat["gc.frozen_objects"] == stats["gc"]["frozen_objects"]
        assert flat["server.connections"] == stats["server"]["connections"]

    def test_metrics_values_numeric_non_bool(self, service):
        client, _ = service
        for key, value in client.stats()["metrics"].items():
            assert isinstance(value, (int, float)), key
            assert not isinstance(value, bool), key


class TestMetricsEndpoint:
    def test_prometheus_content_type_and_parse(self, service):
        _, base_url = service
        content_type, samples = scrape(base_url)
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        for key in GOLDEN_FLAT_KEYS:
            prom = "equeue_" + key.replace(".", "_")
            assert prom in samples, f"missing /metrics sample {prom}"

    def test_warm_vs_cold_moves_hits_not_misses(self, service):
        client, base_url = service
        _, before = scrape(base_url)

        cold = client.run("gemm:m=4,k=8,n=4,tile_k=4", wait=120.0)
        assert cold["source"] == "simulated"
        _, after_cold = scrape(base_url)
        assert (
            after_cold["equeue_store_misses"]
            == before["equeue_store_misses"] + 1
        )
        assert after_cold["equeue_store_hits"] == before["equeue_store_hits"]
        assert (
            after_cold["equeue_engine_runs"]
            == before.get("equeue_engine_runs", 0) + 1
        )

        warm = client.run("gemm:m=4,k=8,n=4,tile_k=4", wait=120.0)
        assert warm["source"] == "store"
        _, after_warm = scrape(base_url)
        assert (
            after_warm["equeue_store_hits"]
            == after_cold["equeue_store_hits"] + 1
        )
        assert (
            after_warm["equeue_store_misses"]
            == after_cold["equeue_store_misses"]
        )
        # Warm requests never touch the engine.
        assert (
            after_warm["equeue_engine_runs"]
            == after_cold["equeue_engine_runs"]
        )

    def test_server_request_counters_move(self, service):
        client, base_url = service
        client.healthz()
        _, before = scrape(base_url)
        assert before["equeue_server_requests"] > 0
        assert before["equeue_server_request_seconds_count"] > 0
        client.healthz()
        client.healthz()
        _, after = scrape(base_url)
        # Connection reuse as a number: the client's two requests rode
        # its pooled socket; each scrape (urlopen) opened its own.
        assert (
            after["equeue_server_requests"] - before["equeue_server_requests"]
            == 3
        )
        assert (
            after["equeue_server_connections"]
            - before["equeue_server_connections"]
            == 1
        )


class TestRequestIds:
    def test_job_carries_request_id_and_timings(self, service):
        client, _ = service
        cold = client.run("mesh:rows=2,cols=2", wait=120.0)
        assert str(cold["request_id"]).startswith("req-")
        timings = cold["timings"]
        for key in ("queued_s", "execute_s", "total_s"):
            assert timings[key] >= 0
        assert timings["total_s"] >= timings["execute_s"]

        warm = client.run("mesh:rows=2,cols=2", wait=120.0)
        assert warm["source"] == "store"
        assert str(warm["request_id"]).startswith("req-")
        assert warm["request_id"] != cold["request_id"]
        # The stored record is shared between requests, so per-request
        # fields must live on the job wire dict, never in the record.
        assert "request_id" not in warm["record"]
        assert "timings" not in warm["record"]
        assert warm["record"] == cold["record"]

    def test_request_id_lands_in_wal(self, tmp_path):
        with live_server(state_dir=str(tmp_path / "state")) as server:
            client = ServiceClient(url_of(server), timeout=60.0)
            from repro.sim.linecodec import scan_lines

            job = client.run("mesh:rows=2,cols=2", wait=120.0)
            wal_path = tmp_path / "state" / "admission.wal"
            records, _, dropped = scan_lines(wal_path.read_bytes())
            assert dropped == 0
            admitted = [
                r
                for r in records
                if r.get("kind") == "admitted" and r.get("job") == job["id"]
            ]
            assert admitted, f"no admitted WAL record for {job['id']}"
            assert admitted[0]["request_id"] == job["request_id"]


class TestAccessLog:
    def test_every_response_logged_with_request_id(self, service):
        # Race-free by construction: the access-log line is written
        # before the response bytes leave (ServiceHandler._respond), so
        # it is in the stream by the time the client call returns.
        client, base_url = service
        stream = io.StringIO()
        obs_logs.configure_logging(
            level="info", json_mode=True, stream=stream
        )
        try:
            client.healthz()
            with pytest.raises(Exception):
                client.job("job-does-not-exist")
        finally:
            obs_logs.configure_logging()
        records = [
            json.loads(line)
            for line in stream.getvalue().splitlines()
            if line
        ]
        access = [r for r in records if r["event"] == "http.access"]
        assert len(access) >= 2
        statuses = {r["status"] for r in access}
        assert 200 in statuses
        assert 404 in statuses  # 4xx responses are logged too
        for record in access:
            assert record["logger"] == "service.access"
            assert record["method"] in ("GET", "POST")
            assert record["path"].startswith("/")
            assert record["duration_ms"] >= 0
            assert str(record["request_id"]).startswith("req-")

    def test_response_header_echoes_request_id(self, service):
        _, base_url = service
        with urlopen(base_url + "/healthz", timeout=30) as response:
            rid = response.headers.get("X-Request-Id", "")
        assert rid.startswith("req-")


class TestMetricsAlwaysOnForService:
    def test_make_server_enables_registry(self, service):
        # The service tier is the telemetry plane's home: booting a
        # server turns the process switch on.
        assert obs_metrics.metrics_enabled()
