"""``equeue-serve`` end to end: the HTTP JSON API over an ephemeral
port, driven exclusively through :class:`ServiceClient` (the wire format
is the thing under test), plus the subprocess smoke."""

from __future__ import annotations

import subprocess
import sys
import threading
from contextlib import contextmanager

import pytest

from repro.scenarios import scenario_names
from repro.service import ServiceClient, ServiceError
from repro.service.server import main, make_server


@pytest.fixture
def service(tmp_path):
    """A live server on an ephemeral port, with a persistent store."""
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


class TestAPI:
    def test_healthz_and_scenarios(self, service):
        client, _ = service
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["worker_alive"] and health["watchdog_alive"]
        assert health["worker_restarts"] == 0
        assert health["last_error"] is None
        assert health["draining"] is False
        listing = client.scenarios()
        assert sorted(entry["name"] for entry in listing) == list(
            scenario_names()
        )
        gemm = next(entry for entry in listing if entry["name"] == "gemm")
        assert gemm["defaults"]["tile_k"] == 4
        assert gemm["summary"]

    def test_submit_wait_then_store_hit(self, service):
        client, _ = service
        cold = client.run("mesh:rows=2,cols=2", wait=120.0)
        assert cold["state"] == "done"
        assert cold["source"] == "simulated"
        record = cold["record"]
        assert record["cycles"] > 0
        assert record["checked"]["cycles"] == record["cycles"]
        assert record["scenario"] == "mesh"
        assert record["config"]["rows"] == 2

        warm = client.run("mesh:rows=2,cols=2", wait=120.0)
        assert warm["source"] == "store"
        assert warm["record"] == record
        # Equivalent spelling via the config dict: same key, same blob.
        spelled = client.run(
            "mesh", config={"rows": 2, "cols": 2}, wait=120.0
        )
        assert spelled["source"] == "store"
        assert spelled["record"] == record

        stats = client.stats()
        assert stats["simulated"] == 1
        assert stats["store_hits"] == 2
        assert stats["store"]["entries"] == 1
        assert stats["code_version"]

    def test_submit_poll_and_result_endpoint(self, service):
        client, _ = service
        job = client.submit("fir", wait=None)
        assert job["state"] in ("queued", "running", "done")
        finished = client.job(job["id"], wait=120.0)
        assert finished["state"] == "done"
        record = client.result(job["id"])
        assert record["cycles"] == finished["record"]["cycles"]

    def test_error_responses(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="valid scenarios") as info:
            client.submit("nonesuch")
        assert info.value.status == 400
        with pytest.raises(ServiceError, match="valid options") as info:
            client.submit("fir", options={"trace": True})
        assert info.value.status == 400
        with pytest.raises(ServiceError, match="unknown job") as info:
            client.job("job-999999")
        assert info.value.status == 404
        with pytest.raises(ServiceError, match="no config key") as info:
            client.submit("fir", config={"bogus": 3})
        assert info.value.status == 400
        with pytest.raises(ServiceError, match="must be a scalar") as info:
            client.submit("fir", config={"taps": [1, 2]})
        assert info.value.status == 400

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1.5), ("seed", True), ("seed", "7"), ("seed", -1),
         ("check", "false"), ("check", None)],
    )
    def test_bad_seed_or_check_is_400(self, service, field, value):
        client, server = service
        # Raw wire payload: the JSON body as a client could send it.
        with pytest.raises(ServiceError, match=f"{field} must be") as info:
            client._call("POST", "/jobs", {"scenario": "fir", field: value})
        assert info.value.status == 400
        assert server.scheduler.stats.submitted == 0

    def test_oversized_body_rejected(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="too large") as info:
            client._call(
                "POST", "/jobs",
                {"scenario": "fir", "pad": "x" * (1 << 20)},
            )
        assert info.value.status == 400

    def test_bad_wait_rejected_without_orphan_job(self, service):
        client, server = service
        before = server.scheduler.stats.submitted
        # Raw wire payload: the typed client can't produce a bad wait.
        with pytest.raises(ServiceError, match="bad wait") as info:
            client._call("POST", "/jobs", {"scenario": "fir", "wait": "soon"})
        assert info.value.status == 400
        # The 400 must not leave a queued job nobody can poll.
        assert server.scheduler.stats.submitted == before

    def test_failed_job_surfaces_as_error(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="EngineError"):
            client.run("fir", options={"max_cycles": 1}, wait=120.0)

    def test_unchecked_truncated_run_round_trips(self, service):
        client, _ = service
        job = client.run(
            "gemm", options={"max_cycles": 7}, check=False, wait=120.0
        )
        assert job["record"]["truncated"] is True
        assert job["record"]["cycles"] == 7
        assert job["record"]["checked"] is None


@contextmanager
def overload_server(**kwargs):
    """A live server with admission-control knobs and the worker NOT
    started — queued jobs stay queued, so overload is deterministic."""
    server = make_server(host="127.0.0.1", port=0, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=30.0, retries=1)
    try:
        yield client, server
    finally:
        server.shutdown()
        server.scheduler.stop()
        server.server_close()
        thread.join(timeout=30)


class TestOverload:
    def test_queue_full_returns_clean_503(self):
        with overload_server(max_queue=1) as (client, _):
            first = client.submit("fir", wait=None)
            assert first["state"] == "queued"
            with pytest.raises(ServiceError, match="queue full") as info:
                client.submit("fir", seed=1, wait=None)
            assert info.value.status == 503
            assert info.value.retry_after == 1.0
            # The same request coalesces for free even at capacity.
            twin = client.submit("fir", wait=None)
            assert twin["id"] == first["id"] and twin["waiters"] == 2

    def test_draining_returns_503_and_healthz_says_so(self):
        with overload_server() as (client, server):
            server.scheduler.drain()
            with pytest.raises(ServiceError, match="draining") as info:
                client.submit("fir", wait=None)
            assert info.value.status == 503
            assert client.healthz()["status"] == "draining"

    def test_rate_limit_returns_429_with_retry_after(self):
        with overload_server(rate_limit=0.001, rate_burst=2) as (client, _):
            client.submit("fir", seed=0, wait=None)
            client.submit("fir", seed=1, wait=None)
            with pytest.raises(ServiceError, match="rate limit") as info:
                client.submit("fir", seed=2, wait=None)
            assert info.value.status == 429
            assert info.value.retry_after and info.value.retry_after > 0
            # GETs are not admission-controlled: polling stays free.
            assert client.healthz()["status"] in ("ok", "degraded")

    def test_bad_deadline_rejected_without_orphan_job(self):
        with overload_server() as (client, server):
            before = server.scheduler.stats.submitted
            with pytest.raises(ServiceError, match="bad deadline") as info:
                client._call(
                    "POST", "/jobs", {"scenario": "fir", "deadline": "soon"}
                )
            assert info.value.status == 400
            # A NaN or infinite budget is one the watchdog never enforces.
            for bad in (-1, "nan", "inf"):
                with pytest.raises(ServiceError, match="deadline must be") as info:
                    client._call(
                        "POST", "/jobs", {"scenario": "fir", "deadline": bad}
                    )
                assert info.value.status == 400
            assert server.scheduler.stats.submitted == before

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize(
        "flag", ["--deadline", "--rate-limit", "--restart-backoff", "--min-uptime"]
    )
    def test_float_flags_refuse_what_is_not_finite_and_at_least_0(
        self, flag, value, capsys
    ):
        # Had the value got through, --fsck without --state-dir would exit.
        with pytest.raises(SystemExit):
            main([flag, value, "--fsck"])
        err = capsys.readouterr().err
        assert f"argument {flag}: must be finite and >= 0" in err

    def test_deadline_accepted_and_attached(self):
        with overload_server() as (client, server):
            job = client.submit("fir", wait=None, deadline=5.0)
            assert server.scheduler.job(job["id"]).deadline_s == 5.0

    def test_result_504_surfaces_after_wait_budget(self):
        with overload_server() as (client, _):
            job = client.submit("fir", wait=None)  # never runs: no worker
            with pytest.raises(ServiceError, match="still") as info:
                client.result(job["id"], wait=0.3)
            assert info.value.status == 504


class TestClientRetry:
    """Transport-level client behavior, against a scripted _call_once."""

    def _scripted(self, outcomes):
        client = ServiceClient(
            "http://invalid.test", retries=4, backoff_s=0.001
        )
        calls = []

        def fake_call_once(method, path, payload, timeout):
            calls.append(path)
            outcome = outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        client._call_once = fake_call_once
        return client, calls

    def test_retries_on_503_then_succeeds(self):
        client, calls = self._scripted(
            [
                ServiceError("queue full", status=503, retry_after=0.001),
                ServiceError("down", status=None),  # transport error
                {"job": {"id": "job-1"}},
            ]
        )
        assert client._call("POST", "/jobs", {}) == {"job": {"id": "job-1"}}
        assert len(calls) == 3

    def test_non_retryable_status_raises_immediately(self):
        client, calls = self._scripted(
            [ServiceError("bad request", status=400)]
        )
        with pytest.raises(ServiceError, match="bad request"):
            client._call("POST", "/jobs", {})
        assert len(calls) == 1

    def test_retries_exhausted_raises_last_error(self):
        client, calls = self._scripted(
            [ServiceError("full", status=503) for _ in range(4)]
        )
        with pytest.raises(ServiceError, match="full") as info:
            client._call("POST", "/jobs", {})
        assert info.value.status == 503
        assert len(calls) == 4

    def test_result_resumes_through_504_expiries(self):
        """A 504 means *still working, poll again* — not an error, until
        the client's own wait budget is spent."""
        client, calls = self._scripted(
            [
                ServiceError("job job-1 still running", status=504),
                ServiceError("job job-1 still running", status=504),
                {"cycles": 42},
            ]
        )
        assert client.result("job-1", wait=30.0) == {"cycles": 42}
        assert len(calls) == 3

    def test_result_without_wait_raises_504_directly(self):
        client, _ = self._scripted(
            [ServiceError("job job-1 still queued", status=504)]
        )
        with pytest.raises(ServiceError) as info:
            client.result("job-1")
        assert info.value.status == 504


class TestSmoke:
    def test_subprocess_smoke(self):
        """The CI smoke end to end: real subprocess server, two requests,
        second one a store hit, both seen by ``/metrics``, clean
        shutdown (exit 0)."""
        completed = subprocess.run(
            [sys.executable, "-m", "repro.service.smoke"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "warm served from store" in completed.stdout
        assert "/metrics parsed" in completed.stdout
        assert "clean shutdown" in completed.stdout
