"""Crash recovery end to end: the write-ahead admission log replayed
across restarts, the supervised server, and the acceptance choreography
— ``kill -9`` a server holding queued jobs, an in-flight job, and a
half-finished sweep, restart it from the same ``--state-dir``, and
every issued job id must resolve **bit-identical** to an uncrashed
reference run (modulo host-measurement fields), with zero engine work
for anything that reached the store before the crash."""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.analysis.export import record_line
from repro.service import (
    JobRequest,
    JobScheduler,
    ResultStore,
    ServiceClient,
    ServiceError,
    Supervisor,
)
from repro.service.scheduler import request_store_key
from repro.service.server import make_server
from repro.service.wal import AdmissionWAL, load_wal
from tests.differential import HOST_FIELDS
from tests.faults import Fault, FaultPlan, chaos_plans, injected


def canonical(record):
    """A record's bit-comparison form: canonical JSON line with host
    fields zeroed — top level and inside each sweep point."""
    record = json.loads(record_line(record))

    def zero(rec):
        summary = rec.get("summary") or {}
        for field in HOST_FIELDS:
            if field in summary:
                summary[field] = 0

    zero(record)
    for point in record.get("points") or []:
        zero(point)
    return record_line(record)


@contextmanager
def durable_service(state_dir, **kwargs):
    """An in-thread server in durable (``state_dir``) mode."""
    server = make_server(
        host="127.0.0.1", port=0, state_dir=str(state_dir), **kwargs
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


class TestInProcessRecovery:
    """The WAL replay path, driven without processes: deterministic,
    fast, and it pins the exact replay semantics."""

    def _stack(self, state):
        wal = AdmissionWAL(state / "admission.wal")
        scheduler = JobScheduler(store=ResultStore(state / "store"), wal=wal)
        return scheduler

    def test_requeued_jobs_keep_ids_and_results(self, tmp_path):
        state = tmp_path / "state"
        crashed = self._stack(state)
        crashed.recover()
        a = crashed.submit(JobRequest.make("fir", seed=1))
        b = crashed.submit(JobRequest.make("fir", seed=2))
        assert [a.id, b.id] == ["job-000001", "job-000002"]
        # kill -9 stand-in: the admitted jobs never ran; all in-memory
        # state is simply abandoned and a fresh stack reopens the dir.
        recovered = self._stack(state)
        summary = recovered.recover()
        assert summary["requeued"] == 2
        replay_a = recovered.job("job-000001")
        replay_b = recovered.job("job-000002")
        assert replay_a.state == "queued" and replay_b.state == "queued"
        # The admission's log correlation id comes back with the job.
        assert [replay_a.request_id, replay_b.request_id] == [
            a.request_id, b.request_id
        ]
        recovered.run_pending()
        assert replay_a.done and replay_b.done
        # Bit-identical to an uncrashed run of the same requests.
        clean = JobScheduler(store=None)
        clean_a = clean.submit(JobRequest.make("fir", seed=1))
        clean_b = clean.submit(JobRequest.make("fir", seed=2))
        clean.run_pending()
        assert canonical(replay_a.record) == canonical(clean_a.record)
        assert canonical(replay_b.record) == canonical(clean_b.record)
        # Fresh ids continue past the recovered counter — no collisions.
        c = recovered.submit(JobRequest.make("fir", seed=3))
        assert c.id == "job-000003"

    def test_store_hit_replay_does_zero_engine_work(self, tmp_path):
        state = tmp_path / "state"
        request = JobRequest.make("fir")
        key = request_store_key(request)
        # The record reached the store, but the crash beat the terminal
        # append: the WAL holds only the admission.
        reference = JobScheduler(store=ResultStore(state / "store"))
        ref_job = reference.submit(request)
        reference.run_pending()
        with AdmissionWAL(state / "admission.wal") as wal:
            wal.append_admitted("job-000001", key=key, request=request.to_dict())
        recovered = self._stack(state)
        summary = recovered.recover()
        assert summary["store_hits"] == 1 and summary["requeued"] == 0
        job = recovered.job("job-000001")
        assert job.done and job.source == "store"
        assert job.record == ref_job.record
        assert recovered.stats.simulated == 0  # zero engine work
        assert recovered.stats.recovered_store_hits == 1
        # Recovery appended the make-up terminal record.
        terminal = load_wal(state / "admission.wal").terminal
        assert terminal["job-000001"]["status"] == "done"

    def test_lost_terminal_record_replays_as_a_store_hit(self, tmp_path):
        state = tmp_path / "state"
        first = self._stack(state)
        first.recover()
        plan = FaultPlan([Fault("wal.append", "io-error", match="terminal")])
        with injected(plan):
            job = first.submit(JobRequest.make("fir"))
            first.run_pending()
        assert job.done and job.error is None
        assert first.stats.wal_append_failures == 1
        # The WAL holds the admission alone; the record is in the store.
        second = self._stack(state)
        summary = second.recover()
        assert summary["store_hits"] == 1 and summary["requeued"] == 0
        replay = second.job(job.id)
        assert replay.done and replay.source == "store"
        assert replay.record == job.record
        assert second.stats.simulated == 0  # zero engine work

    def test_unvalidatable_request_fails_cleanly(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        with AdmissionWAL(state / "admission.wal") as wal:
            wal.append_admitted(
                "job-000007",
                key="stale",
                request={"scenario": "no-such-scenario-xyz"},
            )
        recovered = self._stack(state)
        summary = recovered.recover()
        assert summary["failed"] == 1
        job = recovered.job("job-000007")
        assert job.state == "error"
        assert "recovery failed" in job.error

    def test_terminal_ids_resolve_after_restart(self, tmp_path):
        state = tmp_path / "state"
        first = self._stack(state)
        first.recover()
        done = first.submit(JobRequest.make("fir"))
        first.run_pending()
        assert done.done
        second = self._stack(state)
        summary = second.recover()
        assert summary["terminal"] == 1 and summary["requeued"] == 0
        resolved = second.job(done.id)
        assert resolved is not None and resolved.done
        assert resolved.source == "store"
        assert resolved.record == done.record
        assert second.stats.resurrected == 1
        assert second.stats.simulated == 0


class TestDurableServiceHTTP:
    def test_wal_append_failure_is_a_503_not_an_admission(self, tmp_path):
        with durable_service(tmp_path / "state") as (client, server):
            raw = ServiceClient(client.base_url, timeout=30.0, retries=1)
            plan = FaultPlan(
                [Fault(site="wal.append", action="io-error", count=1)]
            )
            with injected(plan):
                with pytest.raises(ServiceError) as info:
                    raw.submit("fir")
            assert info.value.status == 503
            assert "admission log" in str(info.value)
            # Nothing was admitted: no job, no id, no queue entry.
            stats = client.stats()
            assert stats["wal_append_failures"] == 1
            assert stats["jobs"] == 0 and stats["queued"] == 0
            # The default client's retry loop rides the blip out.
            job = client.run("fir", wait=120.0)
            assert job["state"] == "done"

    def test_restart_resolves_completed_ids(self, tmp_path):
        state = tmp_path / "state"
        with durable_service(state) as (client, _):
            job = client.run("fir", wait=120.0)
        with durable_service(state) as (client, server):
            assert server.recovery["terminal"] == 1
            again = client.job(job["id"])
            assert again["state"] == "done"
            assert canonical(again["record"]) == canonical(job["record"])
            assert client.stats()["simulated"] == 0


def _spawn_server(args, plan_path=None):
    """A real ``equeue-serve`` subprocess — started through the fault
    plane's launcher when ``plan_path`` names a plan to install; returns
    (proc, base_url, lines) with ``lines`` growing in the background."""
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
    )
    if plan_path is None:
        command = ["-m", "repro.service.server", *args]
    else:
        command = ["-m", "tests.faults", str(plan_path), "--", *args]
    proc = subprocess.Popen(
        [sys.executable, *command],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    lines = []
    url = None
    for line in proc.stdout:
        lines.append(line)
        if "listening on " in line:
            url = line.split("listening on ", 1)[1].split()[0]
            break
    if url is None:
        proc.wait(timeout=10)
        raise AssertionError(
            "server never announced its port:\n" + "".join(lines)
        )

    def drain():
        for line in proc.stdout:
            lines.append(line)

    threading.Thread(target=drain, daemon=True).start()
    return proc, url, lines


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=30)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


#: The acceptance workload, in submission order (ids are deterministic:
#: job-000001..job-000004).  The sweep samples 6 gemm points; the kill
#: plan fires on the 5th point delivery, so 4 points are checkpointed.
SWEEP_SAMPLE = 6
KILLED_POINT = 4  # 0-based delivery index the kill lands on


def _submit_workload(client, wait_all: bool):
    """Submit the acceptance workload; returns the four job ids."""
    done = client.run("mesh:rows=2,cols=2", wait=300.0)
    sweep = client.submit_sweep("gemm:k=32", sample=SWEEP_SAMPLE)
    # Wait until the sweep is genuinely executing (points_total set),
    # so the singles below are *queued behind it* when the kill lands.
    deadline = time.monotonic() + 120
    while True:
        progress = client.job(sweep["id"]).get("progress") or {}
        if progress.get("points_total") is not None:
            break
        if time.monotonic() > deadline:  # pragma: no cover - hang guard
            raise AssertionError("sweep never started executing")
        time.sleep(0.02)
    queued_a = client.submit("fir", seed=1)
    queued_b = client.submit("fir", seed=2)
    ids = [done["id"], sweep["id"], queued_a["id"], queued_b["id"]]
    assert ids == [f"job-{n:06d}" for n in range(1, 5)]
    if wait_all:
        for job_id in ids[1:]:
            client.result(job_id, wait=300.0)
    return ids


class TestKillNineRecovery:
    """The acceptance test: SIGKILL mid-sweep with queued + in-flight
    work, restart from the same state dir, compare against an uncrashed
    reference run."""

    def test_every_id_resolves_bit_identical_after_kill_9(self, tmp_path):
        # -- the uncrashed reference -----------------------------------
        ref_state = tmp_path / "reference"
        proc, url, _ = _spawn_server(
            ["--port", "0", "--state-dir", str(ref_state)]
        )
        try:
            client = ServiceClient(url, timeout=120.0)
            ids = _submit_workload(client, wait_all=True)
            reference = {
                job_id: client.result(job_id, wait=300.0) for job_id in ids
            }
        finally:
            _stop(proc)

        # -- the crashed run -------------------------------------------
        state = tmp_path / "state"
        # Two faults on the sweep-point seam, checked in order: the
        # kill arms on the Nth matching delivery; until then the slow
        # fault stalls every delivery, holding the crash window open so
        # the singles below are deterministically still queued when the
        # SIGKILL lands (simulation points run in milliseconds).
        plan = FaultPlan(
            [
                Fault(
                    site="server.crash",
                    action="kill",
                    match="sweep-point:job-000002",
                    after=KILLED_POINT,
                    count=1,
                ),
                Fault(
                    site="server.crash",
                    action="slow",
                    match="sweep-point:",
                    delay_s=0.4,
                    count=-1,
                ),
            ],
            seed=1,
            name="kill-mid-sweep",
        )
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan.to_json(), encoding="utf-8")
        proc, url, _ = _spawn_server(
            ["--port", "0", "--state-dir", str(state)],
            plan_path=plan_path,
        )
        try:
            client = ServiceClient(url, timeout=120.0)
            ids = _submit_workload(client, wait_all=False)
            # The injected kill -9: the server dies mid-sweep with the
            # two singles still queued.
            assert proc.wait(timeout=300) == -signal.SIGKILL
        finally:
            _stop(proc)
        # What the crash left on disk: one terminal job, three
        # admissions without outcomes.
        recovery = load_wal(state / "admission.wal")
        assert set(recovery.terminal) == {ids[0]}
        assert set(recovery.pending) == set(ids[1:])

        # -- restart from the same state dir (no fault plan) -----------
        proc, url, _ = _spawn_server(
            ["--port", "0", "--state-dir", str(state)]
        )
        try:
            client = ServiceClient(url, timeout=120.0)
            # Every issued id resolves — original ids, no resubmission —
            # bit-identical to the uncrashed reference.
            for job_id in ids:
                record = client.result(job_id, wait=300.0)
                assert canonical(record) == canonical(reference[job_id])
            stats = client.stats()
            assert stats["recovered_requeued"] == 3
            # The points checkpointed before the kill replay from the
            # store: zero engine work for them.
            assert stats["sweep_points_resumed"] == KILLED_POINT
            assert (
                stats["sweep_points_simulated"]
                == SWEEP_SAMPLE - KILLED_POINT
            )
        finally:
            _stop(proc)


class TestSupervisorPolicy:
    """The restart policy as pure bookkeeping — no processes."""

    def test_clean_exit_never_restarts(self):
        supervisor = Supervisor(["true"], log=lambda _: None)
        assert not supervisor.should_restart(0)

    def test_long_uptime_resets_the_crash_loop(self):
        supervisor = Supervisor(
            ["true"], max_restarts=2, min_uptime_s=5.0, log=lambda _: None
        )
        supervisor.note_exit(-9, uptime_s=0.1)
        assert supervisor.short_lived == 1
        supervisor.note_exit(-9, uptime_s=60.0)
        assert supervisor.short_lived == 0
        assert supervisor.should_restart(-9)

    def test_consecutive_fast_deaths_exhaust_the_budget(self):
        supervisor = Supervisor(
            ["true"], max_restarts=2, min_uptime_s=5.0, log=lambda _: None
        )
        supervisor.note_exit(-9, uptime_s=0.1)
        assert supervisor.should_restart(-9)
        supervisor.note_exit(-9, uptime_s=0.1)
        assert not supervisor.should_restart(-9)

    def test_backoff_doubles_per_fast_death_and_caps(self):
        supervisor = Supervisor(
            ["true"], backoff_s=0.2, backoff_max_s=1.0, log=lambda _: None
        )
        assert supervisor.next_backoff() == 0.0
        supervisor.short_lived = 1
        assert supervisor.next_backoff() == pytest.approx(0.2)
        supervisor.short_lived = 2
        assert supervisor.next_backoff() == pytest.approx(0.4)
        supervisor.short_lived = 5
        assert supervisor.next_backoff() == 1.0  # capped

    def test_crash_loop_run_gives_up_nonzero(self):
        supervisor = Supervisor(
            [sys.executable, "-c", "raise SystemExit(3)"],
            max_restarts=2,
            backoff_s=0.01,
            backoff_max_s=0.02,
            min_uptime_s=30.0,
            log=lambda _: None,
        )
        assert supervisor.run() == 1
        assert supervisor.restarts == 1

    def test_clean_child_run_returns_zero(self):
        supervisor = Supervisor(
            [sys.executable, "-c", "pass"], log=lambda _: None
        )
        assert supervisor.run() == 0


@settings(max_examples=64, deadline=None)
@given(plan=chaos_plans(poison_contexts=["gemm:seed=0"], faults=8))
def test_generic_chaos_draw_never_kills_the_whole_server(plan):
    # server.crash is the kill-9 tests' site; the in-process chaos
    # plans must never draw it (it would SIGKILL the tests).
    assert all(f.site != "server.crash" for f in plan.faults)


class TestSupervisedServer:
    """``--supervise`` end to end: SIGKILL the child, watch it come
    back with the state recovered, then SIGTERM for a clean drain."""

    def test_kill_restart_and_graceful_stop(self, tmp_path):
        state = tmp_path / "state"
        port = _free_port()
        proc, url, lines = _spawn_server(
            [
                "--supervise",
                "--port", str(port),
                "--state-dir", str(state),
                "--restart-backoff", "0.1",
                "--min-uptime", "1",
            ]
        )
        try:
            # The satellite claim: ONE client object polls across the
            # whole crash window with no resubmission — its transport
            # retry loop absorbs the connection-refused blips.
            client = ServiceClient(
                url,
                timeout=60.0,
                retries=20,
                backoff_s=0.3,
                backoff_max_s=1.5,
            )
            job = client.run("fir", wait=300.0)
            assert job["state"] == "done"
            pid_before = client.healthz()["pid"]
            assert pid_before != proc.pid  # the child serves, not the parent
            os.kill(pid_before, signal.SIGKILL)
            again = client.job(job["id"])  # rides out the restart
            assert again["state"] == "done"
            assert canonical(again["record"]) == canonical(job["record"])
            health = client.wait_healthy(timeout=60.0)
            assert health["supervise_restarts"] == 1
            assert health["pid"] != pid_before
            # SIGTERM to the supervisor forwards to the child: graceful
            # drain, clean exit, supervision ends with code 0.
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            assert any("stopped cleanly" in line for line in lines)
        finally:
            _stop(proc)
