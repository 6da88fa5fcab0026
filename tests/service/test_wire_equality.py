"""A spliced response is the response it replaced.

A store hit's ``POST /jobs`` answer is assembled from bytes — the job's
head serialised, the blob's verified canonical line spliced in as the
``record`` member — instead of ``json.dumps({"job": job.to_dict()})``.
On the wire the two must be one JSON value, for every way a job reaches
a client (store hit, coalesced waiter, ``GET /jobs/<id>``,
``GET /jobs/<id>/result``, an id resurrected after a restart), and the
spliced member must be the stored line byte for byte.  A hit is held
by the store alone, so ``GET /jobs/hit-<key>`` answers it from the
record: as the ``POST`` did, but for the request id, which is each
request's own.  And the read that hands the line out keeps every check:
a blob that fails one is quarantined and served as a miss, so a bad line
can never be spliced.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import JobRequest
from repro.service.scheduler import request_store_key
from repro.service.server import make_server

#: The harness's BASE_STRUCTURES (benchmarks/perf/workloads.py), small.
STRUCTURES = [
    ("gemm", {}),
    ("gemm", {"k": 32, "tile_k": 8}),
    ("mesh", {}),
    ("mesh", {"rows": 3, "cols": 3}),
    ("fir", {}),
    ("fir", {"samples": 32}),
    ("systolic", {}),
    ("pipeline", {}),
]


@contextmanager
def live_server(state_dir, start_worker=True):
    server = make_server(host="127.0.0.1", port=0, state_dir=str(state_dir))
    if start_worker:
        server.scheduler.start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.scheduler.stop()
        server.server_close()
        thread.join(timeout=30)
        server.scheduler.wal.close()


def exchange(server, method: str, path: str, payload=None):
    """One request on a fresh socket; ``(status, raw body bytes)``."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = f"{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
    if payload is not None:
        head += f"Content-Length: {len(body)}\r\n"
    with socket.create_connection(server.server_address[:2], 30) as sock:
        sock.settimeout(120)
        sock.sendall(head.encode("latin-1") + b"\r\n" + body)
        raw = b"".join(iter(lambda: sock.recv(65536), b""))
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


def held(scheduler, answer: dict) -> dict:
    """What the scheduler holds for an answered job, as a wire dict: the
    job itself for a counter id; for a hit id, a view of its record that
    carries no request id of its own."""
    job = scheduler.job(answer["id"]).to_dict()
    if answer["id"].startswith("hit-"):
        assert job["request_id"] is None
        job["request_id"] = answer["request_id"]
    return job


def blob_line(server, key: str) -> bytes:
    return server.scheduler.store._blob_path(key).read_bytes().split(b"\n")[0]


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    with live_server(tmp_path_factory.mktemp("state")) as server:
        yield server


@pytest.mark.parametrize("name, config", STRUCTURES, ids=str)
@settings(
    max_examples=3, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_every_way_a_job_reaches_a_client(service, name, config, seed):
    scheduler = service.scheduler
    submit = {"scenario": name, "config": config, "seed": seed, "wait": 120}

    status, cold = exchange(service, "POST", "/jobs", submit)
    cold = json.loads(cold)["job"]
    assert status == 200
    # (an earlier example may have drawn this seed: then cold is a hit too)
    assert cold == held(scheduler, cold)

    status, raw = exchange(service, "POST", "/jobs", submit)
    hit = json.loads(raw)
    job = scheduler.job(hit["job"]["id"])
    assert status == 200 and hit["job"]["source"] == "store"
    assert hit == {"job": held(scheduler, hit["job"])}
    assert hit["job"]["record"] == cold["record"]
    # ...and its record member is the blob's line, not a re-serialisation.
    assert raw.endswith(b', "record": ' + blob_line(service, job.key) + b"}}")

    for job_id in (cold["id"], job.id):
        status, polled = exchange(service, "GET", f"/jobs/{job_id}")
        assert status == 200
        assert json.loads(polled) == {"job": scheduler.job(job_id).to_dict()}
        status, result = exchange(service, "GET", f"/jobs/{job_id}/result")
        assert status == 200 and json.loads(result) == job.record


def test_a_coalesced_waiter_and_a_resurrected_id(tmp_path):
    submit = {"scenario": "fir", "seed": 21}
    with live_server(tmp_path, start_worker=False) as first:
        status, queued = exchange(first, "POST", "/jobs", submit)
        assert status == 202
        status, raw = exchange(first, "POST", "/jobs", submit)
        waiter = json.loads(raw)
        job = first.scheduler.job(waiter["job"]["id"])
        assert status == 202 and job.waiters == 2
        assert waiter == {"job": job.to_dict()} and "record" not in waiter["job"]
        assert first.scheduler.run_pending() == 1
        status, raw = exchange(first, "GET", f"/jobs/{job.id}")
        assert status == 200 and json.loads(raw) == {"job": job.to_dict()}
        record = job.record
    with live_server(tmp_path) as second:
        assert second.scheduler.job(job.id) is not None
        assert job.id not in second.scheduler._jobs  # held by the WAL alone
        status, raw = exchange(second, "GET", f"/jobs/{job.id}")
        resurrected = json.loads(raw)["job"]
        expected = second.scheduler.job(job.id).to_dict()
        for stamped in (resurrected, expected):
            stamped.pop("timings")  # each resurrection stamps its own
        assert status == 200 and resurrected == expected
        assert resurrected["record"] == record and resurrected["source"] == "store"
        status, raw = exchange(second, "GET", f"/jobs/{job.id}/result")
        assert status == 200 and json.loads(raw) == record
        assert second.scheduler.stats.resurrected >= 3


def framed(line: str) -> str:
    return f"{line}\nsha256:{hashlib.sha256(line.encode()).hexdigest()}\n"


@pytest.mark.parametrize(
    "damage",
    [
        lambda text: text[:-1],  # trailer cut short
        lambda text: text.replace("\nsha256:", "\nsha512:"),
        lambda text: text.replace('"cycles":', '"cycles" :', 1),  # digest
        lambda text: framed(text.split("\n")[0][:-1]),  # digest right, JSON not
        lambda text: framed("[" + text.split("\n")[0] + "]"),  # JSON, not an object
        lambda text: text + text,  # a second record after the trailer
    ],
    ids=["trailer", "trailer-kind", "digest", "json", "top-level-type", "trailing-bytes"],
)
def test_a_damaged_blob_is_never_spliced(tmp_path, damage):
    submit = {"scenario": "fir", "seed": 34, "wait": 120}
    with live_server(tmp_path) as server:
        status, raw = exchange(server, "POST", "/jobs", submit)
        good = json.loads(raw)["job"]
        assert status == 200 and good["source"] == "simulated"
        key = request_store_key(JobRequest.make("fir", seed=34))
        assert key == good["key"]
        path = server.scheduler.store._blob_path(key)
        path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")

        status, raw = exchange(server, "POST", "/jobs", submit)
        again = json.loads(raw)
        assert status == 200 and again["job"]["source"] == "simulated"
        assert again == {"job": server.scheduler.job(again["job"]["id"]).to_dict()}
        assert again["job"]["record"]["cycles"] == good["record"]["cycles"]
        stats = server.scheduler.store.stats
        assert (stats.quarantined, stats.hits) == (1, 0)
        assert [p.name for p in (tmp_path / "store" / "quarantine").iterdir()] == [path.name]
        # Re-simulated, re-published, and a hit again.
        status, raw = exchange(server, "POST", "/jobs", submit)
        assert json.loads(raw)["job"]["source"] == "store"
