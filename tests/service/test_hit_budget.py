"""What a store hit costs, as counts.

A hit is one read, one digest and one write: over 50 warm
``client.run`` calls on one connection, no ``os.fsync`` and not a byte
of WAL (a hit's id, ``hit-<key>``, names its record, so it needs no
log to survive a restart), one blob open, one ``sendall`` per side,
two ``json.dumps`` (client request, job head) and two ``json.loads``
(request body, client response) per hit — process-wide, server and
client threads together — and no call into ``email.parser``.  The
blob's line is parsed once per process, not once per hit: its digest,
checked on every read, says it is the line that parsed.  The 50 hits
of one spelling resolve it once (one ``JobRequest`` made), and a hit
makes no job: the scheduler's by-id index does not grow.  Counts, not
milliseconds: deterministic on any host, and a regression names the
call that came back.
"""

from __future__ import annotations

import builtins
import email.feedparser
import email.parser
import json
import os
import socket
import threading
from collections import Counter

from repro.obs import logs as obs_logs
from repro.service import JobRequest, ServiceClient
from repro.service import request as request_module
from repro.service.server import make_server

SCENARIO = "gemm:m=4,k=8,n=4,tile_k=4"
HITS = 50


def counting(monkeypatch, counts: Counter, owner, name: str, label: str,
             when=lambda *args, **kwargs: True) -> None:
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        if when(*args, **kwargs):
            counts[label] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def appends(stats) -> int:
    """Records the WAL has appended, by ``/stats``."""
    return stats["wal"]["admitted_appends"] + stats["wal"]["terminal_appends"]


def test_fifty_hits_cost_fifty_of_each(tmp_path, monkeypatch):
    obs_logs.configure_logging(level="warning")  # the access log is not the hit
    server = make_server(
        host="127.0.0.1", port=0, state_dir=str(tmp_path / "state")
    )
    # The cold job runs here, on this thread: its terminal record is in
    # the WAL before the first byte of the measurement.
    cold = server.scheduler.submit(JobRequest.make(SCENARIO))
    assert server.scheduler.run_pending() == 1 and cold.source == "simulated"
    wal_path = server.scheduler.wal.path
    wal_before = wal_path.stat().st_size
    server.scheduler.start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    counts: Counter = Counter()
    connections = server.connections.value  # a process-wide counter
    try:
        with ServiceClient(f"http://{host}:{port}", timeout=60.0) as client:
            cycles = client.run(SCENARIO, wait=120.0)["record"]["cycles"]
            assert cycles == cold.record["cycles"]
            appends_before = appends(client.stats())
            jobs_before = len(server.scheduler._jobs)
            request_module._RESOLVED.clear()  # the hits resolve it anew

            counting(monkeypatch, counts, os, "fsync", "fsync")
            counting(monkeypatch, counts, json, "dumps", "dumps")
            counting(monkeypatch, counts, json, "loads", "loads")
            counting(monkeypatch, counts, socket.socket, "sendall", "sendall")
            counting(
                monkeypatch, counts, builtins, "open", "blob_open",
                when=lambda file, *a, **k: "/objects/" in str(file),
            )
            counting(monkeypatch, counts, email.parser.Parser, "parsestr", "email")
            counting(monkeypatch, counts, email.feedparser.FeedParser, "feed", "email")
            counting(monkeypatch, counts, JobRequest, "__init__", "requests")

            for _ in range(HITS):
                job = client.run(SCENARIO, wait=120.0)
                assert job["source"] == "store"
                assert job["record"]["cycles"] == cycles
                assert job["id"] == "hit-" + job["key"]
            monkeypatch.undo()

            assert len(client._idle) == 1
            assert len(server.scheduler._jobs) == jobs_before
            stats = client.stats()
            assert wal_path.stat().st_size == wal_before
    finally:
        obs_logs.configure_logging()
        server.shutdown()
        server.scheduler.stop()
        server.server_close()
        thread.join(timeout=30)
    assert dict(counts) == {
        "blob_open": HITS,
        "sendall": 2 * HITS,  # one per side
        "dumps": 2 * HITS,
        "loads": 2 * HITS,
        "requests": 1,
    }
    assert counts["fsync"] == 0
    assert appends(stats) == appends_before
    assert stats["store_hits"] == HITS + 1
    assert stats["server"]["connections"] - connections == 1
