"""What a store hit costs, as counts.

A hit is one read, one digest and one write: over 50 warm
``client.run`` calls on one connection, exactly one ``os.fsync`` (the
WAL's ``admitted`` record), one blob open, one ``sendall`` per side,
three ``json.dumps`` (client request, WAL line, job head) and three
``json.loads`` (request body, blob check, client response) per hit —
process-wide, server and client threads together — and no call into
``email.parser``.  Counts, not milliseconds: deterministic on any host,
and a regression names the call that came back.
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
from repro.service import ServiceClient
from repro.service import wal as wal_module
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


def test_fifty_hits_cost_fifty_of_each(tmp_path, monkeypatch):
    obs_logs.configure_logging(level="warning")  # the access log is not the hit
    server = make_server(
        host="127.0.0.1", port=0, state_dir=str(tmp_path / "state")
    )
    # The run stays under COMPACT_EVERY: no WAL compaction (an fsync, an
    # open and a dumps per kept record) lands inside the counted window.
    assert wal_module.COMPACT_EVERY > HITS + 1
    server.scheduler.start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    counts: Counter = Counter()
    connections = server.connections.value  # a process-wide counter
    try:
        with ServiceClient(f"http://{host}:{port}", timeout=60.0) as client:
            assert client.run(SCENARIO, wait=120.0)["source"] == "simulated"
            cycles = client.run(SCENARIO, wait=120.0)["record"]["cycles"]

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

            for _ in range(HITS):
                job = client.run(SCENARIO, wait=120.0)
                assert job["source"] == "store"
                assert job["record"]["cycles"] == cycles
            monkeypatch.undo()

            assert len(client._idle) == 1
            stats = client.stats()
    finally:
        obs_logs.configure_logging()
        server.shutdown()
        server.scheduler.stop()
        server.server_close()
        thread.join(timeout=30)
    assert dict(counts) == {
        "fsync": HITS,
        "blob_open": HITS,
        "sendall": 2 * HITS,  # one per side
        "dumps": 3 * HITS,
        "loads": 3 * HITS,
    }
    assert stats["store_hits"] == HITS + 1
    assert stats["wal"]["compactions"] == 0
    assert stats["server"]["connections"] - connections == 1
