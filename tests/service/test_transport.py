"""The service's transport: one connection per client, one write per
response.

Server side: keep-alive is never slower than reconnecting (single
``sendall``, ``TCP_NODELAY``), request framing survives every response
path, idle and closed-server connections go away, and accepted
connections are counted.  Client side: ``ServiceClient`` pools its
sockets, rides out a stale one without spending the caller's retries,
is safe to share across threads, and maps statuses as it always did.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from contextlib import contextmanager
from http.client import HTTPConnection

import pytest

from repro.service import ServiceClient, ServiceError
from repro.service.server import ServiceHandler, make_server

SCENARIO = "gemm:m=4,k=8,n=4,tile_k=4"


@contextmanager
def live_server(port: int = 0, start_worker: bool = True, **kwargs):
    server = make_server(host="127.0.0.1", port=port, **kwargs)
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
        assert not thread.is_alive()


def url_of(server) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def wait_until(predicate, timeout: float = 10.0) -> bool:
    """Bounded poll (server-side bookkeeping trails the client by a
    thread switch)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)
    return True


def open_connections(server) -> int:
    return server.stats_dict()["open_connections"]


# -- the server's half -----------------------------------------------------


class TestKeepAliveIsNotSlower:
    @pytest.mark.parametrize("nodelay", [True, False])
    def test_fifty_store_hits_over_one_connection(
        self, tmp_path, monkeypatch, nodelay
    ):
        """Headers and body used to leave as two writes, and the second
        waited ~40 ms for the client's delayed ACK on any connection
        that was kept alive (44 ms per round trip at the parent).  The
        single write makes that true with or without TCP_NODELAY."""
        monkeypatch.setattr(ServiceHandler, "disable_nagle_algorithm", nodelay)
        with live_server(store_path=str(tmp_path / "store")) as server:
            with ServiceClient(url_of(server), timeout=60.0) as client:
                assert client.run(SCENARIO, wait=120.0)["source"] == "simulated"
            before = server.connections.value
            body = json.dumps({"scenario": SCENARIO}).encode("utf-8")
            conn = HTTPConnection(*server.server_address[:2], timeout=30)
            round_trips = []
            try:
                for _ in range(50):
                    began = time.perf_counter()
                    conn.request(
                        "POST", "/jobs", body,
                        {"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    payload = json.loads(response.read())
                    round_trips.append(time.perf_counter() - began)
                    assert response.status == 200
                    assert payload["job"]["source"] == "store"
            finally:
                conn.close()
            assert server.connections.value - before == 1
            # p90, not max: one collector pause in this (large) test
            # process must not fail what is a 20x margin.
            assert sorted(round_trips)[44] < 0.020, sorted(round_trips)[40:]


def exchange(sock: socket.socket, request: bytes):
    """Send one raw request, read exactly one response off ``sock``;
    returns ``(status, headers, body)``."""
    sock.sendall(request)
    reader = sock.makefile("rb")
    status = int(reader.readline().split()[1])
    headers = {}
    while True:
        line = reader.readline().strip()
        if not line:
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.lower()] = value.strip()
    body = reader.read(int(headers["content-length"]))
    return status, headers, body


GET_HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"


def with_body(request_line: str, body: bytes) -> bytes:
    head = f"{request_line} HTTP/1.1\r\nHost: t\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode("latin-1") + body


class TestRequestFraming:
    """A response path that leaves request-body bytes on a kept-alive
    socket makes the server parse them as the next request line."""

    @pytest.mark.parametrize(
        "request_line, status",
        [
            ("POST /nope", 404),  # unknown route never read its body
            ("GET /healthz", 200),  # a GET with a body
            ("POST /jobs?x=1", 400),  # body is read, then rejected
        ],
    )
    def test_unread_body_does_not_become_the_next_request(
        self, request_line, status
    ):
        with live_server(start_worker=False) as server:
            with socket.create_connection(server.server_address[:2], 10) as sock:
                sock.settimeout(10)
                first = exchange(
                    sock, with_body(request_line, b'{"pad": "GET /x HTTP/1.1"}')
                )
                assert first[0] == status
                assert "connection" not in first[1]
                second = exchange(sock, GET_HEALTHZ)
                assert second[0] == 200
                assert json.loads(second[2])["status"] in ("ok", "degraded")

    def test_rate_limited_post_keeps_its_framing(self):
        with live_server(
            start_worker=False, rate_limit=0.001, rate_burst=1
        ) as server:
            with socket.create_connection(server.server_address[:2], 10) as sock:
                sock.settimeout(10)
                submit = with_body("POST /jobs", b'{"scenario": "fir"}')
                assert exchange(sock, submit)[0] == 202
                assert exchange(sock, submit)[0] == 429
                assert exchange(sock, GET_HEALTHZ)[0] == 200

    @pytest.mark.parametrize(
        "header",
        [b"Content-Length: soon", b"Content-Length: -5", b"Transfer-Encoding: chunked"],
    )
    def test_unknown_length_is_refused_and_the_connection_closed(self, header):
        with live_server(start_worker=False) as server:
            with socket.create_connection(server.server_address[:2], 10) as sock:
                sock.settimeout(10)
                status, headers, _ = exchange(
                    sock, b"POST /jobs HTTP/1.1\r\nHost: t\r\n" + header + b"\r\n\r\n"
                )
                assert status == 400
                assert headers["connection"] == "close"
                assert sock.recv(1) == b""  # server hung up

    def test_shutdown_reads_its_body_and_closes(self):
        server = make_server(host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(server.server_address[:2], 10) as sock:
                sock.settimeout(10)
                status, headers, body = exchange(
                    sock, with_body("POST /shutdown", b"{}")
                )
                assert status == 200
                assert json.loads(body) == {"status": "shutting-down"}
                assert headers["connection"] == "close"
            thread.join(timeout=30)
            assert not thread.is_alive()
        finally:
            server.scheduler.stop()
            server.server_close()


class TestConnectionLifetime:
    def test_draining_responses_say_connection_close(self):
        with live_server(start_worker=False) as server:
            conn = HTTPConnection(*server.server_address[:2], timeout=10)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                assert not response.will_close
                server.scheduler.drain()
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert json.loads(response.read())["status"] == "draining"
                assert response.getheader("Connection") == "close"
            finally:
                conn.close()

    def test_idle_connection_is_closed_and_the_client_reconnects(
        self, monkeypatch
    ):
        monkeypatch.setattr(ServiceHandler, "timeout", 0.2)
        with live_server(start_worker=False) as server:
            before = server.connections.value
            with ServiceClient(url_of(server), retries=1) as client:
                client.healthz()
                assert wait_until(lambda: open_connections(server) == 1)
                # Parked handler threads must not accumulate.
                assert wait_until(lambda: open_connections(server) == 0)
                assert client.healthz()["status"] in ("ok", "degraded")
            assert server.connections.value - before == 2

    def test_server_close_hangs_up_on_kept_alive_clients(self):
        with live_server(start_worker=False) as server:
            conn = HTTPConnection(*server.server_address[:2], timeout=10)
            conn.request("GET", "/healthz")
            conn.getresponse().read()
        try:
            assert conn.sock.recv(1) == b""
        finally:
            conn.close()


# -- the client's half -----------------------------------------------------


class TestStaleSocket:
    def test_restart_between_two_calls_costs_no_retry(self):
        with live_server(start_worker=False) as first:
            port = first.server_address[1]
            client = ServiceClient(url_of(first), timeout=10.0, retries=1)
            assert client.healthz()["pid"]
            assert len(client._idle) == 1
        # The pooled socket now points at a closed server.
        with live_server(port=port, start_worker=False) as second:
            before = second.connections.value
            assert client.healthz()["status"] in ("ok", "degraded")
            assert second.connections.value - before == 1
        # Nothing listening: the free reconnect fails, and with
        # retries=1 that is the caller's error.
        with pytest.raises(ServiceError) as info:
            client.healthz()
        assert info.value.status is None
        assert len(client._idle) == 0

    def test_a_timeout_is_not_mistaken_for_a_stale_socket(self):
        with live_server(start_worker=False) as server:
            with ServiceClient(url_of(server), timeout=10.0, retries=1) as client:
                job = client.submit("fir", wait=None)  # queued: no worker
                began = time.monotonic()
                with pytest.raises(ServiceError, match="timed out") as info:
                    client._call(
                        "GET", f"/jobs/{job['id']}?wait=2", timeout=0.3
                    )
                elapsed = time.monotonic() - began
                assert info.value.status is None
                assert 0.3 <= elapsed < 0.6  # one attempt, not two
                assert len(client._idle) == 0  # the timed-out socket is gone


class TestSharedClient:
    def test_four_threads_share_one_client(self, tmp_path):
        threads, calls = 4, 50
        with live_server(store_path=str(tmp_path / "store")) as server:
            client = ServiceClient(url_of(server), timeout=60.0, retries=1)
            seeds = list(range(threads))
            cycles = {
                seed: client.run(SCENARIO, seed=seed, wait=120.0)["record"]["cycles"]
                for seed in seeds
            }
            before = server.connections.value
            most_idle = [0] * threads
            errors = []
            barrier = threading.Barrier(threads)

            def worker(index: int) -> None:
                try:
                    barrier.wait(timeout=30)
                    for call in range(calls):
                        seed = seeds[(index + call) % threads]
                        job = client.run(SCENARIO, seed=seed, wait=120.0)
                        assert job["source"] == "store"
                        assert job["record"]["seed"] == seed
                        assert job["record"]["cycles"] == cycles[seed]
                        most_idle[index] = max(most_idle[index], len(client._idle))
                except BaseException as error:  # noqa: BLE001 - reported below
                    errors.append(error)

            workers = [
                threading.Thread(target=worker, args=(i,)) for i in range(threads)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in workers:
                    thread.start()
                for thread in workers:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in workers)
            assert not errors, errors
            assert 1 <= max(most_idle) <= threads
            assert len(client._idle) <= threads
            # One socket per concurrent call at most, however many calls
            # (the one pooled by the warm-up is reused, hence threads - 1).
            assert server.connections.value - before <= threads - 1
            client.close()
            assert len(client._idle) == 0
            assert wait_until(lambda: open_connections(server) == 0)
            # Closed is not dead: the next call connects afresh.
            assert client.healthz()["status"] == "ok"
            client.close()


class TestLongPollOnAPooledSocket:
    def test_wait_extends_the_pooled_sockets_timeout(self):
        with live_server(start_worker=False) as server:
            before = server.connections.value
            with ServiceClient(url_of(server), timeout=0.4, retries=1) as client:
                job = client.submit("fir", wait=None)  # stays queued
                began = time.monotonic()
                polled = client.job(job["id"], wait=1.0)  # > timeout
                assert time.monotonic() - began >= 1.0
                assert polled["state"] == "queued"
                # ...and the next plain call is back on the short timeout.
                with pytest.raises(ServiceError, match="timed out"):
                    client._call("GET", f"/jobs/{job['id']}?wait=2")
            assert server.connections.value - before == 1


@contextmanager
def refusing_server(status: int):
    """A server arranged to answer the next submission with ``status``."""
    kwargs = {
        429: dict(rate_limit=0.001, rate_burst=1),
        503: dict(max_queue=1),
    }.get(status, {})
    with live_server(start_worker=False, **kwargs) as server:
        with ServiceClient(url_of(server), timeout=10.0, retries=1) as client:
            if status in (429, 503):
                client.submit("fir", wait=None)  # spends the budget
            yield client


class TestStatusMapping:
    """The statuses the urllib transport mapped, mapped the same."""

    @pytest.mark.parametrize(
        "status, call, match, retry_after",
        [
            (400, lambda c: c.submit("nonesuch"), "valid scenarios", None),
            (400, lambda c: c._call("POST", "/jobs", {"scenario": "fir", "wait": "soon"}), "bad wait", None),
            (404, lambda c: c.job("job-999999"), "unknown job", None),
            (404, lambda c: c._call("POST", "/nope", {}), "no route", None),
            (429, lambda c: c.submit("fir", seed=1, wait=None), "rate limit", "positive"),
            (503, lambda c: c.submit("fir", seed=1, wait=None), "queue full", 1.0),
        ],
    )
    def test_error_statuses(self, status, call, match, retry_after):
        with refusing_server(status) as client:
            with pytest.raises(ServiceError, match=match) as info:
                call(client)
            assert info.value.status == status
            if retry_after == "positive":
                assert info.value.retry_after > 0
            else:
                assert info.value.retry_after == retry_after
            # The error body was read in full: the socket went back to
            # the pool and the connection is still good.
            assert len(client._idle) == 1
            assert client.healthz()["status"] in ("ok", "degraded")

    def test_draining_503_has_no_retry_after_and_504_is_a_status(self):
        with live_server(start_worker=False) as server:
            with ServiceClient(url_of(server), timeout=10.0, retries=1) as client:
                job = client.submit("fir", wait=None)
                with pytest.raises(ServiceError, match="still") as info:
                    client.result(job["id"], wait=0.2)
                assert info.value.status == 504
                server.scheduler.drain()
                with pytest.raises(ServiceError, match="draining") as info:
                    client.submit("fir", seed=1, wait=None)
                assert info.value.status == 503
                assert info.value.retry_after is None

    def test_non_json_error_body_falls_back_to_the_status_line(self):
        message, retry_after = ServiceClient._decode_error(
            type("Response", (), {"status": 502, "reason": "Bad Gateway"}),
            b"<html>upstream sad</html>",
        )
        assert message == "HTTP Error 502: Bad Gateway"
        assert retry_after is None

    def test_base_url_must_name_a_host(self):
        with pytest.raises(ValueError, match="base_url"):
            ServiceClient("127.0.0.1:8421")
