"""HTTP heads parsed by hand, at both ends, against the stdlib.

The server reads a request head itself (``ServiceHandler.parse_request``)
and the client a response head (``client._read_response``); neither goes
through ``email.parser`` any more.  The stdlib stays the independent
reference in both directions: every request head the stdlib accepts is
sent, byte for byte, to a plain ``BaseHTTPRequestHandler`` too and must
meet the same status and the same connection fate, and the client is
driven against a plain ``http.server`` stub (which also parses the
client's one-``sendall`` request with the stdlib's own parser).
``test_transport.py`` covers the remaining pairing: stdlib
``HTTPConnection`` against the real server.
"""

from __future__ import annotations

import json
import re
import socket
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.service import ServiceClient, ServiceError
from repro.service.server import make_server
from tests.serving import serving, url_of

# -- requests: the real server beside a stdlib reference ------------------------


class ReferenceHandler(BaseHTTPRequestHandler):
    """What ``BaseHTTPRequestHandler.parse_request`` makes of a head:
    200 to whatever it accepts, the body read by ``Content-Length``."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # its body write waits no delayed ACK

    def do_GET(self):  # noqa: N802 - stdlib casing
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self.send_response(200)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass


@pytest.fixture(scope="module")
def servers():
    real = make_server(host="127.0.0.1", port=0)
    reference = ThreadingHTTPServer(("127.0.0.1", 0), ReferenceHandler)
    with serving(real), serving(reference):
        yield real, reference


def read_response(reader):
    """One response off a socket file: ``(status, headers, body)``;
    ``None`` when the peer hung up instead."""
    try:
        status_line = reader.readline()
    except ConnectionError:
        return None
    if not status_line:
        return None
    if not status_line.startswith(b"HTTP/"):
        # The stdlib answers a head whose version it cannot read in
        # HTTP/0.9: no status line, the error page alone, then EOF.
        page = status_line + reader.read()
        return int(re.search(rb"Error code: (\d+)", page).group(1)), {}, page
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = reader.readline().strip()
        if not line:
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", 0)))
    return status, headers, body


PROBE = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"


def send_head(server, raw: bytes):
    """Send ``raw``; returns ``(statuses, closed)`` — the statuses of
    every response up to the final one, and whether the connection was
    then closed (a follow-up request gets no answer) or kept alive."""
    with socket.create_connection(server.server_address[:2], 10) as sock:
        sock.settimeout(10)
        sock.sendall(raw)
        reader = sock.makefile("rb")
        statuses = []
        while True:
            response = read_response(reader)
            assert response is not None, "no response at all"
            statuses.append(response[0])
            if response[0] >= 200:
                break
        try:
            sock.sendall(PROBE)
            closed = read_response(reader) is None
        except ConnectionError:
            closed = True
        return statuses, closed


def head(request_line: str, *headers: str, body: bytes = b"") -> bytes:
    lines = [request_line, *headers, "", ""]
    return "\r\n".join(lines).encode("latin-1") + body


def many_headers(count: int) -> bytes:
    return head("GET /healthz HTTP/1.1", *(f"X-{i}: {i}" for i in range(count)))


#: (id, raw request, statuses, connection closed afterwards).
ACCEPTED = [
    ("http-1.0-closes", head("GET /healthz HTTP/1.0"), [200], True),
    ("http-1.1-keeps-alive", head("GET /healthz HTTP/1.1", "Host: t"), [200], False),
    ("1.1-connection-close",
     head("GET /healthz HTTP/1.1", "Connection: close"), [200], True),
    ("1.0-connection-keep-alive",
     head("GET /healthz HTTP/1.0", "Connection: keep-alive"), [200], False),
    ("mixed-case-names-and-values",
     head("GET /healthz HTTP/1.1", "cOnNeCtIoN: Close", "HOST: t"), [200], True),
    ("mixed-case-content-length-frames-the-body",
     head("GET /healthz HTTP/1.1", "content-LENGTH: 21", body=b"GET /x HTTP/1.1\r\n\r\n{}"),
     [200], False),
    ("leading-zero-version", head("GET /healthz HTTP/01.01"), [200], False),
    ("double-slash-path", head("GET //healthz HTTP/1.1"), [200], False),
    ("expect-100-continue",
     head("GET /healthz HTTP/1.1", "Expect: 100-continue", "Content-Length: 2", body=b"{}"),
     [100, 200], False),
    ("expect-on-1.0-is-ignored",
     head("GET /healthz HTTP/1.0", "Expect: 100-continue"), [200], True),
    ("99-headers", many_headers(99), [200], False),
    ("value-with-colons", head("GET /healthz HTTP/1.1", "X-Time: 12:30:00"), [200], False),
    ("empty-value", head("GET /healthz HTTP/1.1", "X-Empty:"), [200], False),
]

#: Refused by the stdlib and here alike: (id, raw request, status).
REFUSED = [
    ("bad-version-word", head("GET /healthz HTTQ/1.1"), 400),
    ("bad-version-number", head("GET /healthz HTTP/1.x"), 400),
    ("three-part-version", head("GET /healthz HTTP/1.1.1"), 400),
    ("overlong-version", head("GET /healthz HTTP/1.12345678901"), 400),
    ("http-2.0", head("GET /healthz HTTP/2.0"), 505),
    ("two-word-post", head("POST /jobs"), 400),
    ("four-word-request-line", head("GET /healthz extra HTTP/1.1"), 400),
    ("request-line-over-65536",
     head("GET /" + "a" * 65536 + " HTTP/1.1"), 414),
    ("header-line-over-65536",
     head("GET /healthz HTTP/1.1", "X-Long: " + "a" * 65536), 431),
    ("100-headers", many_headers(100), 431),
    ("101-headers", many_headers(101), 431),
]

#: Accepted by the stdlib, refused here: each lets two parsers disagree
#: about where this request ends.  (id, raw request.)
STRICTER = [
    ("conflicting-content-length",
     head("POST /jobs HTTP/1.1", "Content-Length: 5", "Content-Length: 50",
          body=b"hello" + PROBE)),
    ("repeated-content-length",
     head("GET /healthz HTTP/1.1", "Content-Length: 2", "Content-Length: 2", body=b"{}")),
    ("obs-folded-header",
     head("GET /healthz HTTP/1.1", "X-Folded: a", "  Content-Length: 5")),
    ("whitespace-before-colon",
     head("GET /healthz HTTP/1.1", "Content-Length : 5", body=b"hello")),
    ("content-length-beside-transfer-encoding",
     head("POST /jobs HTTP/1.1", "Content-Length: 5", "Transfer-Encoding: chunked",
          body=b"hello")),
    ("transfer-encoding-alone",
     head("POST /jobs HTTP/1.1", "Transfer-Encoding: chunked", body=b"0\r\n\r\n")),
    ("header-line-without-a-colon",
     head("GET /healthz HTTP/1.1", "no colon here")),
    ("content-length-with-a-sign",
     head("GET /healthz HTTP/1.1", "Content-Length: +2", body=b"{}")),
    ("content-length-with-an-underscore",
     head("GET /healthz HTTP/1.1", "Content-Length: 1_0", body=b"0123456789")),
]


class TestRequestHeads:
    @pytest.mark.parametrize(
        "raw, statuses, closed",
        [row[1:] for row in ACCEPTED], ids=[row[0] for row in ACCEPTED],
    )
    def test_accepted_like_the_stdlib(self, servers, raw, statuses, closed):
        real, reference = servers
        assert send_head(real, raw) == (statuses, closed)
        assert send_head(reference, raw) == (statuses, closed)

    @pytest.mark.parametrize(
        "raw, status",
        [row[1:] for row in REFUSED], ids=[row[0] for row in REFUSED],
    )
    def test_refused_like_the_stdlib(self, servers, raw, status):
        real, reference = servers
        # The stdlib's status; the fate is ours (it sends ``Connection:
        # close`` with a 505 and keeps reading — here a refusal closes).
        assert send_head(reference, raw)[0] == [status]
        assert send_head(real, raw) == ([status], True)

    @pytest.mark.parametrize(
        "raw", [row[1] for row in STRICTER], ids=[row[0] for row in STRICTER]
    )
    def test_ambiguous_framing_is_a_400_and_a_close(self, servers, raw):
        real, _ = servers
        before = real.requests.value
        assert send_head(real, raw) == ([400], True)
        # One request, one answer: nothing after the head was parsed as
        # a second request (``5`` then ``50`` used to read five bytes
        # and serve the rest as the next request).
        assert real.requests.value - before <= 1

    def test_two_word_get_is_answered_and_closed(self, servers):
        real, _ = servers
        assert send_head(real, head("GET /healthz")) == ([200], True)

    def test_headers_reach_the_handler_case_insensitively(self, servers):
        real, _ = servers
        raw = head(
            "POST /jobs HTTP/1.1", "CONTENT-length: 20", "content-TYPE: application/json",
            body=b'{"scenario": "nope"}',
        )
        with socket.create_connection(real.server_address[:2], 10) as sock:
            sock.settimeout(10)
            sock.sendall(raw)
            status, headers, body = read_response(sock.makefile("rb"))
        assert status == 400 and "valid scenarios" in json.loads(body)["error"]
        assert headers["x-request-id"].startswith("req-")


# -- responses: the client against a plain http.server stub ---------------------


class StubHandler(BaseHTTPRequestHandler):
    """Answers every request with the next scripted raw response (the
    last one repeats); ``None`` hangs up without a byte, a float sleeps
    first.  Requests are parsed by the stdlib and recorded."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_GET(self):  # noqa: N802 - stdlib casing
        body = self.rfile.read(int(self.headers.get("Content-Length") or 0))
        server = self.server
        server.seen.append((self.command, self.path, dict(self.headers), body))
        step = server.script[min(len(server.seen), len(server.script)) - 1]
        for part in step if isinstance(step, tuple) else (step,):
            if part is None or part == "close":
                self.close_connection = True
            elif isinstance(part, float):
                time.sleep(part)
            else:
                self.wfile.write(part)
                self.wfile.flush()

    do_POST = do_GET  # noqa: N815 - stdlib casing

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass


def response(status_line: str, *headers: str, body: bytes = b"") -> bytes:
    return head(status_line, *headers, body=body)


def ok(body: bytes = b'{"ok": true}', *headers: str) -> bytes:
    return response("HTTP/1.1 200 OK", f"Content-Length: {len(body)}", *headers, body=body)


@contextmanager
def stub(*script, **client_kwargs):
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    server.script, server.seen = script, []
    with serving(server):
        kwargs = {"timeout": 10.0, "retries": 1, "backoff_s": 0.01, **client_kwargs}
        with ServiceClient(url_of(server), **kwargs) as client:
            yield client, server


class TestResponseHeads:
    def test_the_request_is_what_the_stdlib_parses(self):
        with stub(ok()) as (client, server):
            assert client._call("POST", "/jobs?wait=1", {"scenario": "fir"}) == {"ok": True}
            assert client._call("GET", "/healthz") == {"ok": True}
        (post, path, headers, body), (get, _, get_headers, get_body) = server.seen
        assert (post, path, get, get_body) == ("POST", "/jobs?wait=1", "GET", b"")
        assert json.loads(body) == {"scenario": "fir"}
        assert headers["Content-Length"] == str(len(body))
        assert headers["Content-Type"] == "application/json"
        assert headers["Host"] == "127.0.0.1:%d" % server.server_address[1]
        assert "Content-Length" not in get_headers

    def test_case_varied_header_names_and_values(self):
        raw = response(
            "HTTP/1.1 200 OK", "content-LENGTH:  12 ", "CONNECTION: Keep-Alive",
            "X-Other: a: b", body=b'{"ok": true}',
        )
        with stub(raw) as (client, _):
            assert client._call("GET", "/x") == {"ok": True}
            assert len(client._idle) == 1

    def test_connection_close_is_not_pooled(self):
        with stub(ok(b"{}", "cOnNeCtIoN: CLOSE")) as (client, server):
            assert client._call("GET", "/x") == {}
            assert len(client._idle) == 0
            assert client._call("GET", "/x") == {}
        assert len(server.seen) == 2

    def test_http_1_0_closes_unless_it_says_keep_alive(self):
        closing = response("HTTP/1.0 200 OK", "Content-Length: 2", body=b"{}")
        keeping = response(
            "HTTP/1.0 200 OK", "Content-Length: 2", "Connection: keep-alive", body=b"{}"
        )
        with stub(closing, keeping) as (client, _):
            assert client._call("GET", "/x") == {}
            assert len(client._idle) == 0
            assert client._call("GET", "/x") == {}
            assert len(client._idle) == 1

    def test_a_body_without_a_length_runs_to_the_end_of_the_connection(self):
        raw = response("HTTP/1.1 200 OK", "Content-Type: application/json", body=b'{"n": 1}')
        with stub((raw, "close")) as (client, _):
            assert client._call("GET", "/x") == {"n": 1}
            assert len(client._idle) == 0

    def test_retry_after_header_beside_the_json_hint(self):
        body = b'{"error": "busy", "retry_after": 2.5}'
        raw = response(
            "HTTP/1.1 503 Service Unavailable", f"Content-Length: {len(body)}",
            "Retry-After: 3", body=body,
        )
        with stub(raw) as (client, _):
            with pytest.raises(ServiceError, match="busy") as info:
                client._call("GET", "/x")
            assert info.value.status == 503
            assert info.value.retry_after == 2.5
            assert len(client._idle) == 1  # the error body was read in full

    def test_non_json_error_body_reports_the_status_line(self):
        raw = response("HTTP/1.1 502 Bad Gateway", "Content-Length: 4", body=b"nope")
        with stub(raw) as (client, _):
            with pytest.raises(ServiceError, match="HTTP Error 502: Bad Gateway") as info:
                client._call("GET", "/x")
            assert info.value.status == 502

    def test_100_continue_before_the_real_status(self):
        with stub((b"HTTP/1.1 100 Continue\r\n\r\n", 0.05, ok())) as (client, _):
            assert client._call("POST", "/x", {}) == {"ok": True}
            assert len(client._idle) == 1

    @pytest.mark.parametrize(
        "broken, match",
        [
            (None, "closed by the server"),
            ((b"HTTP/1.1 200 OK\r\nContent-Le", "close"), "inside a response head"),
            ((response("HTTP/1.1 200 OK", "Content-Length: 100", body=b'{"ok": '), "close"),
             "93 bytes short"),
            (response("HTTP/1.1 200 OK", "Transfer-Encoding: chunked", body=b"0\r\n\r\n"),
             "Transfer-Encoding"),
            (response("HTTP/1.1 200 OK", "Content-Length: many"), "malformed Content-Length"),
            (b"SPDY/3 200 OK\r\n\r\n", "malformed status line"),
        ],
        ids=["premature-eof", "eof-in-head", "short-body", "chunked", "bad-length", "bad-status"],
    )
    def test_a_response_that_falls_short_is_retryable(self, broken, match):
        with stub(broken) as (client, server):
            with pytest.raises(ServiceError, match=match) as info:
                client._call("GET", "/x")
            assert info.value.status is None  # what ``_call`` retries
            assert len(client._idle) == 0
            assert len(server.seen) == 1  # a fresh socket gets no second try
        with stub(broken, ok(), retries=2) as (client, server):
            assert client._call("GET", "/x") == {"ok": True}
            assert len(server.seen) == 2

    def test_a_stale_pooled_socket_costs_one_free_reconnect(self):
        # The stub hangs up after its first answer without saying so —
        # what an idle timeout or a restart looks like from the pool.
        with stub((ok(), "close"), ok()) as (client, server):
            assert client._call("GET", "/x") == {"ok": True}
            assert len(client._idle) == 1
            assert client._call("GET", "/x") == {"ok": True}  # retries=1
            assert len(server.seen) == 2

    def test_a_timeout_is_not_a_stale_socket(self):
        with stub(ok(), (0.6, ok()), timeout=0.2) as (client, server):
            assert client._call("GET", "/x") == {"ok": True}  # pools the socket
            began = time.monotonic()
            with pytest.raises(ServiceError, match="timed out") as info:
                client._call("GET", "/x")
            assert info.value.status is None
            assert time.monotonic() - began < 0.5  # one attempt, no reconnect
            assert len(client._idle) == 0
            assert len(server.seen) == 2


class TestTLS:
    """``https`` is the same code over ``wrap_socket``."""

    def test_https_wraps_the_socket_it_connects(self, monkeypatch):
        import ssl

        client = ServiceClient("https://service.example")
        assert isinstance(client._tls, ssl.SSLContext)
        assert client._tls.verify_mode == ssl.CERT_REQUIRED and client._tls.check_hostname
        assert (client._host, client._port) == ("service.example", 443)
        assert ServiceClient("http://service.example")._port == 80

        wrapped = []

        class Context:
            def wrap_socket(self, sock, server_hostname):
                wrapped.append(server_hostname)
                return sock

        with stub(ok()) as (plain, _):
            monkeypatch.setattr(plain, "_tls", Context())
            assert plain._call("GET", "/x") == {"ok": True}
        assert wrapped == ["127.0.0.1"]
