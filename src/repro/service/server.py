"""``equeue-serve``: the stdlib-only HTTP JSON front end.

A thin, threaded HTTP layer over :class:`~repro.service.scheduler.JobScheduler`
— no framework, no dependencies beyond the standard library.  The API
(full examples in ``docs/serving.md``):

* ``POST /jobs`` — submit a scenario request::

      {"scenario": "gemm:k=32", "config": {"m": 8}, "seed": 0,
       "options": {"scheduler": "wheel"}, "check": true,
       "wait": 30}

  Responds with the job's wire representation; ``wait`` (seconds,
  optional) long-polls so a submit can return the finished record in
  one round trip.  A request already persisted in the store completes
  instantly with ``"source": "store"`` and no engine work.
* ``POST /sweeps`` — submit a whole scenario sweep as one job::

      {"scenario": "gemm", "config": {"k": 32}, "seed": 0,
       "sample": 8, "options": {}, "check": true, "wait": 30}

  The scenario's default grid expands over the pinned base config;
  the job's record aggregates every point.  Completed points
  checkpoint into the store individually as the sweep runs, so the
  job dict's ``progress`` (``points_done``/``points_total``) moves
  while polling — and a sweep interrupted by a crash or restart
  resumes from its checkpoints when resubmitted.
* ``GET /jobs/<id>[?wait=S]`` — poll (or long-poll) job status; the
  record rides along once the state is ``done``.
* ``GET /jobs/<id>/result[?wait=S]`` — just the result record (404
  until the job completes, 504 on a ``wait`` timeout).
* ``GET /scenarios`` — the registry: names, summaries, config defaults.
* ``GET /stats`` — scheduler, store, and program-cache counters.
* ``GET /healthz`` — liveness plus worker health (restart count, last
  error, draining flag).
* ``POST /shutdown`` — drain and exit cleanly (CI smoke uses this).

Every response body is JSON.  Client errors are ``{"error": ...}`` with
a 4xx status; overload answers ``429`` (per-client rate limit) or
``503`` (bounded queue full / draining) with a ``retry_after`` hint —
the server never emits a traceback over the wire, and under overload it
only ever degrades to *unavailable*, never to *wrong* (see
``docs/serving.md``, "Failure modes & retry semantics").
"""

from __future__ import annotations

import argparse
import json
import math
import os
import selectors
import signal
import socket
import sys
import threading
import time
from dataclasses import asdict
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..obs import logs as obs_logs
from ..obs import metrics as obs_metrics
from ..obs.spans import span as obs_span
from ..scenarios import all_scenarios
from .fsck import STORE_NAME, WAL_NAME, run_fsck
from .scheduler import (
    DrainingError,
    JobScheduler,
    QueueFullError,
    RequestError,
    request_from_body,
)
from .store import ResultStore
from .supervise import RESTARTS_ENV, Supervisor
from .wal import AdmissionWAL, WALError

_log = obs_logs.get_logger("service.server")
_access_log = obs_logs.get_logger("service.access")

#: Ceiling on a single long-poll, so an absurd ``wait`` cannot pin a
#: handler thread for hours.
MAX_WAIT_S = 300.0

#: Ceiling on a per-job deadline override, for the same reason.
MAX_DEADLINE_S = 3600.0

#: Ceiling on a request body.  Job payloads are a few hundred bytes; a
#: huge Content-Length would otherwise buffer arbitrary data in memory
#: before validation.
MAX_BODY_BYTES = 1 << 20

#: How much of a rejected request's body the server reads-and-discards
#: before answering, so the error response survives the socket (an
#: unread body can turn the 4xx into a connection reset at the client).
#: Beyond this, the connection closes instead.
MAX_DRAIN_BYTES = 8 << 20

#: How long a keep-alive connection may sit between requests before the
#: server closes it, so the handler threads of clients that went away
#: without closing do not accumulate.  Clients reconnect transparently
#: (``ServiceClient`` retries a stale pooled socket once for free).
KEEPALIVE_IDLE_S = 30.0

#: The request head's limits — http.server's (``http.client._MAXLINE``
#: and ``_MAXHEADERS``, blank line included), restated because the head
#: is parsed here: a longer line or a longer head is a 431.
MAX_LINE_BYTES = 65536
MAX_HEAD_LINES = 100


class RateLimiter:
    """Per-client token bucket: ``rate`` requests/s, ``burst`` capacity.

    One bucket per client key (the peer address); buckets refill
    continuously and idle ones are pruned.  ``allow`` returns
    ``(admitted, retry_after_s)`` — the hint is how long until one token
    accrues, which clients with backoff can use directly.
    """

    def __init__(self, rate: float, burst: int):
        self.rate = float(rate)
        self.burst = max(1, int(burst))
        #: Total requests refused (the token-bucket rejection counter
        #: surfaced as ``server.rate_limited`` on ``/metrics``).
        self.rejections = 0
        self._buckets: Dict[str, Tuple[float, float]] = {}
        self._lock = threading.Lock()

    def allow(self, client: str) -> Tuple[bool, float]:
        now = time.monotonic()
        with self._lock:
            tokens, last = self._buckets.get(client, (float(self.burst), now))
            tokens = min(self.burst, tokens + (now - last) * self.rate)
            if tokens >= 1.0:
                self._buckets[client] = (tokens - 1.0, now)
                return True, 0.0
            self.rejections += 1
            self._buckets[client] = (tokens, now)
            retry_after = (1.0 - tokens) / self.rate if self.rate > 0 else 1.0
            if len(self._buckets) > 4096:  # prune idle clients
                self._buckets = {
                    key: value
                    for key, value in self._buckets.items()
                    if now - value[1] < 60.0
                }
            return False, retry_after


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests to the server's scheduler.  One instance per
    request (http.server's model); shared state lives on ``self.server``."""

    server_version = "equeue-serve/1.0"
    protocol_version = "HTTP/1.1"
    #: Socket timeout of an accepted connection: bounds the wait for
    #: the next request line (and for a stalled upload).
    timeout = KEEPALIVE_IDLE_S
    #: TCP_NODELAY, set once per accepted connection.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------

    @property
    def scheduler(self) -> JobScheduler:
        return self.server.scheduler  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # The structured access log (one line per response, emitted by
        # _finish_response) supersedes http.server's ad-hoc stderr
        # logging; stdlib-internal messages route through it at debug.
        _log.debug("http.stdlib", client=self.address_string(), message=format % args)

    def parse_request(self) -> bool:
        """http.server's ``parse_request`` — its request-line rules, its
        limits, its statuses — with the header block parsed here instead
        of by ``email.parser``, into ``self.headers``: a dict keyed by
        lower-cased field name (repeats joined with ``", "``).

        Stricter than the stdlib where leniency lets two parsers
        disagree about where a request ends: a folded header line,
        whitespace before the colon and a line with no colon are 400s.
        """
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = requestline = str(
            self.raw_requestline, "iso-8859-1"
        ).rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False
        keep_alive = False
        if len(words) >= 3:
            version = words[-1]
            try:
                if not version.startswith("HTTP/"):
                    raise ValueError
                major, minor = version[5:].split(".")
                if len(major) > 10 or len(minor) > 10:
                    raise ValueError
                if not (major.isdigit() and minor.isdigit()):
                    raise ValueError
                number = int(major), int(minor)
            except ValueError:
                return self._refuse(400, f"Bad request version ({version!r})")
            if number >= (2, 0):
                return self._refuse(505, f"Invalid HTTP version ({version[5:]})")
            keep_alive = number >= (1, 1)
            self.request_version = version
        if not 2 <= len(words) <= 3:
            return self._refuse(400, f"Bad request syntax ({requestline!r})")
        command, path = words[:2]
        if len(words) == 2 and command != "GET":
            return self._refuse(400, f"Bad HTTP/0.9 request type ({command!r})")
        if path.startswith("//"):  # gh-87389: never an absolute URI
            path = "/" + path.lstrip("/")
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEAD_LINES):
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                return self._refuse(431, "Line too long")
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.decode("iso-8859-1").partition(":")
            if not colon or not name or name[0] in " \t" or name[-1] in " \t":
                return self._refuse(400, "Bad header line")
            name, value = name.lower(), value.strip()
            if name in headers:
                value = f"{headers[name]}, {value}"
            headers[name] = value
        else:
            return self._refuse(431, "Too many headers")
        self.command, self.path, self.headers = command, path, headers
        connection = headers.get("connection", "").lower()
        if connection == "keep-alive":
            keep_alive = True
        elif connection == "close":
            keep_alive = False
        self.close_connection = not keep_alive
        if (
            headers.get("expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def _refuse(self, status: int, message: str) -> bool:
        """Answer a head that does not parse: the stdlib's
        ``send_error``, but always with a status line (the stdlib
        answers a bad version word in HTTP/0.9, with none) and always
        closing (it keeps reading after a 505)."""
        self.request_version = self.protocol_version
        self.close_connection = True
        self.send_error(status, message)
        return False

    def _begin(self) -> None:
        """Stamp the request: start clock, a fresh request id, and how
        much request body is waiting on the socket.

        The id minted here is THE request id — it rides into the
        scheduler (admission log, job wire dict, worker contextvar) and
        back out on the ``X-Request-Id`` response header, so one grep
        joins the access log, the service logs, and the WAL.

        Raises ``ValueError`` (a 400, connection closed) when the
        request's length cannot be known: no digits, two
        ``Content-Length`` headers (joined by :meth:`parse_request`, so
        no longer digits — the first used to win and the rest of the
        body was parsed as the next request), or any
        ``Transfer-Encoding``, with a ``Content-Length`` beside it or
        not.
        """
        self._began = time.perf_counter()
        self._request_id = obs_logs.new_request_id()
        self._unread = 0
        raw = self.headers.get("content-length", "0")
        encoded = "transfer-encoding" in self.headers
        if encoded or not (raw.isascii() and raw.isdigit()):
            # Where this request ends is unknown, so nothing after it
            # on this connection can be trusted to be a request.
            self.close_connection = True
            raise ValueError(
                "Transfer-Encoding is not supported; send Content-Length"
                if encoded
                else f"bad Content-Length {raw!r}"
            )
        self._unread = int(raw)

    def _finish_response(self, status: int) -> None:
        """Access-log + meter one response (any status)."""
        duration_ms = round((time.perf_counter() - self._began) * 1e3, 3)
        _access_log.info(
            "http.access",
            method=self.command,
            path=self.path,
            status=status,
            duration_ms=duration_ms,
            client=self.client_address[0],
            request_id=self._request_id,
        )
        registry = obs_metrics.METRICS
        if registry is not None:
            self.server.requests.inc()  # type: ignore[attr-defined]
            if status >= 500:
                registry.counter(
                    "server.responses_5xx", "HTTP 5xx responses"
                ).inc()
            elif status >= 400:
                registry.counter(
                    "server.responses_4xx", "HTTP 4xx responses"
                ).inc()
            registry.histogram(
                "server.request_seconds", "Wall-clock seconds per HTTP request"
            ).observe(duration_ms / 1e3)

    def _respond(
        self,
        status: int,
        body: bytes,
        content_type: str,
        retry_after: Optional[float] = None,
    ) -> None:
        """THE write path: status line, headers and body go to the
        socket in one ``sendall``.

        One write, because two small writes on a kept-alive connection
        meet Nagle's algorithm and the peer's delayed ACK (~40 ms per
        response without ``TCP_NODELAY``).  The response is logged and
        metered *before* the bytes leave, so a client that has read it
        can already scrape it from ``/metrics`` and find it in the log;
        ``duration_ms`` therefore ends at the hand-off to the kernel.
        """
        # Request framing: whatever body the route did not read is
        # drained (or the connection closed) first — left on a
        # kept-alive socket it would be parsed as the next request line.
        self._discard_body()
        if self.scheduler.draining:
            self.close_connection = True
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.server.http_date()}\r\n"  # type: ignore[attr-defined]
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"X-Request-Id: {self._request_id}\r\n"
        )
        if retry_after is not None:
            head += f"Retry-After: {max(1, round(retry_after))}\r\n"
        if self.close_connection:
            head += "Connection: close\r\n"
        self._finish_response(status)
        self.wfile.write(head.encode("latin-1") + b"\r\n" + body)

    def _send_json(
        self,
        status: int,
        payload: Dict,
        retry_after: Optional[float] = None,
    ) -> None:
        self._respond(
            status,
            json.dumps(payload).encode("utf-8"),
            "application/json",
            retry_after,
        )

    def _send_text(self, status: int, body: str, content_type: str) -> None:
        self._respond(status, body.encode("utf-8"), content_type)

    def _discard_body(self) -> None:
        """Read-and-discard the unconsumed request body before a
        response.  Answering with bytes still in flight risks a TCP
        reset that eats the response; a body too large to bother
        draining closes the connection after the response instead."""
        remaining, self._unread = self._unread, 0
        if remaining > MAX_DRAIN_BYTES:
            self.close_connection = True
            return
        while remaining > 0:
            chunk = self.rfile.read(min(remaining, 1 << 16))
            if not chunk:
                self.close_connection = True
                return
            remaining -= len(chunk)

    def _read_json(self) -> Dict:
        length = self._unread
        if length == 0:
            return {}
        if length > MAX_BODY_BYTES:
            raise ValueError(
                f"request body too large ({length} > {MAX_BODY_BYTES} bytes)"
            )
        self._unread = 0
        payload = json.loads(self.rfile.read(length).decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _wait_seconds(self, query: Dict, body: Optional[Dict] = None):
        raw = (body or {}).get("wait", None)
        if raw is None and "wait" in query:
            raw = query["wait"][0]
        if raw is None:
            return None
        try:
            return max(0.0, min(float(raw), MAX_WAIT_S))
        except (TypeError, ValueError):
            raise ValueError(f"bad wait value {raw!r}") from None

    # -- routing -------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        parts = [part for part in parsed.path.split("/") if part]
        try:
            self._begin()
            if parts == ["metrics"]:
                self._send_text(
                    200,
                    obs_metrics.get_registry().render_prometheus(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif parts == ["healthz"]:
                health = self.scheduler.worker_health()
                if health["draining"]:
                    status = "draining"
                elif health["worker_alive"]:
                    status = "ok"
                else:
                    status = "degraded"
                self._send_json(
                    200,
                    {
                        "status": status,
                        **health,
                        # Which process is answering (a supervised
                        # restart changes it) and how many times the
                        # supervisor has restarted this service.
                        "pid": os.getpid(),
                        "supervise_restarts": _supervise_restarts(),
                    },
                )
            elif parts == ["stats"]:
                payload = self.scheduler.stats_dict()
                payload["supervise_restarts"] = _supervise_restarts()
                front = self.server.stats_dict()  # type: ignore[attr-defined]
                payload["server"] = front
                payload["metrics"].update(
                    (f"server.{key}", float(value))
                    for key, value in front.items()
                )
                self._send_json(200, payload)
            elif parts == ["scenarios"]:
                self._send_json(200, {"scenarios": _scenario_listing()})
            elif len(parts) >= 2 and parts[0] == "jobs":
                self._get_job(parts, query)
            else:
                self._send_json(404, {"error": f"no route {parsed.path!r}"})
        except ValueError as error:
            self._send_json(400, {"error": str(error)})

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        try:
            self._begin()
            if parts == ["jobs"]:
                self._post_job(parse_qs(parsed.query))
            elif parts == ["sweeps"]:
                self._post_job(parse_qs(parsed.query), sweep=True)
            elif parts == ["shutdown"]:
                self.close_connection = True
                self._send_json(200, {"status": "shutting-down"})
                self.server.request_shutdown()  # type: ignore[attr-defined]
            else:
                self._send_json(404, {"error": f"no route {parsed.path!r}"})
        except (ValueError, TypeError, json.JSONDecodeError) as error:
            # TypeError included defensively: the contract is a JSON 4xx
            # for any malformed body, never a traceback over the wire.
            self._send_json(400, {"error": str(error)})

    # -- handlers ------------------------------------------------------

    def _post_job(self, query: Dict, sweep: bool = False) -> None:
        limiter = self.server.rate_limiter  # type: ignore[attr-defined]
        if limiter is not None:
            admitted, retry_after = limiter.allow(self.client_address[0])
            if not admitted:
                registry = obs_metrics.METRICS
                if registry is not None:
                    registry.counter(
                        "server.rate_limited",
                        "Submissions refused by the token bucket",
                    ).inc()
                self._send_json(
                    429,
                    {
                        "error": "rate limit exceeded",
                        "retry_after": round(retry_after, 3),
                    },
                    retry_after=retry_after,
                )
                return
        body = self._read_json()
        try:
            request = request_from_body(body, sweep)
        except RequestError as error:
            raise ValueError(str(error)) from None
        # Validate wait/deadline before submitting: a 400 must not leave
        # an orphaned job simulating with its id never returned.
        wait = self._wait_seconds(query, body)
        deadline = self._deadline_seconds(body)
        try:
            job = self.scheduler.submit(
                request,
                deadline_s=deadline,
                client=self.client_address[0],
                request_id=self._request_id,
            )
        except WALError as error:
            # Durability could not be promised (admission-log append
            # failed): refuse rather than issue an id that would not
            # survive a crash.  Retryable — disk conditions change.
            self._send_json(
                503,
                {"error": str(error), "retry_after": 1.0},
                retry_after=1.0,
            )
            return
        except QueueFullError as error:
            self._send_json(
                503,
                {"error": str(error), "retry_after": 1.0},
                retry_after=1.0,
            )
            return
        except DrainingError as error:
            self._send_json(503, {"error": str(error)})
            return
        if wait:
            job.wait(wait)
        with obs_span("server.respond", job=job.id):
            # A store hit's record leaves as the bytes it was verified
            # as: the blob's canonical line, spliced, not re-serialised.
            self._respond(
                200 if job.done else 202,
                b'{"job": %s}' % job.to_json(),
                "application/json",
            )

    def _deadline_seconds(self, body: Dict) -> Optional[float]:
        raw = body.get("deadline", None)
        if raw is None:
            return None
        try:
            deadline = float(raw)
        except (TypeError, ValueError):
            raise ValueError(f"bad deadline value {raw!r}") from None
        if not (math.isfinite(deadline) and deadline > 0):
            raise ValueError(f"deadline must be finite and > 0, got {deadline!r}")
        return min(deadline, MAX_DEADLINE_S)

    def _get_job(self, parts, query) -> None:
        job = self.scheduler.job(parts[1])
        if job is None:
            self._send_json(404, {"error": f"unknown job {parts[1]!r}"})
            return
        wait = self._wait_seconds(query)
        if wait:
            job.wait(wait)
        if len(parts) == 2:
            self._send_json(200, {"job": job.to_dict()})
        elif parts[2:] == ["result"]:
            if job.state == "error":
                self._send_json(500, {"error": job.error})
            elif not job.done:
                status = 504 if wait else 404
                self._send_json(
                    status,
                    {"error": f"job {job.id} still {job.state}"},
                )
            else:
                self._send_json(200, job.record)
        else:
            self._send_json(404, {"error": f"no route {self.path!r}"})


def _supervise_restarts() -> int:
    """The supervisor's restart count for this service (0 when not
    supervised) — injected via the environment at child spawn."""
    try:
        return int(os.environ.get(RESTARTS_ENV, "0"))
    except ValueError:
        return 0


def _scenario_listing():
    listing = []
    for scenario in all_scenarios():
        cfg = scenario.configure()
        listing.append(
            {
                "name": scenario.name,
                "summary": scenario.summary,
                "defaults": asdict(cfg),
                "grid": {
                    axis: list(values)
                    for axis, values in scenario.default_grid().items()
                },
            }
        )
    return listing


class ServiceServer(ThreadingHTTPServer):
    """The HTTP server + its scheduler, wired for clean shutdown."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        scheduler: JobScheduler,
        verbose: bool = False,
        rate_limiter: Optional[RateLimiter] = None,
    ):
        super().__init__(address, ServiceHandler)
        self.scheduler = scheduler
        self.verbose = verbose
        self.rate_limiter = rate_limiter
        registry = obs_metrics.get_registry()
        #: ``requests / connections`` is how many requests a connection
        #: carries on average: connection reuse as a scrapeable number.
        self.requests = registry.counter(
            "server.requests", "HTTP responses sent"
        )
        self.connections = registry.counter(
            "server.connections", "TCP connections accepted"
        )
        self._open: set = set()
        self._open_lock = threading.Lock()
        registry.register_collector(
            "server",
            lambda: {
                f"server.{key}": value
                for key, value in self.stats_dict().items()
            },
        )
        #: WAL recovery summary from :func:`make_server` (None when the
        #: server runs without a ``--state-dir``).
        self.recovery: Optional[Dict] = None
        self._date = (0, "")
        # The serve loop sleeps in select() on the listener and on this
        # pair until a connection or a wake byte arrives: a stop costs
        # one byte, not the stdlib's 0.5 s poll.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._stop = False
        self._stopped = threading.Event()

    def http_date(self) -> str:
        """The ``Date:`` header's value, formatted once per second."""
        now = int(time.time())
        second, text = self._date  # one read: handler threads race here
        if second != now:
            text = formatdate(now, usegmt=True)
            self._date = (now, text)
        return text

    def stats_dict(self) -> Dict:
        """The front end's own numbers: the ``server`` section of
        ``/stats`` and, prefixed ``server.``, its registry collector."""
        limiter = self.rate_limiter
        return {
            "requests": int(self.requests.value),
            "connections": int(self.connections.value),
            "open_connections": len(self._open),
            "token_bucket_rejections": (
                limiter.rejections if limiter is not None else 0
            ),
        }

    def process_request(self, request, client_address) -> None:
        if obs_metrics.METRICS is not None:
            self.connections.inc()
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Close the listener *and* every kept-alive connection: a
        closed server must not keep answering on sockets its clients
        still hold (their next request fails over to a reconnect)."""
        super().server_close()
        self._wake_r.close()
        self._wake_w.close()
        with self._open_lock:
            live = list(self._open)
        for request in live:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer closed it first

    def handle_error(self, request, client_address) -> None:
        error = sys.exc_info()[1]
        if isinstance(error, ConnectionError):
            # The peer (or server_close) hung up under a handler: the
            # end of a connection, not a server fault worth a traceback.
            _log.debug(
                "server.connection_lost",
                client=client_address[0],
                error=str(error),
            )
        else:
            super().handle_error(request, client_address)

    def serve_forever(self) -> None:
        """Handle connections until :meth:`shutdown` or
        :meth:`request_shutdown`; idle, the loop blocks without a
        timeout."""
        self._stopped.clear()
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_r, selectors.EVENT_READ)
                while not self._stop:
                    for key, _ in selector.select():
                        if key.fileobj is self._wake_r:
                            self._wake_r.recv(4096)
                        elif not self._stop:
                            self._handle_request_noblock()
        finally:
            self._stop = False
            self._stopped.set()

    def _wake(self) -> None:
        self._stop = True
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # a full pair is waking the loop; a closed one has none

    def shutdown(self) -> None:
        """Stop the serve loop and wait until it has exited."""
        self._wake()
        self._stopped.wait()

    def request_shutdown(self) -> None:
        """Ask the serve loop to exit, without waiting for it (from a
        handler thread or a signal handler)."""
        # New submissions get a clean 503 while in-flight jobs finish;
        # then the serve loop exits.
        self.scheduler.drain()
        self._wake()


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    store_path: Optional[str] = None,
    max_entries: Optional[int] = None,
    jobs: int = 1,
    verbose: bool = False,
    max_queue: Optional[int] = None,
    deadline_s: Optional[float] = None,
    rate_limit: Optional[float] = None,
    rate_burst: int = 20,
    state_dir: Optional[str] = None,
) -> ServiceServer:
    """A ready-to-run service (scheduler started by :func:`serve_forever`
    or by the caller).  ``port=0`` binds an ephemeral port — read the
    actual one from ``server.server_address``.

    ``state_dir`` is the durable-service mode: the directory holds the
    result store (``store/``) *and* the admission WAL
    (``admission.wal``), the WAL is replayed before the socket serves a
    single request (outstanding jobs re-enqueue under their original
    ids), and the recovery summary lands on ``server.recovery``.
    Mutually exclusive with ``store_path`` — the state dir contains the
    store.
    """
    # The service is the telemetry plane's natural home: arm the
    # process registry so engine-side counters record.  Per-run cost is
    # one coarse aggregation per simulation (the ``telemetry`` row of
    # tests/test_call_budget.py pins its calls).
    obs_metrics.enable_metrics()
    wal = None
    if state_dir:
        if store_path:
            raise ValueError(
                "state_dir and store_path are mutually exclusive "
                "(the state dir contains the store)"
            )
        state = Path(state_dir)
        store: Optional[ResultStore] = ResultStore(
            state / STORE_NAME, max_entries=max_entries
        )
        wal = AdmissionWAL(state / WAL_NAME)
    else:
        store = (
            ResultStore(store_path, max_entries=max_entries)
            if store_path
            else None
        )
    scheduler = JobScheduler(
        store=store,
        jobs=jobs,
        max_queue=max_queue,
        deadline_s=deadline_s,
        wal=wal,
    )
    # Replay before the socket serves anything: the listener binds in
    # the constructor below, but no request is processed until
    # serve_forever — so recovered jobs are queued (original ids
    # resolvable) before the first GET can ask for them.
    recovery = scheduler.recover() if wal is not None else None
    limiter = (
        RateLimiter(rate_limit, rate_burst) if rate_limit else None
    )
    server = ServiceServer(
        (host, port), scheduler, verbose=verbose, rate_limiter=limiter
    )
    server.recovery = recovery
    return server


def finite(text: str) -> float:
    """The ``type`` of a float flag: a number of at least 0 and below
    infinity (NaN is neither)."""
    if not 0 <= (value := float(text)) < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="equeue-serve",
        description="Serve simulation requests over HTTP with a "
        "persistent content-addressed result store (see docs/serving.md).",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=8421,
        help="TCP port; 0 binds an ephemeral port and prints it "
        "(default 8421)",
    )
    parser.add_argument(
        "--store", default="",
        help="result-store directory (persistent across restarts); "
        "empty = in-memory service, nothing persists",
    )
    parser.add_argument(
        "--state-dir", default="",
        help="durable service state directory: holds the result store "
        "AND the write-ahead admission log; on startup the log is "
        "replayed so jobs outstanding at a crash re-enqueue under "
        "their original ids (mutually exclusive with --store)",
    )
    parser.add_argument(
        "--supervise", action="store_true",
        help="run the server as a supervised child process: abnormal "
        "deaths restart it (exponential backoff, crash-loop budget), "
        "SIGTERM passes through for a graceful drain",
    )
    parser.add_argument(
        "--max-restarts", type=int, default=5,
        help="give up after this many consecutive short-lived children "
        "(crash-loop detection; default 5)",
    )
    parser.add_argument(
        "--restart-backoff", type=finite, default=0.2,
        help="initial restart backoff in seconds, doubling per "
        "consecutive fast death (default 0.2)",
    )
    parser.add_argument(
        "--min-uptime", type=finite, default=5.0,
        help="a child alive at least this long resets the backoff and "
        "the crash-loop counter (default 5)",
    )
    parser.add_argument(
        "--fsck", action="store_true",
        help="check the --state-dir offline (WAL integrity, store blob "
        "sha256 sweep, leftover report) and exit; non-zero on "
        "corruption",
    )
    parser.add_argument(
        "--max-entries", type=int, default=0,
        help="LRU-evict the store beyond this many records "
        "(0 = unbounded)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes per drained batch (default 1: execute "
        "batches on the scheduler thread)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=0,
        help="reject submissions (503) beyond this many queued jobs "
        "(0 = unbounded)",
    )
    parser.add_argument(
        "--deadline", type=finite, default=0.0,
        help="default per-job wall-clock deadline in seconds; overdue "
        "jobs fail cleanly, the worker survives (0 = no deadline)",
    )
    parser.add_argument(
        "--rate-limit", type=finite, default=0.0,
        help="per-client submissions/second; beyond burst capacity "
        "submissions get 429 + Retry-After (0 = unlimited)",
    )
    parser.add_argument(
        "--rate-burst", type=int, default=20,
        help="token-bucket burst capacity per client (default 20)",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="log each request to stderr",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit structured logs as JSONL (one JSON object per line) "
        "instead of human-readable key=value lines",
    )
    parser.add_argument(
        "--log-level", default="info", choices=list(obs_logs.LEVELS),
        help="minimum structured-log level (default info)",
    )
    args = parser.parse_args(argv)
    obs_logs.configure_logging(
        level="debug" if args.verbose else args.log_level,
        json_mode=args.log_json,
    )
    if args.port < 0:
        parser.error(f"--port must be >= 0, got {args.port}")
    if args.max_entries < 0:
        parser.error(f"--max-entries must be >= 0, got {args.max_entries}")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.max_queue < 0:
        parser.error(f"--max-queue must be >= 0, got {args.max_queue}")
    if args.rate_burst < 1:
        parser.error(f"--rate-burst must be >= 1, got {args.rate_burst}")
    if args.store and args.state_dir:
        parser.error(
            "--store and --state-dir are mutually exclusive "
            "(the state dir contains the store)"
        )
    if args.fsck:
        if not args.state_dir:
            parser.error("--fsck requires --state-dir")
        return run_fsck(args.state_dir)
    if args.max_restarts < 1:
        parser.error(f"--max-restarts must be >= 1, got {args.max_restarts}")

    if args.supervise:
        return Supervisor(
            _child_argv(args),
            max_restarts=args.max_restarts,
            backoff_s=args.restart_backoff,
            min_uptime_s=args.min_uptime,
        ).run()

    server = make_server(
        host=args.host,
        port=args.port,
        store_path=args.store or None,
        max_entries=args.max_entries or None,
        jobs=args.jobs,
        verbose=args.verbose,
        max_queue=args.max_queue or None,
        deadline_s=args.deadline or None,
        rate_limit=args.rate_limit or None,
        rate_burst=args.rate_burst,
        state_dir=args.state_dir or None,
    )
    host, port = server.server_address[:2]
    if args.state_dir:
        store_note = f"{args.state_dir} (durable: WAL + store)"
    elif args.store:
        store_note = args.store
    else:
        store_note = "(in-memory, no store)"
    print(
        f"equeue-serve listening on http://{host}:{port} "
        f"store={store_note}",
        flush=True,
    )
    if server.recovery is not None:
        summary = server.recovery
        _log.info(
            "server.recovery",
            requeued=summary["requeued"],
            store_hits=summary["store_hits"],
            failed=summary["failed"],
            terminal=summary["terminal"],
            lines_dropped=summary["lines_dropped"],
        )
    # SIGTERM = graceful drain: stop admitting, finish in-flight work,
    # exit 0.  This is what the supervisor forwards on shutdown, and
    # what distinguishes an *intentional* stop (clean exit, no restart)
    # from a crash (restart + WAL replay).
    signal.signal(
        signal.SIGTERM, lambda signum, frame: server.request_shutdown()
    )
    server.scheduler.start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.scheduler.stop()
        server.server_close()
    print("equeue-serve: stopped cleanly", flush=True)
    return 0


def _child_argv(args) -> list:
    """The supervised child's command line: this server, same flags,
    minus the supervision flags (the child must not supervise too)."""
    argv = [sys.executable, "-m", "repro.service.server"]
    argv += ["--host", args.host, "--port", str(args.port)]
    if args.store:
        argv += ["--store", args.store]
    if args.state_dir:
        argv += ["--state-dir", args.state_dir]
    if args.max_entries:
        argv += ["--max-entries", str(args.max_entries)]
    if args.jobs != 1:
        argv += ["--jobs", str(args.jobs)]
    if args.max_queue:
        argv += ["--max-queue", str(args.max_queue)]
    if args.deadline:
        argv += ["--deadline", str(args.deadline)]
    if args.rate_limit:
        argv += ["--rate-limit", str(args.rate_limit)]
    if args.rate_burst != 20:
        argv += ["--rate-burst", str(args.rate_burst)]
    if args.verbose:
        argv += ["--verbose"]
    if args.log_json:
        argv += ["--log-json"]
    if args.log_level != "info":
        argv += ["--log-level", args.log_level]
    return argv


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
