"""The thin ``equeue-serve`` client (a socket, no dependencies).

Tests, benchmarks, and the CI smoke all drive the service through this
class, so the wire format is exercised end to end everywhere — nothing
talks to the scheduler behind the API's back.

Connections are persistent: a :class:`ServiceClient` keeps the sockets
it opened in an idle pool and reuses them, so a client pays the TCP
handshake (and the server a thread spawn) once, not per request (see
``docs/serving.md``, "Connections").  It talks to ``base_url``
directly; the ``http_proxy``-style environment variables are not
consulted.

It speaks the HTTP/1.1 subset the service answers with, by hand: a
request is one ``sendall`` (head and JSON body together), and of a
response it reads the status line, ``Content-Length`` and ``Connection``
— an interim ``100 Continue`` is skipped, a body without a length runs
to the end of the connection, a ``Transfer-Encoding`` is refused.

Retry semantics (see ``docs/serving.md``, "Failure modes & retry
semantics"): overload answers (429, 503) and transport failures are
retried with exponential backoff plus jitter — submissions are
idempotent (content-addressed), so a retried POST can never run a
simulation twice.  A 504 long-poll expiry means *still working, ask
again*; :meth:`result` resumes polling until its wait budget runs out.
"""

from __future__ import annotations

import json
import random
import socket
import ssl
import time
from collections import deque
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple
from urllib.parse import urlsplit

from ..obs import logs as obs_logs

_log = obs_logs.get_logger("service.client")

#: HTTP statuses that mean "try again later", not "you are wrong".
RETRYABLE_STATUSES = frozenset({429, 503})


class ServiceError(RuntimeError):
    """An error response (or transport failure) from the service."""

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        retry_after: Optional[float] = None,
    ):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


#: Ceiling on a response head (the server's are ~250 bytes).
_MAX_HEAD_BYTES = 1 << 20


class _Response(NamedTuple):
    """What the client acts on in a response head."""

    status: int
    reason: str
    will_close: bool


def _read_response(sock: socket.socket) -> Tuple[_Response, bytes]:
    """Read one response off ``sock``: its head, parsed, and its body.

    ``ConnectionResetError`` when the peer closed before sending a byte
    (what a stale pooled socket looks like); any other way a response
    can fall short or be malformed is a :class:`ServiceError` without a
    status, i.e. a transport failure the caller may retry.
    """
    buffer = b""
    while True:
        while (end := buffer.find(b"\r\n\r\n")) < 0:
            if len(buffer) > _MAX_HEAD_BYTES:
                raise ServiceError("response head too large")
            chunk = sock.recv(65536)
            if not chunk:
                if not buffer:
                    raise ConnectionResetError("connection closed by the server")
                raise ServiceError("connection closed inside a response head")
            buffer += chunk
        lines = buffer[:end].decode("latin-1").split("\r\n")
        buffer = buffer[end + 4:]
        version, _, rest = lines[0].partition(" ")
        code, _, reason = rest.partition(" ")
        if not version.startswith("HTTP/1.") or not code.isdigit():
            raise ServiceError(f"malformed status line {lines[0]!r}")
        status = int(code)
        if status >= 200:  # 1xx: an interim response, the real one follows
            break
    length = None
    will_close = version == "HTTP/1.0"
    for line in lines[1:]:
        name, _, value = line.partition(":")
        name = name.lower()
        if name == "content-length":
            value = value.strip()
            if not (value.isascii() and value.isdigit()):
                raise ServiceError(f"malformed Content-Length {value!r}")
            length = int(value)
        elif name == "connection":
            token = value.strip().lower()
            if token in ("close", "keep-alive"):
                will_close = token == "close"
        elif name == "transfer-encoding":
            raise ServiceError("Transfer-Encoding responses are not supported")
    if length is None:
        will_close = True
    while length is None or len(buffer) < length:
        chunk = sock.recv(65536)
        if not chunk:
            if length is None:
                break
            raise ServiceError(
                f"connection closed {length - len(buffer)} bytes short of "
                "the response body"
            )
        buffer += chunk
    return _Response(status, reason, will_close), buffer


class ServiceClient:
    """A connection to one ``equeue-serve`` instance.

    ``base_url`` like ``http://127.0.0.1:8421``; ``timeout`` is the
    socket timeout for each round trip (long-polls add their ``wait``
    on top).  ``retries`` round trips are attempted per call: overload
    responses (429/503) and transport errors back off exponentially
    from ``backoff_s`` with jitter (capped at ``backoff_max_s``),
    honouring the server's ``retry_after`` hint when one arrives.
    ``retries=1`` disables retrying.

    One instance may be shared across threads: each call takes a
    connection out of the idle pool (or opens one) and puts it back
    once the response is read, so the pool holds at most as many
    sockets as there were concurrent calls.  :meth:`close` (or leaving
    a ``with`` block) closes the pooled sockets.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 3,
        backoff_s: float = 0.1,
        backoff_max_s: float = 5.0,
        log_level: Optional[str] = None,
        log_json: bool = False,
    ):
        self.base_url = base_url.rstrip("/")
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(
                f"base_url must be http(s)://host[:port], got {base_url!r}"
            )
        #: ``https``: the same code over a TLS-wrapped socket, verified
        #: against the system's trust store.
        self._tls = (
            ssl.create_default_context() if url.scheme == "https" else None
        )
        self._host = url.hostname
        self._port = url.port or (443 if self._tls else 80)
        self._prefix = url.path
        self._host_header = url.netloc.rpartition("@")[2]
        #: Idle keep-alive connections, most recently used last.
        self._idle: Deque[socket.socket] = deque()
        self.timeout = timeout
        self.retries = max(1, int(retries))
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self._rng = random.Random()
        # The client-side half of the --log-json/--log-level switches:
        # passing either reconfigures the process-wide structured
        # logger (embedders that already configured logging omit both).
        if log_level is not None or log_json:
            obs_logs.configure_logging(
                level=log_level or "info", json_mode=log_json
            )

    # -- transport -----------------------------------------------------

    def _call(
        self,
        method: str,
        path: str,
        payload: Optional[Dict] = None,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
    ) -> Dict:
        attempts = self.retries if retries is None else max(1, retries)
        last_error: Optional[ServiceError] = None
        for attempt in range(attempts):
            try:
                return self._call_once(method, path, payload, timeout)
            except ServiceError as error:
                retryable = (
                    error.status is None  # transport failure
                    or error.status in RETRYABLE_STATUSES
                )
                if not retryable or attempt == attempts - 1:
                    raise
                last_error = error
                delay = self._backoff(attempt, error.retry_after)
                _log.debug(
                    "client.retry",
                    method=method,
                    path=path,
                    attempt=attempt + 1,
                    attempts=attempts,
                    status=error.status,
                    backoff_s=round(delay, 3),
                    error=str(error),
                )
                time.sleep(delay)
        raise last_error  # pragma: no cover - loop always raises first

    def _backoff(self, attempt: int, retry_after: Optional[float]) -> float:
        delay = min(self.backoff_max_s, self.backoff_s * (2 ** attempt))
        delay *= 0.5 + self._rng.random()  # jitter in [0.5x, 1.5x)
        if retry_after is not None:
            delay = max(delay, min(retry_after, self.backoff_max_s))
        return delay

    def _call_once(
        self,
        method: str,
        path: str,
        payload: Optional[Dict],
        timeout: Optional[float],
    ) -> Dict:
        head = (
            f"{method} {self._prefix}{path} HTTP/1.1\r\n"
            f"Host: {self._host_header}\r\n"
            "Accept: application/json\r\n"
        )
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        request = head.encode("latin-1") + b"\r\n" + body
        timeout = timeout or self.timeout
        try:
            sock, reused = self._idle.pop(), True
            sock.settimeout(timeout)
        except IndexError:
            sock, reused = self._connect(timeout), False
        while True:
            try:
                # One write: two small ones meet Nagle and a delayed ACK.
                sock.sendall(request)
                response, raw = _read_response(sock)
                break
            except ServiceError:
                sock.close()
                raise
            except OSError as error:
                sock.close()
                # Connect failures and a server killed mid response are
                # the same transport blip: one retryable ServiceError.
                # A pooled socket is different: the server may have
                # closed it while it sat idle (idle timeout, restart),
                # which shows as a failure before any response byte.
                # One fresh connection settles whether the server is
                # really gone, without charging the caller's retries.
                # A timeout is a slow server, not a stale socket.
                if not (reused and isinstance(error, ConnectionError)):
                    raise ServiceError(str(error)) from None
                sock, reused = self._connect(timeout), False
        if response.will_close:
            sock.close()
        else:
            self._idle.append(sock)
        if response.status >= 400:
            message, retry_after = self._decode_error(response, raw)
            raise ServiceError(
                message, status=response.status, retry_after=retry_after
            )
        return json.loads(raw)

    def _connect(self, timeout: float) -> socket.socket:
        try:
            sock = socket.create_connection((self._host, self._port), timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._host)
        except OSError as error:
            raise ServiceError(str(error)) from None
        return sock

    @staticmethod
    def _decode_error(response, raw: bytes):
        """Best-effort ``{"error": ...}`` decode of an error body.

        Narrow on purpose: a malformed body falls back to the bare
        status line, but a genuine bug (say, AttributeError in this
        method) must surface, not vanish into a generic message.
        """
        fallback = f"HTTP Error {response.status}: {response.reason}"
        retry_after = None
        try:
            detail = json.loads(raw)
            message = detail.get("error", fallback)
            value = detail.get("retry_after")
            if value is not None:
                retry_after = float(value)
        except ValueError:
            message = fallback
        return message, retry_after

    def close(self) -> None:
        """Close the pooled idle connections.  The client stays usable:
        the next call connects afresh."""
        while True:
            try:
                self._idle.pop().close()
            except IndexError:
                return

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the API -------------------------------------------------------

    def healthz(self) -> Dict:
        return self._call("GET", "/healthz")

    def wait_healthy(self, timeout: float = 30.0, poll_s: float = 0.1) -> Dict:
        """Poll ``/healthz`` until the service answers; the ride-out for
        a supervised restart (connection refused while the child is
        down or rebinding).  Returns the first health payload; raises
        :class:`ServiceError` when ``timeout`` expires first."""
        deadline = time.monotonic() + timeout
        last: Optional[ServiceError] = None
        while True:
            try:
                return self._call("GET", "/healthz", retries=1)
            except ServiceError as error:
                last = error
                if time.monotonic() >= deadline:
                    raise ServiceError(
                        f"service not healthy within {timeout:g}s: {last}"
                    ) from None
                time.sleep(poll_s)

    def stats(self) -> Dict:
        return self._call("GET", "/stats")

    def scenarios(self) -> List[Dict]:
        return self._call("GET", "/scenarios")["scenarios"]

    def submit(
        self,
        scenario: str,
        config: Optional[Dict] = None,
        seed: int = 0,
        options: Optional[Dict] = None,
        check: bool = True,
        wait: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> Dict:
        """Submit a request; returns the job dict (record included once
        done — immediately for store hits, or within ``wait`` seconds)."""
        return self._post(
            "/jobs", scenario, config, seed, options, check, wait, deadline
        )

    def submit_sweep(
        self,
        scenario: str,
        config: Optional[Dict] = None,
        seed: int = 0,
        sample: Optional[int] = None,
        options: Optional[Dict] = None,
        check: bool = True,
        wait: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> Dict:
        """Submit a whole-grid sweep; returns the job dict.

        While the sweep runs, ``job["progress"]`` carries
        ``points_done``/``points_total``; completed points checkpoint
        server-side, so resubmitting an interrupted sweep resumes
        instead of recomputing.
        """
        return self._post(
            "/sweeps", scenario, config, seed, options, check, wait, deadline,
            sample=sample,
        )

    def _post(
        self, path: str, scenario: str, config, seed, options, check, wait,
        deadline, sample: Optional[int] = None,
    ) -> Dict:
        """The one request body both submits send; the job dict back."""
        payload: Dict = {"scenario": scenario, "seed": seed, "check": check}
        if config:
            payload["config"] = config
        if sample is not None:
            payload["sample"] = sample
        if options:
            payload["options"] = options
        if wait is not None:
            payload["wait"] = wait
        if deadline is not None:
            payload["deadline"] = deadline
        response = self._call(
            "POST", path, payload, timeout=self.timeout + (wait or 0.0)
        )
        return response["job"]

    def run_sweep(
        self,
        scenario: str,
        config: Optional[Dict] = None,
        seed: int = 0,
        sample: Optional[int] = None,
        options: Optional[Dict] = None,
        check: bool = True,
        wait: float = 60.0,
    ) -> Dict:
        """Submit a sweep and wait for its aggregate record."""
        return self._ended(self.submit_sweep(
            scenario, config=config, seed=seed, sample=sample,
            options=options, check=check, wait=wait,
        ), wait)

    def job(self, job_id: str, wait: Optional[float] = None) -> Dict:
        path = f"/jobs/{job_id}"
        if wait is not None:
            path += f"?wait={wait}"
        response = self._call(
            "GET", path, timeout=self.timeout + (wait or 0.0)
        )
        return response["job"]

    def result(self, job_id: str, wait: Optional[float] = None) -> Dict:
        """The finished record for a job (long-polls when ``wait``).

        A 504 only means the long-poll window expired while the job was
        still running — not a failure — so polling resumes until the
        total ``wait`` budget is spent, then the last 504 surfaces.
        """
        path = f"/jobs/{job_id}/result"
        if wait is None:
            return self._call("GET", path)
        deadline = time.monotonic() + wait
        while True:
            remaining = deadline - time.monotonic()
            poll = max(0.05, min(wait, remaining))
            try:
                return self._call(
                    "GET",
                    f"{path}?wait={poll}",
                    timeout=self.timeout + poll,
                )
            except ServiceError as error:
                if error.status != 504 or remaining <= 0:
                    raise

    def run(
        self,
        scenario: str,
        config: Optional[Dict] = None,
        seed: int = 0,
        options: Optional[Dict] = None,
        check: bool = True,
        wait: float = 60.0,
    ) -> Dict:
        """Submit and wait: the one-call path benchmarks and tests use.

        Returns the completed job dict (``job["record"]`` is the result
        record, ``job["source"]`` says whether the engine ran).
        """
        return self._ended(self.submit(
            scenario, config=config, seed=seed, options=options,
            check=check, wait=wait,
        ), wait)

    def _ended(self, job: Dict, wait: float) -> Dict:
        """A submitted job once done, waiting up to ``wait`` more for
        it; raises when it failed or is still running."""
        if job["state"] not in ("done", "error"):
            job = self.job(job["id"], wait=wait)
        if job["state"] == "error":
            raise ServiceError(job["error"] or "job failed")
        if job["state"] != "done":
            raise ServiceError(f"job {job['id']} timed out ({job['state']})")
        return job

    def shutdown(self) -> Dict:
        return self._call("POST", "/shutdown", {})
