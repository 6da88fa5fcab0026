"""A live HTTP server in the test process: ``serving(server)`` runs its
loop on a thread for a ``with`` block (yielding the thread), then stops
the loop, a :class:`ServiceServer`'s scheduler and WAL, the sockets and
the thread.  A stdlib server notices ``shutdown()`` only at its next
poll, so it is served with a short one.  ``live_server(**options)``
serves :func:`make_server`, its worker started unless told otherwise.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from functools import partial

from repro.service.server import ServiceServer, make_server

STDLIB_POLL_S = 0.01


@contextmanager
def serving(server):
    ours = isinstance(server, ServiceServer)
    server.daemon_threads = True
    loop = server.serve_forever if ours else partial(
        server.serve_forever, STDLIB_POLL_S
    )
    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    try:
        yield thread
    finally:
        server.shutdown()
        if ours:
            server.scheduler.stop(timeout=30)  # past it, its jobs fail
            if server.scheduler.wal is not None:
                server.scheduler.wal.close()
        server.server_close()
        thread.join(timeout=30)
        assert not thread.is_alive()


@contextmanager
def live_server(start_worker=True, **options):
    server = make_server(**options)
    if start_worker:
        server.scheduler.start()
    with serving(server):
        yield server


def url_of(server) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def wait_until(predicate, timeout: float = 10.0) -> bool:
    """Bounded poll, for bookkeeping that trails its cause by a thread
    switch."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)
    return True
