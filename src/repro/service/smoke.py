"""End-to-end service smoke: serve, request twice, prove the store hit.

``python -m repro.service.smoke`` (CI's service job) starts a real
``equeue-serve`` subprocess on an ephemeral port with a temporary store,
submits the same scenario request twice through
:class:`~repro.service.client.ServiceClient`, and asserts

* the first response was simulated (``source == "simulated"``),
* the second was served from the persistent store (``source ==
  "store"``) with zero additional engine or compile work,
* both records are bit-identical,
* the client's connection was reused (``/stats`` reports more requests
  than accepted connections),
* the server shuts down cleanly on ``POST /shutdown`` (exit code 0).
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import time
from pathlib import Path

from .client import ServiceClient

#: The smoke request: small enough to simulate in well under a second,
#: non-default enough to exercise the config/spec plumbing.
SCENARIO = "gemm:m=4,k=8,n=4,tile_k=4"


def _await_banner(process: subprocess.Popen, timeout_s: float = 60.0) -> str:
    """Read the server's listen banner; returns the base URL.

    ``select``-paced so a server that hangs *before* printing anything
    (stuck import, bind hang) fails this step at the deadline with a
    diagnostic instead of blocking CI in ``readline`` forever.
    """
    import select

    deadline = time.monotonic() + timeout_s
    assert process.stdout is not None
    while time.monotonic() < deadline:
        ready, _, _ = select.select([process.stdout], [], [], 1.0)
        if not ready:
            if process.poll() is not None:
                break  # exited silently; report below
            continue
        line = process.stdout.readline()
        if not line:
            raise SystemExit(
                "equeue-serve exited before its listen banner: "
                + (process.stderr.read() if process.stderr else "")
            )
        if "listening on" in line:
            return line.split()[3]  # "equeue-serve listening on <url> ..."
    process.kill()
    raise SystemExit("timed out waiting for the equeue-serve banner")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="equeue-smoke-") as tmp:
        store = Path(tmp) / "store"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.tools.equeue_serve",
                "--port", "0", "--store", str(store),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        shut_down = False
        try:
            client = ServiceClient(_await_banner(process))
            assert client.healthz()["status"] == "ok"

            cold = client.run(SCENARIO, wait=120.0)
            if cold["source"] != "simulated":
                raise SystemExit(
                    f"first request not simulated: {cold['source']!r}"
                )
            warm = client.run(SCENARIO, wait=120.0)
            if warm["source"] != "store":
                raise SystemExit(
                    f"second request not a store hit: {warm['source']!r}"
                )
            if warm["record"] != cold["record"]:
                raise SystemExit("warm record differs from cold record")
            stats = client.stats()
            if stats["store_hits"] != 1 or stats["simulated"] != 1:
                raise SystemExit(f"unexpected service counters: {stats}")
            front = stats["server"]
            if front["requests"] <= front["connections"]:
                # Every call above rode one kept-alive connection.
                raise SystemExit(f"connections were not reused: {front}")
            checked = warm["record"]["checked"]
            print(
                "service smoke: cold simulated "
                f"({cold['record']['cycles']} cycles, oracle {checked}), "
                "warm served from store, records identical"
            )
            client.shutdown()
            shut_down = True
        finally:
            if not shut_down:
                # A check failed before the clean shutdown: kill the
                # server immediately so the original diagnostic
                # propagates (no 30 s stall, no masking exit).
                process.kill()
            try:
                code = process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                code = None
        if code is None:
            raise SystemExit("equeue-serve did not shut down cleanly")
        if code != 0:
            raise SystemExit(f"equeue-serve exited {code}")
    print("service smoke: OK (clean shutdown)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
