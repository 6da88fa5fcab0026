"""End-to-end service smoke: serve, request twice, prove the store hit
and that the telemetry plane saw it.

``python -m repro.service.smoke`` (CI's tier-1 smoke) starts a real
``equeue-serve --log-json`` subprocess on an ephemeral port with a
temporary store, submits the same scenario request twice through
:class:`~repro.service.client.ServiceClient`, and asserts

* the first response was simulated (``source == "simulated"``), the
  second served from the persistent store (``source == "store"``), and
  both records are bit-identical,
* every job carried a ``request_id`` and a per-request ``timings``
  block,
* ``GET /metrics`` is valid Prometheus text exposition with one engine
  run, non-zero engine cycles and server requests, and exactly one
  store miss (cold) and one hit (warm),
* ``/stats`` carries the versioned schema, its flattened ``metrics``
  mirror agrees with the scrape on the store counters, and it counts
  one store hit and one simulation,
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
from urllib.request import urlopen

from ..obs.metrics import parse_metrics
from .client import ServiceClient
from .scheduler import STATS_SCHEMA

#: The smoke request: small enough to simulate in well under a second,
#: non-default enough to exercise the config/spec plumbing.
SCENARIO = "gemm:m=4,k=8,n=4,tile_k=4"

#: ``/metrics`` samples the two requests must leave behind (``None``:
#: non-zero, the count varies).
EXPECTED_SAMPLES = {
    "equeue_engine_runs": 1.0,
    "equeue_store_misses": 1.0,
    "equeue_store_hits": 1.0,
    "equeue_program_cache_programs_evicted": 0.0,
    "equeue_server_requests": None,
    "equeue_engine_cycles": None,
}


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


def _check_jobs(cold, warm) -> None:
    if cold["source"] != "simulated" or warm["source"] != "store":
        raise SystemExit(
            f"unexpected sources: cold {cold['source']!r}, "
            f"warm {warm['source']!r}"
        )
    if warm["record"] != cold["record"]:
        raise SystemExit("warm record differs from cold record")
    for label, job in (("cold", cold), ("warm", warm)):
        if not str(job.get("request_id", "")).startswith("req-"):
            raise SystemExit(f"{label} job carried no request id: {job!r}")
        if "total_s" not in job.get("timings", {}):
            raise SystemExit(f"{label} job carried no timings: {job!r}")


def _check_metrics(base_url: str) -> dict:
    with urlopen(base_url + "/metrics", timeout=30) as response:
        content_type = response.headers.get("Content-Type", "")
        body = response.read().decode("utf-8")
    if "version=0.0.4" not in content_type:
        raise SystemExit(f"unexpected /metrics content type: {content_type!r}")
    try:
        samples = parse_metrics(body)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    for name, expected in EXPECTED_SAMPLES.items():
        value = samples.get(name)
        if value is None:
            raise SystemExit(f"/metrics is missing {name}")
        if expected is not None and value != expected:
            raise SystemExit(f"{name} = {value}, expected {expected}")
        if expected is None and value <= 0:
            raise SystemExit(f"{name} = {value}, expected > 0")
    return samples


def _check_stats(stats: dict, samples: dict) -> None:
    if stats.get("schema") != STATS_SCHEMA:
        raise SystemExit(f"unexpected /stats schema: {stats.get('schema')!r}")
    for dotted, prom in (
        ("store.hits", "equeue_store_hits"),
        ("store.misses", "equeue_store_misses"),
    ):
        if stats["metrics"].get(dotted) != samples[prom]:
            raise SystemExit(
                f"/stats metrics[{dotted!r}] = {stats['metrics'].get(dotted)}"
                f" disagrees with /metrics {prom} = {samples[prom]}"
            )
    if stats["store_hits"] != 1 or stats["simulated"] != 1:
        raise SystemExit(f"unexpected service counters: {stats}")
    front = stats["server"]
    if front["requests"] <= front["connections"]:
        # Every client call rode one kept-alive connection.
        raise SystemExit(f"connections were not reused: {front}")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="equeue-smoke-") as tmp:
        store = Path(tmp) / "store"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.tools.equeue_serve",
                "--port", "0", "--store", str(store), "--log-json",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        shut_down = False
        try:
            base_url = _await_banner(process)
            client = ServiceClient(base_url)
            assert client.healthz()["status"] == "ok"
            cold = client.run(SCENARIO, wait=120.0)
            warm = client.run(SCENARIO, wait=120.0)
            _check_jobs(cold, warm)
            samples = _check_metrics(base_url)
            _check_stats(client.stats(), samples)
            print(
                "service smoke: cold simulated "
                f"({cold['record']['cycles']} cycles, oracle "
                f"{warm['record']['checked']}), warm served from store, "
                f"records identical; /metrics parsed ({len(samples)} "
                f"samples), request ids {cold['request_id']} / "
                f"{warm['request_id']}"
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
