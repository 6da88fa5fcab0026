"""The chaos campaign: drawn fault plans against a live service.

The service's robustness contract is **never wrong, only unavailable**:
under injected engine crashes, store corruption, I/O errors, stalls, and
worker deaths, every *completed* response must be bit-identical to the
fault-free cold reference, every error must be a clean JSON message (no
tracebacks over the wire), and the server must be alive — and still
correct — after every plan.

Each plan is drawn by ``tests.faults.chaos_plans`` with derandomized
hypothesis settings, so the whole campaign replays exactly; each (site,
action) pair leads the plans of its own property.  A failing plan
shrinks to its minimal fault set; hypothesis replays that one last, so
the plan (and its fired log) left in ``$EQUEUE_CHAOS_DIR`` for CI to
upload is the shrunk one.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import scenario_grid
from repro.scenarios.sweep import run_scenario_sweep
from repro.service import JobRequest, JobScheduler, ServiceClient, ServiceError
from tests.differential import canonical
from tests.faults import CHAOS_PAIRS, FaultPlan, chaos_plans, derandomized, injected
from tests.serving import live_server, url_of

#: The deterministic request mix every plan runs (spec, config, seed) —
#: fast scenarios only, so a 24-plan campaign stays tier-1 viable.
REQUESTS = [
    ("gemm", None, 0),
    ("gemm", None, 1),
    ("gemm", None, 2),
    ("pipeline", None, 0),
    ("pipeline", None, 1),
    ("mesh", {"rows": 2, "cols": 2}, 0),
]

#: Contexts a generated poison fault may target (``job.evaluate``'s
#: context string is ``"<scenario>:seed=<seed>"``).
POISON_CONTEXTS = sorted(
    {f"{spec.split(':')[0]}:seed={seed}" for spec, _, seed in REQUESTS}
)

#: Injected stalls exceed the service deadline, so every stall becomes a
#: clean deadline failure instead of a slow pass.
DEADLINE_S = 0.2
SLOW_DELAY_S = 0.35


@pytest.fixture(scope="module")
def references():
    """Fault-free reference records, canonical-JSON keyed by request —
    computed once through a clean scheduler and anchored against the
    ``run_scenario_sweep(jobs=1)`` cold path."""
    scheduler = JobScheduler(store=None)
    jobs = {}
    for spec, config, seed in REQUESTS:
        request = JobRequest.make(spec, config=config, seed=seed)
        jobs[(spec, seed)] = scheduler.submit(request)
    scheduler.run_pending()
    lines = {}
    for key, job in jobs.items():
        lines[key] = canonical(job.result())
    # Anchor: the service record IS the cold sweep result, bit for bit
    # where the sweep reports (cycles, summary, checked).
    [cold] = run_scenario_sweep(
        scenario_grid("gemm", axes={}), jobs=1, seed=0, check=True
    )
    anchored = json.loads(lines[("gemm", 0)])
    assert anchored["cycles"] == cold.cycles
    assert anchored["summary"]["scheduler_events"] == cold.scheduler_events
    assert anchored["checked"] == cold.checked
    return lines


@contextmanager
def chaos_server(tmp_path):
    with live_server(
        store_path=str(tmp_path / "store"), max_queue=64, deadline_s=DEADLINE_S
    ) as server:
        client = ServiceClient(url_of(server), timeout=30.0, retries=3, backoff_s=0.05)
        yield client, server


def _dump_failing_plan(plan, error):
    """Persist a failing plan (and its fired log) for CI artifact upload."""
    directory = os.environ.get("EQUEUE_CHAOS_DIR")
    if not directory:
        return
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        **plan.to_dict(),
        "fired": [list(entry) for entry in plan.fired],
        "failure": str(error),
    }
    (out / f"{plan.name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
    )


def _assert_clean(message):
    assert message, "errors must carry a message"
    assert "Traceback" not in message, f"traceback over the wire: {message}"


@pytest.mark.parametrize("pair", CHAOS_PAIRS, ids="-".join)
@derandomized(2)  # x 12 pairs = 24 plans
@given(data=st.data())
def test_drawn_fault_plan_never_wrong_only_unavailable(pair, data, references):
    _check_plan(data.draw(_plans_led_by(pair)), references)


@pytest.mark.slow
@pytest.mark.parametrize("pair", CHAOS_PAIRS, ids="-".join)
@derandomized(9)  # x 12 pairs = 108 plans
@given(data=st.data())
def test_drawn_fault_plan_never_wrong_only_unavailable_deeply(
    pair, data, references
):
    _check_plan(data.draw(_plans_led_by(pair)), references)


def _plans_led_by(pair):
    return chaos_plans(POISON_CONTEXTS, slow_delay_s=SLOW_DELAY_S, first=pair)


def _check_plan(plan, references):
    try:
        with tempfile.TemporaryDirectory() as tmp:
            _run_plan(plan, Path(tmp), references)
    except BaseException as error:
        _dump_failing_plan(plan, error)
        raise


def _run_plan(plan, tmp_path, references):
    completed = 0
    with chaos_server(tmp_path) as (client, server):
        # A stall is the watchdog pass at the moment it would end: the
        # deadline failure it causes, without waiting out its delay.
        plan.stall = lambda delay_s: server.scheduler._watchdog_tick(
            time.monotonic() + delay_s
        )
        with injected(plan):
            # Two passes over the mix: the second pass rides coalescing
            # and warm store reads straight through the injected faults.
            for attempt in range(2):
                for spec, config, seed in REQUESTS:
                    try:
                        job = client.run(
                            spec, config=config, seed=seed, wait=20.0
                        )
                    except ServiceError as error:
                        _assert_clean(str(error))
                        continue
                    assert job["state"] == "done"
                    line = canonical(job["record"])
                    assert line == references[(spec.split(":")[0], seed)], (
                        f"WRONG RESPONSE for {spec} seed={seed} "
                        f"(attempt {attempt})"
                    )
                    completed += 1
        # Faults disarmed: the survivor must be alive AND still correct.
        health = client.healthz()
        assert health["status"] in ("ok", "degraded")
        if health["last_error"] is not None:
            # Internal diagnostics may carry tracebacks; the wire other
            # than this operator surface never does.
            assert "injected" in health["last_error"] or health["last_error"]
        job = client.run("gemm", seed=0, wait=30.0)
        assert canonical(job["record"]) == references[("gemm", 0)]
        stats = client.stats()
        assert stats["store"]["quarantined"] >= 0  # counters intact
    assert completed >= 1 or plan.fired, (
        "a plan that never fired must complete every request"
    )


def test_overload_degrades_to_clean_429_503_only(tmp_path, references):
    """A hammered, tightly-bounded server: every response is either a
    correct completion or a clean 429/503 — nothing else, nothing wrong."""
    outcomes = {"done": 0, 429: 0, 503: 0}
    with live_server(
        store_path=str(tmp_path / "store"), max_queue=2, rate_limit=50.0, rate_burst=4
    ) as server:
        client = ServiceClient(url_of(server), timeout=30.0, retries=1)
        for burst in range(8):
            for spec, config, seed in REQUESTS:
                try:
                    job = client.submit(
                        spec, config=config, seed=seed, wait=5.0
                    )
                except ServiceError as error:
                    _assert_clean(str(error))
                    assert error.status in (429, 503), (
                        f"overload must be 429/503, got {error.status}: "
                        f"{error}"
                    )
                    outcomes[error.status] += 1
                    continue
                if job["state"] == "done":
                    line = canonical(job["record"])
                    assert line == references[(spec.split(":")[0], seed)]
                    outcomes["done"] += 1
        assert outcomes["done"] >= 1, "some requests must get through"
        assert outcomes[429] + outcomes[503] >= 1, (
            f"8x the mix against queue=2/burst=4 must overload: {outcomes}"
        )
        assert client.healthz()["status"] == "ok"


@settings(max_examples=10, deadline=None)
@given(plan=chaos_plans(POISON_CONTEXTS))
def test_failing_plan_dump_round_trips(plan):
    """The CI artifact is a replayable plan: dump, reload, same plan."""
    try:
        plan.fire("store.get", context="k" * 64, payload="text")
    except OSError:
        pass  # a drawn store.get io-error: fired and logged all the same
    with tempfile.TemporaryDirectory() as tmp:
        with pytest.MonkeyPatch.context() as env:
            env.setenv("EQUEUE_CHAOS_DIR", tmp)
            _dump_failing_plan(plan, AssertionError("wrong response"))
        [artifact] = Path(tmp).glob("*.json")
        payload = json.loads(artifact.read_text(encoding="utf-8"))
    assert payload["failure"] == "wrong response"
    assert payload["fired"] == [list(entry) for entry in plan.fired]
    assert FaultPlan.from_dict(payload).to_dict() == plan.to_dict()
