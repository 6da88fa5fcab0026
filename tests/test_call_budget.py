"""What each layer may cost, as counted calls: a ratchet, not a timing.

Five rows, each in a fresh interpreter (``PYTHONHASHSEED=0``) so no
earlier test's caches change it.  A row does its imports and builds its
inputs first, then counts Python calls (a generator's resumption is
one) and C calls under ``sys.setprofile`` across one measured region:

* ``warm_engine`` — a 4x4 WS conv (n=2, c=2, 8x8, 2x2 filter) over a
  plan cache warmed by three untraced simulations, simulated once more;
* ``cold_text`` — ``parse_module`` of its OS twin's printed text, then
  ``simulate``, in a process that has simulated nothing;
* ``dse_slice`` — one 12-point slice of the §VI-E sweep through
  ``run_sweep(..., use_des=True, jobs=1, compile_cache=True,
  reuse_results=True)``;
* ``service_miss`` — one first-seen request through an in-process
  ``JobScheduler`` over a fresh store: ``submit``, then ``run_pending``
  (a store hit's cost is ``tests/service/test_hit_budget.py``'s);
* ``telemetry`` — ``warm_engine`` with the metrics registry enabled from
  the start.  Its cycles and events equal the off run's, every layer but
  ``obs`` makes the same Python calls, and what ``obs`` adds is pinned
  like every other count: a metric write that creeps into the event loop
  fails here by thousands of ``obs`` calls.

A layer is the ``repro`` package of the frame the profiler is handed —
the called function for a Python call, the caller for a C call — and a
frame whose code was compiled by the engine (``<plan-codegen-*>``,
``<launch-issue-*>``) is ``sim``'s.  Only ``repro`` layers are gated:
the standard library's and site-packages' calls depend on the
environment.

A count above ``tests/data/call_budget.json`` fails, naming the row, the
layer and the delta.  A count more than :data:`FALL` under it fails too:
the fixture follows a fall down, so the next change cannot quietly take
the room back (``tests/test_core_budget.py``'s rule).  A change that
adds work on purpose re-records the fixture and says why (the figure
table's rule)::

    PYTHONPATH=src python tests/test_call_budget.py            # re-record
    PYTHONPATH=src python tests/test_call_budget.py warm_engine  # one row, printed

Counts are exact per Python minor (and may move with NumPy, whose C
functions a ``repro`` frame calls), so the gate runs on the minor the
fixture was recorded on and skips, saying so, on the others.  Counts
are a proxy: they gate that nobody added work, and they are never a
claim — claims are interleaved pairs in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

FIXTURE = Path(__file__).resolve().parent / "data" / "call_budget.json"
SRC = Path(__file__).resolve().parents[1] / "src"
ROWS = ("warm_engine", "cold_text", "dse_slice", "service_miss", "telemetry")
#: How far under the fixture a count may sit before the fixture has to
#: follow it down.
FALL = 0.02
KINDS = ("python", "c")
NO_CALLS = dict.fromkeys(KINDS, 0)
#: The code files of what the engine compiles at run time: ``sim``'s.
GENERATED = ("<plan-codegen-", "<launch-issue-")
CONV = dict(n=2, c=2, h=8, w=8, fh=2, fw=2)


# ---------------------------------------------------------------------------
# The counter (runs in the row's own interpreter)
# ---------------------------------------------------------------------------


def count_calls(region):
    """Run ``region()`` under ``sys.setprofile``; return its result and
    the Python and C calls per ``repro`` layer."""
    import repro

    calls = {"call": {}, "c_call": {}}

    def profile(frame, event, arg):
        counts = calls.get(event)
        if counts is not None:
            code = frame.f_code
            counts[code] = counts.get(code, 0) + 1

    sys.setprofile(profile)
    try:
        result = region()
    finally:
        sys.setprofile(None)
    root = os.path.dirname(repro.__file__) + os.sep
    layers: dict = {}
    for kind, event in zip(KINDS, ("call", "c_call")):
        for code, count in calls[event].items():
            layer = layer_of(code.co_filename, root)
            if layer is not None:
                tally = layers.setdefault(layer, dict(NO_CALLS))
                tally[kind] += count
    return result, dict(sorted(layers.items()))


def layer_of(filename: str, root: str):
    """The ``repro`` package a code file belongs to, or None."""
    if filename.startswith(GENERATED):
        return "sim"
    if not filename.startswith(root):
        return None
    head = filename[len(root):].split(os.sep)[0]
    return head[:-3] if head.endswith(".py") else head


# ---------------------------------------------------------------------------
# The rows: each sets up, then returns its measured region
# ---------------------------------------------------------------------------


def warm_engine(metrics: bool = False):
    from repro.obs import metrics as obs_metrics
    from repro.scenarios import get_scenario
    from repro.sim import PlanCache, simulate

    if metrics:
        obs_metrics.enable_metrics()
    scenario = get_scenario("systolic")
    cfg = scenario.configure(
        dataflow="WS", array_height=4, array_width=4, **CONV
    )
    module = scenario.build(cfg)
    cache = PlanCache()
    for _ in range(3):
        simulate(module, inputs=scenario.make_inputs(cfg), plan_cache=cache)
    inputs = scenario.make_inputs(cfg)
    return lambda: simulate(module, inputs=inputs, plan_cache=cache)


def cold_text():
    from repro.ir import parse_module, print_op
    from repro.scenarios import get_scenario
    from repro.sim import simulate

    scenario = get_scenario("systolic")
    cfg = scenario.configure(
        dataflow="OS", array_height=4, array_width=4, **CONV
    )
    text = print_op(scenario.build(cfg))
    inputs = scenario.make_inputs(cfg)
    return lambda: simulate(parse_module(text), inputs=inputs)


def dse_slice():
    from repro.analysis import SweepSpec, run_sweep

    spec = SweepSpec(
        array_heights=(4,),
        total_pes=64,
        image_sizes=(4,),
        filter_sizes=(2,),
        channels=(1, 2, 4),
        filter_counts=(1, 2, 4, 8),
        dataflows=("WS",),
    )
    assert spec.count() == 12, spec
    return lambda: run_sweep(
        spec, use_des=True, jobs=1, compile_cache=True, reuse_results=True
    )


def service_miss():
    import tempfile

    from repro.service import JobRequest
    from repro.service.scheduler import JobScheduler
    from repro.service.store import ResultStore, code_version

    code_version()  # hashes the package's source once per process
    state = tempfile.TemporaryDirectory(prefix="call-budget-")
    scheduler = JobScheduler(store=ResultStore(state.name))
    request = JobRequest.make("gemm:m=4,k=8,n=4,tile_k=4")

    def region():
        with state:  # the store's directory goes once the job settled
            job = scheduler.submit(request)
            assert scheduler.run_pending() == 1
            assert job.source == "simulated"
            return job.record

    return region


def telemetry():
    return warm_engine(metrics=True)


def observed(result) -> dict:
    """What a row's result must keep whatever the counts: a simulation's
    cycles and events, a sweep's cycles, a job's cycles."""
    if isinstance(result, list):
        return {"cycles": [point.cycles for point in result]}
    if isinstance(result, dict):
        return {"cycles": result["cycles"]}
    return {
        "cycles": result.cycles,
        "scheduler_events": result.summary.scheduler_events,
    }


def run_row(name: str) -> dict:
    # The engine imports codegen with its first generated body; a row
    # counts work, not a module's body.
    import repro.sim.codegen  # noqa: F401

    region = globals()[name]()
    result, layers = count_calls(region)
    return {"observed": observed(result), "layers": layers}


# ---------------------------------------------------------------------------
# The gate
# ---------------------------------------------------------------------------


def measure(name: str) -> dict:
    """One row in a fresh interpreter."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("EQUEUE_")
    }
    env.update(PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, __file__, name], env=env, capture_output=True,
        text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def minor() -> str:
    return "{}.{}".format(*sys.version_info[:2])


def recorded_with() -> str:
    import numpy

    return f"Python {sys.version.split()[0]}, NumPy {numpy.__version__}"


@pytest.fixture(scope="module")
def pinned():
    recorded = json.loads(FIXTURE.read_text())
    if recorded["python"] != minor():
        pytest.skip(
            f"call counts are exact per Python minor: the fixture was "
            f"recorded on {recorded['python']}, this is {minor()}"
        )
    return recorded


@pytest.fixture(scope="module")
def readings(pinned):
    return {name: measure(name) for name in ROWS}


def budget_failures(name: str, reading: dict, pinned: dict) -> list:
    failures = []
    for layer in sorted(set(reading["layers"]) | set(pinned["layers"])):
        got = reading["layers"].get(layer, NO_CALLS)
        want = pinned["layers"].get(layer, NO_CALLS)
        for kind in KINDS:
            delta = got[kind] - want[kind]
            where = f"row {name}, layer {layer}: {kind} calls"
            if delta > 0:
                failures.append(
                    f"{where} {got[kind]} > {want[kind]} pinned (+{delta}); "
                    "a rise that is meant re-records the fixture and says why"
                )
            elif -delta > FALL * want[kind]:
                failures.append(
                    f"{where} {got[kind]} fell {-delta} under the "
                    f"{want[kind]} pinned: re-record the fixture to keep it"
                )
    return failures


@pytest.mark.parametrize("name", ROWS)
def test_row_inside_its_budget(name, readings, pinned):
    reading, row = readings[name], pinned["rows"][name]
    assert reading["observed"] == row["observed"], (
        f"row {name} simulated something else than it was recorded with"
    )
    failures = budget_failures(name, reading, row)
    assert not failures, "\n".join(
        failures + [f"(recorded with {pinned['recorded_with']}; "
                    f"this is {recorded_with()})"]
    )


def test_telemetry_adds_only_obs_calls(readings):
    """Telemetry observes a run and never changes it: the same cycles
    and events, and the same Python calls on every layer but ``obs``.
    The C calls match too, but for ``sim``'s: ``Engine._record_metrics``
    folding the run into the registry reads the summary's fields, and
    the fixture pins those."""
    off, on = readings["warm_engine"], readings["telemetry"]
    assert on["observed"] == off["observed"]
    for layer in sorted((set(on["layers"]) | set(off["layers"])) - {"obs"}):
        got = on["layers"].get(layer, NO_CALLS)
        want = off["layers"].get(layer, NO_CALLS)
        kinds = ("python",) if layer == "sim" else KINDS
        for kind in kinds:
            assert got[kind] == want[kind], (
                f"telemetry moved layer {layer}'s {kind} calls: "
                f"{want[kind]} off, {got[kind]} on"
            )


def test_the_counter_attributes_layers():
    root = os.sep.join(("", "x", "repro", ""))
    assert layer_of(root + os.sep.join(("sim", "engine.py")), root) == "sim"
    assert layer_of(root + "faults.py", root) == "faults"
    assert layer_of("<plan-codegen-3>", root) == "sim"
    assert layer_of("<launch-issue-2>", root) == "sim"
    assert layer_of("<string>", root) is None
    assert layer_of(os.sep.join(("", "usr", "abc.py")), root) is None


def record() -> None:
    FIXTURE.write_text(json.dumps({
        "python": minor(),
        "recorded_with": recorded_with(),
        "rows": {name: measure(name) for name in ROWS},
    }, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print(json.dumps(run_row(sys.argv[1])))
    else:
        record()
