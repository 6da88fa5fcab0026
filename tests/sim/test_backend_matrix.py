"""Every program of the corpus on every backend, once.

``tests/differential.py`` holds the corpus (every registered scenario at
its default and at the last point of its grid, the lowering stages, the
toy accelerator, the dispatcher's hand-written programs, loops, element
accesses, a truncated run, the systolic dataflows and the FIR cascade)
and the backend matrix (``interpret``, ``plan`` and codegen tiering up
at the first execution, the third and the real threshold, on the event
wheel and on the heap).  Each run here must:

* agree with the program's ``interpret/wheel`` run in every observable
  (across schedulers, the tier split by its sum);
* keep its backend's summary rules — the wheel's tiers partition the
  event count, the heap serves every event from its one tier, plan mode
  generates nothing, ``codegen@0`` generates code without tiering up,
  and a tiered-up backend generates exactly when some block ran past
  its threshold — and, generated, the one form of a loop (a native
  ``for`` in a generator function; ``tests/sim/test_loops.py``);
* where the program has rows in ``dispatch_recorded.json``, replay its
  row exactly (every tier of codegen replays the row recorded at the
  first execution; the rows are equal across modes).

The reference run also passes the program's own oracle (a scenario's
reference statistics, the convolution, the FIR answer, ...).
"""

from __future__ import annotations

import json

import pytest

from repro import ir
from repro.sim import Engine, EngineOptions, SimulationError
from tests.differential import (
    BACKENDS,
    CORPUS,
    RECORDED,
    RECORDED_PROGRAMS,
    REFERENCE,
    assert_agrees,
    assert_one_form_of_loop,
    assert_summary_rules,
    record,
    row_key,
    run,
)


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORDED.read_text())


def _traced(name, backend):
    program = CORPUS[name]
    done = run(program.build, backend, trace=True, **program.options)
    assert_summary_rules(backend, done)
    if backend.startswith("codegen"):
        assert_one_form_of_loop(done)
    return done


@pytest.fixture(scope="module")
def references():
    """``name -> (observables, row)`` of each program's ``interpret/wheel``
    run, made once for every backend."""
    return {}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", CORPUS)
def test_every_program_agrees_on_every_backend(
    name, backend, recorded, references
):
    if name not in references:
        done = _traced(name, REFERENCE)
        if CORPUS[name].check is not None:
            CORPUS[name].check(done.result)
        references[name] = done.seen, record(done)
    reference, row = references[name]
    if backend != REFERENCE:
        done = _traced(name, backend)
        assert_agrees(done.seen, reference, backend)
        row = record(done)
    if name in RECORDED_PROGRAMS:
        assert row == recorded[row_key(name, backend)]


def test_every_recorded_row_is_replayed(recorded):
    assert set(RECORDED_PROGRAMS) <= set(CORPUS)
    assert set(recorded) == {
        row_key(name, backend)
        for name in RECORDED_PROGRAMS
        for backend in BACKENDS
    }
    # The hand-written programs do what their names say.
    late = recorded[row_key("late-dep", REFERENCE)]
    assert late["cycles"] == 6 and late["processors"][1] == ["pe_b", 3, 2]
    busy = recorded[row_key("memcpy-behind-busy-dma", REFERENCE)]
    assert busy["processors"][0] == ["dma", 16, 2]
    burst = recorded[row_key("burst-50", REFERENCE)]
    assert (burst["cycles"], burst["events"], burst["launches"]) == (0, 7, 52)
    # The scenarios exercise the wheel: zero-delay resumes ride the
    # microtask ring, short delays (SRAM tiles, DRAM staging, per-hop
    # link transfers) the calendar buckets.
    for name in RECORDED_PROGRAMS:
        if name.startswith(("gemm:", "mesh:")):
            microtask, wheel, _ = recorded[row_key(name, REFERENCE)]["tiers"]
            assert microtask > 0 and wheel > 0, name


# ---------------------------------------------------------------------------
# What a backend is
# ---------------------------------------------------------------------------


def test_unknown_scheduler_rejected():
    with pytest.raises(SimulationError, match="unknown scheduler"):
        Engine(ir.create_module(), EngineOptions(scheduler="quantum"))


def test_the_summary_reports_scheduler_tiers_and_plans():
    summary = run(CORPUS["fir-1-core"].build, "codegen@0/wheel").summary
    assert summary.scheduler == "wheel"
    text = summary.format()
    assert "scheduler tiers:" in text and "microtask" in text
    assert "block plans:" in text


def test_sweep_worker_scheduler_override():
    """The spawn-safe sweep worker produces identical measurements
    under both schedulers (the option-override payload form)."""
    from repro.scenarios import scenario_grid
    from repro.scenarios.sweep import (
        run_scenario_sweep,
        scenario_point_export_record,
    )

    grid = scenario_grid(
        "systolic", axes={"dataflow": ("OS",)},
        array_height=2, array_width=2, n=2, c=2, h=4, w=4, fh=2, fw=2,
    )

    def measure(overrides):
        points = run_scenario_sweep(
            grid, seed=11, option_overrides=overrides, check=True
        )
        return [scenario_point_export_record(point) for point in points]

    wheel = measure({"scheduler": "wheel"})
    heap = measure({"scheduler": "heap"})
    default = measure(None)
    # Overrides may restate any EngineOptions field, including the
    # verify_module default the worker itself supplies.
    verified = measure({"scheduler": "heap", "verify_module": True})
    assert wheel == heap == default == verified
    assert wheel[0]["cycles"] > 0
