"""The telemetry differential guard: observing a simulation must never
change it.

Every scenario runs twice — telemetry fully off, then with the metrics
registry AND host-span tracer enabled — and the two results must be
bit-identical in everything the simulation semantically produces:
cycles, event counts, final buffer contents, and the oracle-checked
stats.  Only host-side fields (wall clock, the recorded spans
themselves) may differ.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.scenarios import scenario_names, simulate_scenario

#: Summary fields that measure the *host*, not the simulated machine:
#: wall clock, and which run a warm program cache's blocks got hot in.
HOST_ONLY_FIELDS = (
    "execution_time_s",
    "plan_shapes",
    "plans_shared",
    "plan_share_declined",
    "blocks_codegenned",
    "codegen_code_shared",
    "codegen_tiered_up",
    "codegen_typed",
    "codegen_suspending",
    "codegen_deopts",
)


def _semantic_fingerprint(result, checked):
    summary = dataclasses.asdict(result.summary)
    for field in HOST_ONLY_FIELDS:
        summary.pop(field, None)
    buffers = {
        name: result.buffers[name].array.tolist()
        for name in sorted(result.buffers)
    }
    return {
        "cycles": result.cycles,
        "truncated": result.truncated,
        "summary": summary,
        "buffers": buffers,
        "checked": checked,
    }


@pytest.mark.parametrize("name", scenario_names())
def test_telemetry_on_is_bit_identical(name):
    obs_metrics.disable_metrics()
    obs_spans.disable_spans()
    # Warm the per-process program cache first so both measured runs see
    # identical compile counters (warm vs warm, not cold vs warm).
    simulate_scenario(name, seed=3)
    baseline = _semantic_fingerprint(
        *simulate_scenario(name, seed=3, check=True)
    )

    obs_metrics.enable_metrics()
    obs_spans.enable_spans()
    try:
        observed = _semantic_fingerprint(
            *simulate_scenario(name, seed=3, check=True)
        )
        recorded_spans = len(obs_spans.TRACER)
    finally:
        obs_metrics.disable_metrics()
        obs_spans.disable_spans()

    assert observed == baseline
    # The telemetry pass actually observed something — this guard must
    # not vacuously compare two untelemetered runs.
    assert recorded_spans > 0
    snapshot = obs_metrics.get_registry().snapshot()
    assert snapshot.get("engine.runs", 0) > 0


def test_fingerprint_catches_buffer_divergence():
    """The guard itself is sharp: a perturbed buffer fails equality."""
    result, checked = simulate_scenario("fir", seed=3, check=True)
    fingerprint = _semantic_fingerprint(result, checked)
    perturbed = _semantic_fingerprint(result, checked)
    first_buffer = next(iter(perturbed["buffers"]))
    flat = np.array(perturbed["buffers"][first_buffer])
    flat.flat[0] += 1
    perturbed["buffers"][first_buffer] = flat.tolist()
    assert perturbed != fingerprint
