"""Three of the paper's modeling choices, as relations that must hold.

``tests/integration/test_paper_figures.py`` pins what each figure reads;
these pin why three model choices matter, as orderings over a sweep of
the one knob each owns:

* **Connection bandwidth** (§VII, case 2 → 3 generalized): narrowing the
  16-core FIR cascade's connections from unconstrained to 2 B/cycle
  never speeds it up, and the unconstrained model underestimates the
  2 B/cycle system by more than 4x — every run still computes the FIR.
* **SRAM ports**: a single-ported stationary SRAM serializes the WS
  array's weight loads, so more ports strictly shorten the run.
* **The coarse Linalg cost**: 7 cycles per MAC is the smallest constant
  that keeps the first-order Linalg estimate above the measured Affine
  stage (Fig. 11b's monotone runtime); 6 falls at or under it.
"""

from __future__ import annotations

import numpy as np

from repro.dialects.linalg import ConvDims
from repro.generators.fir import FIRConfig, build_fir_program, fir_reference
from repro.generators.pipeline import LoweringPipeline
from repro.generators.systolic import SystolicConfig, build_systolic_program
from repro.sim import EngineOptions, simulate


def test_fir_cycles_grow_as_bandwidth_narrows():
    rng = np.random.default_rng(7)
    cycles = []
    for bandwidth in (None, 16, 8, 4, 2):
        cfg = FIRConfig(n_cores=16, bandwidth=bandwidth, samples=256)
        samples = rng.integers(-8, 9, cfg.samples + cfg.taps).astype(np.int32)
        coeffs = rng.integers(-4, 5, cfg.taps).astype(np.int32)
        program = build_fir_program(cfg)
        result = simulate(
            program.module, inputs=program.prepare_inputs(samples, coeffs)
        )
        np.testing.assert_array_equal(
            program.extract_output(result),
            fir_reference(samples, coeffs, cfg.samples),
            err_msg=f"bandwidth {bandwidth}",
        )
        cycles.append(result.cycles)
    assert cycles == sorted(cycles), cycles
    assert cycles[-1] > 4 * cycles[0], cycles


def test_ws_cycles_fall_as_sram_ports_grow():
    rng = np.random.default_rng(7)
    dims = ConvDims(n=4, c=3, h=8, w=8, fh=2, fw=2)
    cycles = {}
    for ports in (1, 2, 4):
        program = build_systolic_program(SystolicConfig("WS", 4, 4, dims))
        for op in program.module.walk():
            if (
                op.name == "equeue.create_mem"
                and op.results
                and op.results[0].name_hint == "stat_sram"
            ):
                op.set_attr("ports", ports)
        ifmap = rng.integers(-3, 4, (3, 8, 8)).astype(np.int32)
        weights = rng.integers(-3, 4, (4, 3, 2, 2)).astype(np.int32)
        cycles[ports] = simulate(
            program.module, inputs=program.prepare_inputs(ifmap, weights)
        ).cycles
    assert cycles[1] > cycles[2] > cycles[4], cycles


def test_seven_cycles_per_mac_is_the_smallest_conservative_constant():
    pipeline = LoweringPipeline(dims=ConvDims(n=2, c=2, h=6, w=6, fh=3, fw=3))
    affine = pipeline.run_stage("affine").cycles
    linalg = {}
    for per_mac in (6, 7):
        ifmap, weight = pipeline.make_data()
        linalg[per_mac] = simulate(
            pipeline.build_stage("linalg"),
            EngineOptions(linalg_mac_cycles=per_mac),
            inputs={"ifmap": ifmap, "weight": weight},
        ).cycles
    assert linalg[7] > affine >= linalg[6], (linalg, affine)
