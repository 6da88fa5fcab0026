"""Differential tests: the event-wheel scheduler is bit-identical to the heap.

``EngineOptions.scheduler`` switches between the tiered event-wheel
scheduler (``"wheel"``, the default — microtask ring + calendar-queue
buckets + overflow heap) and the classic binary-heap reference
(``"heap"``).  These tests run representative workloads — the systolic
generator under all three dataflows, the FIR cascade, and the
lowering-pipeline stages — through *both* schedulers and assert that
every observable is identical:

* simulated cycles and the scheduler-event count,
* final buffer contents,
* per-processor busy time and executed-entry counts,
* per-memory traffic statistics and schedule-queue busy time,
* per-connection traffic and busy time.

Both compiled-plan and interpreted execution are exercised, because the
scheduler must be interchangeable under either engine strategy; the
sweep-worker path of :mod:`repro.sim.batch` is covered too.  Only the
tier *attribution* counters (microtask/wheel/heap) may differ between
backends — by construction: the heap serves every event from one tier.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dialects.linalg import ConvDims
from repro.sim import Engine, EngineOptions


def run_both_schedulers(build, mode="plan", **option_overrides):
    """Build + simulate a program under the wheel and heap schedulers and
    assert every observable matches.  ``build()`` must return
    ``(module, inputs)`` freshly each call (engines mutate buffer state).
    """
    engines = []
    results = []
    for scheduler in ("wheel", "heap"):
        module, inputs = build()
        options = EngineOptions(
            scheduler=scheduler,
            mode=mode,
            **option_overrides,
        )
        engine = Engine(module, options, inputs)
        results.append(engine.run())
        engines.append(engine)
    wheel, heap = results
    assert wheel.cycles == heap.cycles
    assert wheel.truncated == heap.truncated
    assert (
        wheel.summary.scheduler_events == heap.summary.scheduler_events
    )
    assert wheel.summary.launches_executed == heap.summary.launches_executed
    assert wheel.buffers.keys() == heap.buffers.keys()
    for name in wheel.buffers:
        np.testing.assert_array_equal(
            wheel.buffers[name].array,
            heap.buffers[name].array,
            err_msg=f"buffer {name!r} diverged",
        )
    ew, eh = engines
    assert ew.sim.kind == "wheel" and eh.sim.kind == "heap"
    # Tier attribution: the wheel's tiers partition the same event count
    # the heap serves entirely from its single tier.
    sw = wheel.summary
    assert (
        sw.microtask_events + sw.wheel_events + sw.heap_events
        == sw.scheduler_events
    )
    assert heap.summary.heap_events == heap.summary.scheduler_events
    assert heap.summary.microtask_events == 0
    assert heap.summary.wheel_events == 0
    for pw, ph in zip(ew.processors, eh.processors):
        assert pw.name == ph.name
        assert pw.busy_cycles == ph.busy_cycles, pw.name
        assert pw.executed_events == ph.executed_events, pw.name
    for mw, mh in zip(ew.memories, eh.memories):
        assert mw.name == mh.name
        assert (mw.bytes_read, mw.bytes_written, mw.reads, mw.writes) == (
            mh.bytes_read, mh.bytes_written, mh.reads, mh.writes
        ), mw.name
        if mw.queue is not None and mh.queue is not None:
            assert mw.queue.total_busy_cycles == mh.queue.total_busy_cycles, (
                mw.name
            )
    for cw, ch in zip(ew.connections, eh.connections):
        assert cw.name == ch.name
        assert (cw.bytes_read, cw.bytes_written, cw.transfers) == (
            ch.bytes_read, ch.bytes_written, ch.transfers
        ), cw.name
        assert (
            cw.read_queue.total_busy_cycles
            == ch.read_queue.total_busy_cycles
        )
        assert (
            cw.write_queue.total_busy_cycles
            == ch.write_queue.total_busy_cycles
        )
    return wheel, heap


# ---------------------------------------------------------------------------
# Generator workloads
# ---------------------------------------------------------------------------


class TestGeneratorsDifferential:
    @pytest.mark.parametrize("mode", ["plan", "interpret", "codegen"])
    @pytest.mark.parametrize("dataflow", ["WS", "IS", "OS"])
    def test_systolic(self, dataflow, mode, rng):
        from repro.generators.systolic import (
            SystolicConfig,
            build_systolic_program,
        )

        dims = ConvDims(n=2, c=2, h=6, w=6, fh=2, fw=2)
        ifmap = rng.integers(-3, 4, (2, 6, 6)).astype(np.int32)
        weights = rng.integers(-3, 4, (2, 2, 2, 2)).astype(np.int32)

        def build():
            program = build_systolic_program(
                SystolicConfig(dataflow, 3, 3, dims)
            )
            return program.module, program.prepare_inputs(ifmap, weights)

        wheel, _ = run_both_schedulers(build, mode=mode)
        # The workload's zero-delay resumes really ride the microtask ring
        # and its short read/write latencies ride the calendar wheel.
        assert wheel.summary.microtask_events > 0
        assert wheel.summary.wheel_events > 0

    @pytest.mark.parametrize("n_cores,bandwidth", [(1, None), (4, 4)])
    def test_fir(self, n_cores, bandwidth, rng):
        from repro.generators.fir import (
            FIRConfig,
            build_fir_program,
            fir_reference,
        )

        cfg = FIRConfig(n_cores=n_cores, bandwidth=bandwidth, samples=64)
        samples = rng.integers(-8, 9, cfg.samples + cfg.taps).astype(np.int32)
        coeffs = rng.integers(-4, 5, cfg.taps).astype(np.int32)

        def build():
            program = build_fir_program(cfg)
            return program.module, program.prepare_inputs(samples, coeffs)

        wheel, _ = run_both_schedulers(build)
        # The simulation still computes the right FIR answer.
        program = build_fir_program(cfg)
        reference = fir_reference(samples, coeffs, cfg.samples)
        np.testing.assert_array_equal(
            program.extract_output(wheel), reference
        )

    @pytest.mark.parametrize("stage", ["linalg", "affine", "reassign"])
    def test_pipeline_stage(self, stage):
        from repro.generators.pipeline import LoweringPipeline

        pipeline = LoweringPipeline(
            dims=ConvDims(n=2, c=2, h=6, w=6, fh=3, fw=3)
        )
        ifmap, weight = pipeline.make_data()

        def build():
            module = pipeline.build_stage(stage)
            return module, {"ifmap": ifmap, "weight": weight}

        run_both_schedulers(build)


# ---------------------------------------------------------------------------
# Engine-level semantics
# ---------------------------------------------------------------------------


class TestSchedulerSemantics:
    def test_max_cycles_truncation_matches(self, rng):
        """Truncated runs stop at the same boundary on both backends."""
        from repro.generators.systolic import (
            SystolicConfig,
            build_systolic_program,
        )

        dims = ConvDims(n=1, c=2, h=6, w=6, fh=2, fw=2)
        ifmap = rng.integers(-3, 4, (2, 6, 6)).astype(np.int32)
        weights = rng.integers(-3, 4, (1, 2, 2, 2)).astype(np.int32)

        def build():
            program = build_systolic_program(SystolicConfig("WS", 2, 2, dims))
            return program.module, program.prepare_inputs(ifmap, weights)

        wheel, heap = run_both_schedulers(build, max_cycles=40)
        assert wheel.truncated
        assert wheel.cycles == heap.cycles == 40

    def test_unknown_scheduler_rejected(self):
        from repro import ir
        from repro.sim import SimulationError

        with pytest.raises(SimulationError, match="unknown scheduler"):
            Engine(ir.create_module(), EngineOptions(scheduler="quantum"))

    def test_summary_reports_scheduler_tiers(self, rng):
        from repro.generators.fir import FIRConfig, build_fir_program

        cfg = FIRConfig(n_cores=1, bandwidth=None, samples=16)
        samples = rng.integers(-8, 9, cfg.samples + cfg.taps).astype(np.int32)
        coeffs = rng.integers(-4, 5, cfg.taps).astype(np.int32)
        program = build_fir_program(cfg)
        result = Engine(
            program.module,
            EngineOptions(),
            program.prepare_inputs(samples, coeffs),
        ).run()
        assert result.summary.scheduler == "wheel"
        text = result.summary.format()
        assert "scheduler tiers:" in text
        assert "microtask" in text


# ---------------------------------------------------------------------------
# The batch / sweep-worker path
# ---------------------------------------------------------------------------


class TestSweepWorkerDifferential:
    def test_sweep_worker_scheduler_override(self):
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
