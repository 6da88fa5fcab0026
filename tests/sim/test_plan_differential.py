"""Differential tests: the compiled engine is bit-identical to the interpreter.

``EngineOptions.mode`` switches between the reference interpreter
(``"interpret"``), the block-plan compiler of :mod:`repro.sim.plan`
(``"plan"``, the default), and per-plan source codegen (``"codegen"``).
These tests run representative workloads — the
systolic generator under all three dataflows, the FIR cascade, and the
lowering-pipeline stages — through the engines and assert that every
observable is identical:

* simulated cycles and the scheduler-event count,
* final buffer contents,
* per-processor busy time,
* per-memory traffic statistics and schedule-queue busy time,
* per-connection traffic and busy time.

A second group runs one ``affine.for`` — a map and an integer reduction —
over free, timed and aliased buffers; a third the ``memref``/``affine``
element accesses no registered scenario reaches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ir
from repro.dialects import affine, arith, memref
from repro.dialects.equeue import EQueueBuilder
from repro.dialects.linalg import ConvDims
from repro.sim import Engine, EngineOptions, plan
from tests.conftest import observables


def run_both(build, **option_overrides):
    """Build + simulate a program twice (compiled, interpreted) and assert
    every observable matches.  ``build()`` must return ``(module, inputs)``
    freshly each call (engines mutate buffer state)."""
    engines = []
    results = []
    for mode in ("plan", "interpret"):
        module, inputs = build()
        options = EngineOptions(mode=mode, **option_overrides)
        engine = Engine(module, options, inputs)
        results.append(engine.run())
        engines.append(engine)
    compiled, interpreted = results
    assert compiled.cycles == interpreted.cycles
    assert (
        compiled.summary.scheduler_events
        == interpreted.summary.scheduler_events
    )
    assert compiled.buffers.keys() == interpreted.buffers.keys()
    for name in compiled.buffers:
        np.testing.assert_array_equal(
            compiled.buffers[name].array,
            interpreted.buffers[name].array,
            err_msg=f"buffer {name!r} diverged",
        )
    ec, ei = engines
    for pc, pi in zip(ec.processors, ei.processors):
        assert pc.name == pi.name
        assert pc.busy_cycles == pi.busy_cycles, pc.name
        assert pc.executed_events == pi.executed_events, pc.name
    for mc, mi in zip(ec.memories, ei.memories):
        assert mc.name == mi.name
        assert (mc.bytes_read, mc.bytes_written, mc.reads, mc.writes) == (
            mi.bytes_read, mi.bytes_written, mi.reads, mi.writes
        ), mc.name
        if mc.queue is not None and mi.queue is not None:
            assert mc.queue.total_busy_cycles == mi.queue.total_busy_cycles, (
                mc.name
            )
    for cc, ci in zip(ec.connections, ei.connections):
        assert cc.name == ci.name
        assert (cc.bytes_read, cc.bytes_written, cc.transfers) == (
            ci.bytes_read, ci.bytes_written, ci.transfers
        ), cc.name
        assert (
            cc.read_queue.total_busy_cycles
            == ci.read_queue.total_busy_cycles
        )
        assert (
            cc.write_queue.total_busy_cycles
            == ci.write_queue.total_busy_cycles
        )
    return compiled, interpreted


# ---------------------------------------------------------------------------
# Generator workloads
# ---------------------------------------------------------------------------


class TestGeneratorsDifferential:
    @pytest.mark.parametrize("dataflow", ["WS", "IS", "OS"])
    def test_systolic(self, dataflow, rng):
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

        compiled, _ = run_both(build)
        assert compiled.summary.plans_compiled > 0
        assert compiled.summary.plan_cache_hits > 0

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

        compiled, _ = run_both(build)
        # The simulation still computes the right FIR answer.
        program = build_fir_program(cfg)
        reference = fir_reference(samples, coeffs, cfg.samples)
        np.testing.assert_array_equal(
            program.extract_output(compiled), reference
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

        run_both(build)


# ---------------------------------------------------------------------------
# Loops
# ---------------------------------------------------------------------------


def _loop_program(memory_kind: str, alias: bool = False):
    """A launch with a loop doing a map (dst[i] = 2*src[i]) and an integer
    reduction (acc[0] += src[i]) over 16 elements."""
    module = ir.create_module()
    builder = ir.Builder(ir.InsertionPoint.at_end(module.body))
    eq = EQueueBuilder(builder)
    pe = eq.create_proc("MAC", name="pe")
    mem = eq.create_mem(memory_kind, 64, ir.i32, name="mem")
    src = eq.alloc(mem, [16], ir.i32, name="src")
    dst = src if alias else eq.alloc(mem, [16], ir.i32, name="dst")
    acc = eq.alloc(mem, [1], ir.i32, name="acc")
    start = eq.control_start()

    def body(b, src_a, dst_a, acc_a):
        def loop(b2, i):
            eq2 = EQueueBuilder(b2)
            x = eq2.read_element(src_a, [i])
            two = arith.constant(b2, 2, ir.i32)
            doubled = arith.muli(b2, x, two)
            eq2.write_element(doubled, dst_a, [i])
            zero = arith.constant(b2, 0, ir.index)
            running = eq2.read_element(acc_a, [zero])
            total = arith.addi(b2, running, x)
            eq2.write_element(total, acc_a, [zero])

        affine.for_loop(b, 0, 16, body=loop)

    done, = eq.launch(start, pe, args=[src, dst, acc], body=body, label="loop")
    eq.await_(done)
    ir.verify(module)
    return module


class TestVectorizedLoops:
    """One ``affine.for`` over free, timed and aliased buffers.  (Named
    after the NumPy vectoriser these programs were written for, retired
    in PR 20; the name stays so the kept tests keep their ids.)"""

    @pytest.mark.parametrize(
        "memory,alias", [("Register", False), ("SRAM", False), ("Register", True)]
    )
    def test_loop_program(self, memory, alias, rng):
        """Free registers, a timed SRAM, and ``src`` and ``dst`` one
        buffer: the same loop, iteration by iteration, everywhere."""
        data = rng.integers(-50, 50, 16).astype(np.int32)

        def build():
            return _loop_program(memory, alias), {"src": data}

        compiled, _ = run_both(build)
        doubled = compiled.buffer("src" if alias else "dst")
        np.testing.assert_array_equal(doubled, data * 2)
        assert compiled.buffer("acc")[0] == int(data.sum())
        if memory == "Register":
            # Two charged data ops (muli, addi) per iteration.
            assert compiled.cycles == 32

    def test_blockarg_store_at_invariant_index(self):
        """A loop storing a captured scalar (a BlockArgument) at a
        loop-invariant index."""

        def build():
            module = ir.create_module()
            builder = ir.Builder(ir.InsertionPoint.at_end(module.body))
            eq = EQueueBuilder(builder)
            pe = eq.create_proc("MAC", name="pe")
            mem = eq.create_mem("Register", 64, ir.i32, name="mem")
            buf = eq.alloc(mem, [4], ir.i32, name="buf")
            seven = arith.constant(builder, 7, ir.i32)
            start = eq.control_start()

            def body(b, buf_a, x_a):
                def loop(b2, i):
                    eq2 = EQueueBuilder(b2)
                    zero = arith.constant(b2, 0, ir.index)
                    eq2.write_element(x_a, buf_a, [zero])

                affine.for_loop(b, 0, 4, body=loop)

            done, = eq.launch(
                start, pe, args=[buf, seven], body=body, label="w"
            )
            eq.await_(done)
            ir.verify(module)
            return module, None

        compiled, _ = run_both(build)
        np.testing.assert_array_equal(
            compiled.buffer("buf"), np.array([7, 0, 0, 0], np.int32)
        )

    def test_interpreter_never_compiles(self, rng):
        data = rng.integers(-50, 50, 16).astype(np.int32)
        module = _loop_program("Register")
        engine = Engine(
            module, EngineOptions(mode="interpret"), {"src": data}
        )
        result = engine.run()
        assert result.summary.plans_compiled == 0
        assert result.summary.plan_cache_hits == 0
        assert engine._plans is None

    def test_summary_format_reports_plans(self, rng):
        data = rng.integers(-50, 50, 16).astype(np.int32)
        module = _loop_program("Register")
        result = Engine(module, EngineOptions(), {"src": data}).run()
        assert "block plans:" in result.summary.format()


class TestTraceDifferential:
    def test_detailed_trace_records(self, rng):
        """With detailed tracing on, compiled plans must emit the same
        trace records as the interpreter."""
        data = rng.integers(-50, 50, 16).astype(np.int32)
        records = []
        for mode in ("plan", "interpret", "codegen"):
            module = _loop_program("Register")
            options = EngineOptions(
                trace=True, detailed_trace=True, mode=mode
            )
            result = Engine(module, options, {"src": data}).run()
            records.append(
                [
                    (r.name, r.start, r.duration)
                    for r in result.trace.records
                ]
            )
        assert records[0] == records[1] == records[2]


# ---------------------------------------------------------------------------
# memref / affine element accesses
# ---------------------------------------------------------------------------


def _memref_program(dialect: str, backing: str, n: int = 72):
    """A kernel whose loops load and store single elements through the
    ``memref`` or ``affine`` spelling — at constant, dynamic and mixed
    indices, storing computed values and a launch result (a ``Future``)
    — over buffers of the ideal store (``memref.alloc``, free) or of a
    one-ported SRAM (every access waits).  ``n`` iterations: past the
    real tier-up threshold."""
    load, store = {
        "memref": (memref.load, memref.store),
        "affine": (affine.load, affine.store),
    }[dialect]
    module = ir.create_module()
    eq = EQueueBuilder(ir.Builder(ir.InsertionPoint.at_end(module.body)))
    kernel = eq.create_proc("ARMr5", name="kernel")
    pe = eq.create_proc("MAC", name="pe")
    buffers = []
    if backing == "SRAM":
        sram = eq.create_mem("SRAM", 4 * n, ir.i32, name="sram")
        buffers = [
            eq.alloc(sram, [n], ir.i32, name="src"),
            eq.alloc(sram, [2, n], ir.i32, name="dst"),
        ]

    def main(b, pe_a, *allocated):
        eq_b = EQueueBuilder(b)
        if allocated:
            src, dst = allocated
        else:
            src = memref.alloc(b, [n], ir.i32)
            dst = memref.alloc(b, [2, n], ir.i32)
            src.name_hint, dst.name_hint = "src", "dst"
        done, gain = eq_b.launch(
            eq_b.control_start(), pe_a,
            body=lambda b1: [arith.constant(b1, 3, ir.i32)],
        )
        eq_b.await_(done)
        zero = arith.constant(b, 0, ir.index)
        one = arith.constant(b, 1, ir.index)

        def fill(b2, i):
            x = b2.create("arith.index_cast", [i], [ir.i32]).result()
            store(b2, arith.muli(b2, x, x), src, [i])

        affine.for_loop(b, 0, n, body=fill)

        def step(b2, i):
            x = load(b2, src, [i])
            first = load(b2, src, [one])
            store(b2, arith.addi(b2, x, first), dst, [zero, i])
            store(b2, gain, dst, [one, i])

        affine.for_loop(b, 0, n, body=step)
        store(b, gain, src, [zero])

    done, = eq.launch(
        eq.control_start(), kernel, args=[pe, *buffers], body=main
    )
    eq.await_(done)
    ir.verify(module)
    return module


class TestMemrefAccess:
    """``memref.load``/``store`` and ``affine.load``/``store`` in every
    mode: no registered scenario reaches their compiled steps."""

    @pytest.mark.parametrize("scheduler", ["wheel", "heap"])
    @pytest.mark.parametrize("backing", ["Ideal", "SRAM"])
    @pytest.mark.parametrize("dialect", ["memref", "affine"])
    def test_every_mode_agrees(self, dialect, backing, scheduler, tier_up_at):
        def run(mode):
            module = _memref_program(dialect, backing)
            options = EngineOptions(mode=mode, scheduler=scheduler)
            engine = Engine(module, options)
            result = engine.run()
            return observables(engine, result), result.summary

        reference, _ = run("interpret")
        dst = reference["buffers"]["dst"]
        assert dst[0][:4] == [1, 2, 5, 10] and set(dst[1]) == {3}
        assert reference["buffers"]["src"][:3] == [3, 1, 4]
        # The SRAM makes every access wait; the ideal store none.
        assert (reference["cycles"] > 6 * 72) == (backing == "SRAM")
        seen, _ = run("plan")
        assert seen == reference, "plan diverged from interpret"
        for threshold in (0, plan.TIER_UP_EXECUTIONS):
            tier_up_at(threshold)
            seen, summary = run("codegen")
            assert seen == reference, f"codegen@{threshold} diverged"
            assert summary.blocks_codegenned > 0
