"""Ablations of the design choices called out in DESIGN.md.

1. **Connection modeling** — sweep the FIR cascade bandwidth from
   unconstrained to 2 B/cycle and measure how much the bandwidth model
   changes reported cycles (the §VII case 2 → 3 transition, generalized).
2. **Memory ports** — the systolic stationary-SRAM port count vs fold
   load time (single-ported loads serialize; the paper's banked model
   loads one row per cycle).
3. **Coarse-model constant** — sensitivity of the Linalg-stage runtime to
   the first-order per-MAC cost, relative to the measured Affine stage
   (why 7 cycles/MAC is the conservative choice).
4. **Interpreted vs compiled engine** — the block-plan compiler
   (``EngineOptions(mode="plan")``) against the reference interpreter on
   the engine-speed workload: identical cycles/events, reported speedup.
"""

import numpy as np

from repro.dialects.linalg import ConvDims
from repro.generators.fir import FIRConfig, build_fir_program, fir_reference
from repro.generators.pipeline import LoweringPipeline
from repro.sim import EngineOptions, simulate

from conftest import emit


def test_ablation_connection_bandwidth(benchmark, rng):
    """Bandwidth model on/off and strength: 16-core FIR pipeline."""

    def sweep():
        rows = []
        for bandwidth in (None, 16, 8, 4, 2):
            cfg = FIRConfig(n_cores=16, bandwidth=bandwidth, samples=256)
            samples = rng.integers(-8, 9, cfg.samples + cfg.taps).astype(
                np.int32
            )
            coeffs = rng.integers(-4, 5, cfg.taps).astype(np.int32)
            program = build_fir_program(cfg)
            result = simulate(
                program.module, inputs=program.prepare_inputs(samples, coeffs)
            )
            correct = np.array_equal(
                program.extract_output(result),
                fir_reference(samples, coeffs, cfg.samples),
            )
            rows.append((bandwidth, result.cycles, cfg.expected_cycles, correct))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [f"{'bandwidth':>10} {'cycles':>8} {'model':>7} {'correct':>8}"]
    for bandwidth, cycles, model, correct in rows:
        label = "inf" if bandwidth is None else str(bandwidth)
        lines.append(
            f"{label:>10} {cycles:>8} {model:>7} "
            f"{'yes' if correct else 'NO':>8}"
        )
    emit("ablation_bandwidth", lines)
    cycles_by_bw = [cycles for _, cycles, _, _ in rows]
    # Tighter bandwidth monotonically slows the pipeline; the infinite
    # model underestimates the 2 B/cyc system by >4x.
    assert cycles_by_bw == sorted(cycles_by_bw)
    assert cycles_by_bw[-1] > 4 * cycles_by_bw[0]
    assert all(correct for *_, correct in rows)


def test_ablation_sram_ports(benchmark, rng):
    """Stationary-load time vs SRAM ports on the systolic array."""
    from repro.generators.systolic import SystolicConfig, build_systolic_program

    dims = ConvDims(n=4, c=3, h=8, w=8, fh=2, fw=2)

    def run(ports_factor):
        cfg = SystolicConfig("WS", 4, 4, dims)
        program = build_systolic_program(cfg)
        # Patch the stationary SRAM's port count before simulation.
        for op in program.module.walk():
            if (
                op.name == "equeue.create_mem"
                and op.results
                and op.results[0].name_hint == "stat_sram"
            ):
                op.set_attr("ports", ports_factor)
        ifmap = rng.integers(-3, 4, (3, 8, 8)).astype(np.int32)
        weights = rng.integers(-3, 4, (4, 3, 2, 2)).astype(np.int32)
        result = simulate(
            program.module, inputs=program.prepare_inputs(ifmap, weights)
        )
        return result.cycles

    def sweep():
        return {ports: run(ports) for ports in (1, 2, 4)}

    cycles = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [f"{'SRAM ports':>11} {'total cycles':>13}"]
    for ports, total in cycles.items():
        lines.append(f"{ports:>11} {total:>13}")
    lines.append(
        "single-ported weight loads serialize the fold fill "
        "(Ah*Aw cycles instead of Ah)."
    )
    emit("ablation_sram_ports", lines)
    assert cycles[1] > cycles[2] > cycles[4]


def test_ablation_linalg_cost_constant(benchmark):
    """The coarse model must stay conservative w.r.t. the Affine stage."""
    pipeline = LoweringPipeline(dims=ConvDims(n=2, c=2, h=6, w=6, fh=3, fw=3))

    def sweep():
        affine_cycles = pipeline.run_stage("affine").cycles
        rows = []
        for per_mac in (4, 5, 6, 7, 8):
            module = pipeline.build_stage("linalg")
            ifmap, weight = pipeline.make_data()
            result = simulate(
                module,
                EngineOptions(linalg_mac_cycles=per_mac),
                inputs={"ifmap": ifmap, "weight": weight},
            )
            rows.append((per_mac, result.cycles, affine_cycles))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [f"{'cycles/MAC':>11} {'linalg cycles':>14} {'affine cycles':>14}"]
    for per_mac, linalg_cycles, affine_cycles in rows:
        marker = " <-- conservative" if linalg_cycles >= affine_cycles else ""
        lines.append(
            f"{per_mac:>11} {linalg_cycles:>14} {affine_cycles:>14}{marker}"
        )
    lines.append(
        "default = 7: the smallest integer constant that keeps the "
        "first-order estimate above the measured Affine stage (Fig. 11b's "
        "monotone runtime)."
    )
    emit("ablation_linalg_constant", lines)
    affine_cycles = rows[0][2]
    default = [cycles for per_mac, cycles, _ in rows if per_mac == 7][0]
    six = [cycles for per_mac, cycles, _ in rows if per_mac == 6][0]
    assert default > affine_cycles >= six


def test_ablation_interpreted_vs_compiled(benchmark, rng):
    """Block-plan compilation: same simulation, less wall-clock."""
    import time

    from repro.dialects.linalg import ConvDims as Dims
    from repro.generators.systolic import SystolicConfig, build_systolic_program

    dims = Dims(n=1, c=3, h=16, w=16, fh=2, fw=2)
    ifmap = rng.integers(-3, 4, (3, 16, 16)).astype(np.int32)
    weights = rng.integers(-3, 4, (1, 3, 2, 2)).astype(np.int32)

    def run(mode: str):
        program = build_systolic_program(SystolicConfig("WS", 4, 4, dims))
        inputs = program.prepare_inputs(ifmap, weights)
        started = time.perf_counter()
        result = simulate(
            program.module,
            EngineOptions(mode=mode),
            inputs=inputs,
        )
        elapsed = time.perf_counter() - started
        return result, elapsed

    def sweep():
        return {mode: run(mode) for mode in ("interpret", "plan")}

    outcome = benchmark.pedantic(sweep, rounds=1, iterations=1)
    (interp, interp_s), (compiled, compiled_s) = (
        outcome["interpret"], outcome["plan"]
    )
    events = interp.summary.scheduler_events
    speedup = interp_s / max(compiled_s, 1e-9)
    lines = [
        f"{'engine':>12} {'cycles':>8} {'events':>8} {'wall-clock':>11} "
        f"{'events/s':>12}",
        f"{'interpreted':>12} {interp.cycles:>8} {events:>8} "
        f"{interp_s:>10.3f}s {events / max(interp_s, 1e-9):>12,.0f}",
        f"{'compiled':>12} {compiled.cycles:>8} "
        f"{compiled.summary.scheduler_events:>8} {compiled_s:>10.3f}s "
        f"{compiled.summary.scheduler_events / max(compiled_s, 1e-9):>12,.0f}",
        f"speedup: {speedup:.2f}x "
        f"({compiled.summary.plans_compiled} plans, "
        f"{compiled.summary.plan_cache_hits} cache hits)",
    ]
    emit("ablation_engine_compile", lines)
    # Cycle-exactness: the compiled engine is an optimization, not a model.
    # (The wall-clock speedup is reported, not asserted — single-round
    # timings on shared CI runners are too noisy for a hard invariant;
    # the differential asserts above are the correctness check.)
    assert compiled.cycles == interp.cycles
    assert compiled.summary.scheduler_events == events
    for name in compiled.buffers:
        assert np.array_equal(
            compiled.buffers[name].array, interp.buffers[name].array
        ), name


def test_ablation_wheel_vs_heap(benchmark, rng):
    """Scheduler backends: the tiered event wheel vs the binary heap.

    Same simulation on both ``EngineOptions.scheduler`` backends —
    identical cycles, events, and buffers; the wheel serves the zero-delay
    resumes from its microtask ring and the short read/write latencies
    from calendar buckets instead of paying a heap push/pop per event.
    """
    import time

    from repro.dialects.linalg import ConvDims as Dims
    from repro.generators.systolic import SystolicConfig, build_systolic_program

    dims = Dims(n=1, c=3, h=16, w=16, fh=2, fw=2)
    ifmap = rng.integers(-3, 4, (3, 16, 16)).astype(np.int32)
    weights = rng.integers(-3, 4, (1, 3, 2, 2)).astype(np.int32)

    def run(scheduler: str):
        program = build_systolic_program(SystolicConfig("WS", 4, 4, dims))
        inputs = program.prepare_inputs(ifmap, weights)
        started = time.perf_counter()
        result = simulate(
            program.module,
            EngineOptions(scheduler=scheduler),
            inputs=inputs,
        )
        elapsed = time.perf_counter() - started
        return result, elapsed

    def sweep():
        # Discard a warmup round (imports, allocator and cache warmup),
        # then measure the wheel *first*: any residual warm-process bias
        # favors the heap row, making the reported speedup conservative.
        run("heap")
        return {mode: run(mode) for mode in ("wheel", "heap")}

    outcome = benchmark.pedantic(sweep, rounds=1, iterations=1)
    (heap, heap_s), (wheel, wheel_s) = outcome["heap"], outcome["wheel"]
    events = heap.summary.scheduler_events
    speedup = heap_s / max(wheel_s, 1e-9)
    tiers = wheel.summary
    lines = [
        f"{'scheduler':>10} {'cycles':>8} {'events':>8} {'wall-clock':>11} "
        f"{'events/s':>12}",
        f"{'heap':>10} {heap.cycles:>8} {events:>8} "
        f"{heap_s:>10.3f}s {events / max(heap_s, 1e-9):>12,.0f}",
        f"{'wheel':>10} {wheel.cycles:>8} "
        f"{tiers.scheduler_events:>8} {wheel_s:>10.3f}s "
        f"{tiers.scheduler_events / max(wheel_s, 1e-9):>12,.0f}",
        f"speedup: {speedup:.2f}x (wheel tiers: {tiers.microtask_events} "
        f"microtask, {tiers.wheel_events} wheel, {tiers.heap_events} heap)",
    ]
    emit("ablation_scheduler_backend", lines)
    # Bit-exactness: the event wheel is an optimization, not a model.
    # (Wall-clock is reported, not asserted — same noise rationale as the
    # interpreted-vs-compiled ablation above.)
    assert wheel.cycles == heap.cycles
    assert wheel.summary.scheduler_events == events
    assert (
        tiers.microtask_events + tiers.wheel_events + tiers.heap_events
        == tiers.scheduler_events
    )
    for name in wheel.buffers:
        assert np.array_equal(
            wheel.buffers[name].array, heap.buffers[name].array
        ), name
