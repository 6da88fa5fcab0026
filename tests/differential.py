"""The differential harness: one backend matrix, one ``observables``, one
runner and one corpus of programs.

Every way the engine can execute a program — the reference interpreter,
block-plan replay, and generated code tiering up at the first execution,
at the third and at the real threshold, each on the event wheel and on
the binary heap — must leave what the simulated machine shows unchanged.
:func:`agree` runs a program on backends and holds each one to
``interpret/wheel``; ``tests/sim/test_backend_matrix.py`` runs every
program of :data:`CORPUS` on every backend of :data:`BACKENDS` once,
checks the summary rules of each backend and replays
``tests/sim/data/dispatch_recorded.json`` — cycles, event counts and
tier split, per-processor busy/executed, buffer and trace-order digests,
recorded from the generator loop the callback dispatcher replaced (and,
for :data:`BLOCKING`, while every access that waits, ``await`` and
``return_values`` still went through the general handlers).  Re-record
it only from a commit whose launch path you trust::

    PYTHONPATH=src:. python tests/differential.py

Every lowering pass is a checked refinement too: :func:`refine` holds a
row of :data:`PASS_CONTRACTS` to its base pipeline
(``tests/passes/test_pass_contracts.py`` runs every row).

Fence tests import :func:`agree` and the shared program builders from
here; no test module imports another.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import operator
import re
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from repro import ir
from repro.analysis.export import record_line
from repro.dialects import affine, arith, linalg, memref, scf
from repro.dialects.equeue import EQueueBuilder
from repro.dialects.equeue import types as eqt
from repro.dialects.linalg import ConvDims
from repro.generators.fir import FIRConfig, build_fir_program, fir_reference
from repro.generators.pipeline import PIPELINES, LoweringPipeline
from repro.generators.systolic import SystolicConfig, build_systolic_program
from repro.passes import PassManager, parse_pipeline, registered_passes
from repro.scenarios import get_scenario, scenario_names
from repro.sim import Engine, EngineOptions, SimulationResult, codegen, plan
from repro.sim.oplib import OpFunction, register_op_function
from tests.conftest import conv2d_reference

RECORDED = Path(__file__).parent / "sim" / "data" / "dispatch_recorded.json"
TOY = Path(__file__).parents[1] / "examples" / "programs" / "toy_accelerator.mlir"

#: ``<mode>[@<tier-up>]/<scheduler>``: generated code from a block's
#: first execution, from its third, and at the real threshold.
BACKENDS = tuple(
    f"{mode}/{scheduler}"
    for scheduler in ("wheel", "heap")
    for mode in (
        "interpret", "plan", "codegen@0", "codegen@2",
        f"codegen@{plan.TIER_UP_EXECUTIONS}",
    )
)
REFERENCE = BACKENDS[0]

#: A flattened ``affine.for``, as emitted: typed induction variable over
#: a bound ``range``.
NATIVE_LOOP = re.compile(r"^ +for _n\d+ in _r\d+:$", re.MULTILINE)

#: Summary fields that measure the *host* (wall time, per-process
#: compile-cache hit/miss split, which blocks had run often enough to
#: get generated code), not the simulation.  Everything else — cycles,
#: event counts, memory traffic, the checked model — must match bit
#: for bit.
HOST_FIELDS = (
    "execution_time_s",
    "plans_compiled",
    "plan_cache_hits",
    "plan_shapes",
    "plans_shared",
    "plan_share_declined",
    "blocks_codegenned",
    "codegen_code_shared",
    "codegen_tiered_up",
    "codegen_typed",
    "codegen_suspending",
    "codegen_deopts",
    "codegen_fallbacks",
    "codegen_fallback_reasons",
)


def canonical(record) -> str:
    """A service record's bit-comparison form: its canonical JSON line
    with the host fields zeroed, at the top and in each sweep point."""
    record = json.loads(record_line(record))
    for rec in [record, *(record.get("points") or [])]:
        summary = rec.get("summary") or {}
        for field in HOST_FIELDS:
            if field in summary:
                summary[field] = 0
    return record_line(record)


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


@contextmanager
def tier_up(executions: int):
    """Generate a block's body once it has run ``executions`` times: the
    one way to move ``plan.TIER_UP_EXECUTIONS`` (a module constant, not
    an option)."""
    saved = plan.TIER_UP_EXECUTIONS
    plan.TIER_UP_EXECUTIONS = executions
    try:
        yield
    finally:
        plan.TIER_UP_EXECUTIONS = saved


def observables(engine: Optional[Engine], result: SimulationResult) -> dict:
    """Everything a finished run lets a test see of the *simulated*
    machine — what every backend must agree on.  ``engine`` may be
    ``None`` (a cached program's run keeps none): then the busy time of
    processors and queues, which only the engine holds, is left out."""
    summary = result.summary
    seen = {
        "cycles": result.cycles,
        "truncated": result.truncated,
        "events": summary.scheduler_events,
        "tiers": (
            summary.microtask_events,
            summary.wheel_events,
            summary.heap_events,
        ),
        "launches": summary.launches_executed,
        "buffers": {
            name: buffer.array.tolist()
            for name, buffer in sorted(result.buffers.items())
        },
        "memories": [
            (m.name, m.bytes_read, m.bytes_written, m.reads, m.writes)
            for m in summary.memories.values()
        ],
    }
    if engine is not None:
        seen["processors"] = [
            (p.name, p.busy_cycles, p.executed_events)
            for p in engine.processors
        ]
        seen["queues"] = [
            (m.name, m.queue.total_busy_cycles)
            for m in engine.memories
            if m.queue is not None
        ] + [
            (
                c.name, c.bytes_read, c.bytes_written, c.transfers,
                c.read_queue.total_busy_cycles,
                c.write_queue.total_busy_cycles,
            )
            for c in engine.connections
        ]
    return seen


class Run(NamedTuple):
    """One simulation: its observables, its result and its engine."""

    seen: dict
    result: SimulationResult
    engine: Engine

    @property
    def summary(self):
        return self.result.summary


def run(build, backend: str, engine=Engine, **options) -> Run:
    """Simulate ``build() -> (module, inputs)`` — freshly built: engines
    mutate buffers — on one backend."""
    mode, scheduler = backend.split("/")
    mode, _, tier = mode.partition("@")
    module, inputs = build()
    with tier_up(int(tier)) if tier else nullcontext():
        ran = engine(
            module, EngineOptions(mode=mode, scheduler=scheduler, **options),
            inputs,
        )
        result = ran.run()
    return Run(observables(ran, result), result, ran)


def assert_agrees(seen: dict, reference: dict, backend: str) -> None:
    """``seen`` (a run on ``backend``) equals the reference run's
    observables; across schedulers the tier split compares by its sum."""
    if not backend.endswith("/wheel"):
        seen, reference = (
            {**o, "tiers": sum(o["tiers"])} for o in (seen, reference)
        )
    differs = sorted(key for key in reference if seen[key] != reference[key])
    assert not differs, f"{backend} diverged from {REFERENCE} in {differs}"


def assert_summary_rules(backend: str, done: Run) -> None:
    """What each backend's summary says of itself."""
    mode = backend.split("/")[0]
    summary = done.summary
    tiers = (
        summary.microtask_events, summary.wheel_events, summary.heap_events
    )
    assert done.engine.sim.kind == summary.scheduler, backend
    assert summary.execution_mode == mode.partition("@")[0], backend
    if summary.scheduler == "heap":  # every event from its one tier
        assert tiers == (0, 0, summary.scheduler_events), backend
    else:
        assert sum(tiers) == summary.scheduler_events, backend
    generated = summary.blocks_codegenned
    if mode == "interpret":
        assert done.engine._plans is None and summary.plans_compiled == 0
    elif mode == "plan":
        assert generated == 0 and summary.plans_compiled > 0, backend
    elif mode == "codegen@0":
        assert generated > 0 and summary.codegen_tiered_up == 0, backend
    else:
        # Every body tiered up, and some generated exactly when some
        # block (or shape) ran past the threshold: at the real one, none
        # on a small program.
        assert summary.codegen_tiered_up == generated, backend
        threshold = int(mode.partition("@")[2])
        hottest = max(
            ((p.shape or p).runs for _, p in done.engine._plans.plans.values()),
            default=0,
        )
        assert (generated > 0) == (hottest > threshold), backend


def assert_one_form_of_loop(done: Run) -> None:
    """Under the real selector, a generated body that holds an
    ``affine.for`` is a generator function with the loop a native
    ``for``, and a plain function holds none."""
    for _, p in done.engine._plans.plans.values():
        if p.compiled is not None:
            suspends = inspect.isgeneratorfunction(p.compiled)
            native = NATIVE_LOOP.search(codegen.source_of(p.compiled))
            if any(map(plan._is_for, p.steps)):
                assert suspends and native, codegen.source_of(p.compiled)
            assert suspends or not native, codegen.source_of(p.compiled)


def agree(build, backends=BACKENDS, engine=Engine, **options) -> dict:
    """Run ``build`` on :data:`REFERENCE` and on each of ``backends``;
    each run must agree with the reference and keep its backend's
    summary rules.  Returns ``{backend: Run}``."""
    runs = {REFERENCE: run(build, REFERENCE, engine, **options)}
    reference = runs[REFERENCE].seen
    for backend in backends:
        if backend not in runs:
            runs[backend] = run(build, backend, engine, **options)
        assert_agrees(runs[backend].seen, reference, backend)
        assert_summary_rules(backend, runs[backend])
    return runs


# ---------------------------------------------------------------------------
# The recorded table
# ---------------------------------------------------------------------------


def row_key(program: str, backend: str) -> str:
    """A run's row in the table: every tier of codegen replays the one
    recorded at the first execution."""
    mode, scheduler = backend.split("/")
    return f"{program}|{mode.partition('@')[0]}|{scheduler}"


def _digest(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def record(done: Run) -> dict:
    """A traced run (``trace=True``) as the table records it."""
    result, summary = done.result, done.summary
    return {
        "cycles": result.cycles,
        "events": summary.scheduler_events,
        "tiers": [
            summary.microtask_events,
            summary.wheel_events,
            summary.heap_events,
        ],
        "launches": summary.launches_executed,
        "processors": [
            [p.name, p.busy_cycles, p.executed_events]
            for p in done.engine.processors
        ],
        "buffers": _digest(
            part
            for name, buffer in sorted(result.buffers.items())
            for part in (
                name, str(buffer.array.dtype), buffer.array.shape,
                buffer.array.tobytes(),
            )
        ),
        "trace": _digest(
            (r.name, r.category, r.pid, r.tid, r.start, r.duration)
            for r in result.trace.records
        ),
        "trace_records": len(result.trace.records),
    }


# ---------------------------------------------------------------------------
# Hand-written programs, one per arm of the dispatcher
# ---------------------------------------------------------------------------


def empty_program():
    """A fresh module and an EQueue builder at the end of its body."""
    module = ir.create_module()
    builder = ir.Builder(ir.InsertionPoint.at_end(module.body))
    return module, EQueueBuilder(builder)


def _macs(count):
    """A launch body costing ``count`` cycles: a chain of ``mac`` ops."""

    def body(b, buf):
        eq = EQueueBuilder(b)
        zero = arith.constant(b, 0, ir.index)
        x = eq.read_element(buf, [zero])
        for _ in range(count):
            x, = eq.op("mac", [x, x, x], [x.type])
        eq.write_element(x, buf, [zero])

    return body


def _late_dep():
    """``b`` reaches the head of ``pe_b``'s queue three cycles before its
    dependency triggers, with ``c`` (ready at once) queued behind it."""
    module, eq = empty_program()
    regs = eq.create_mem("Register", 64, ir.i32, name="regs")
    bufs = [eq.alloc(regs, [1], ir.i32, name=f"buf{k}") for k in range(3)]
    pe_a = eq.create_proc("MAC", name="pe_a")
    pe_b = eq.create_proc("MAC", name="pe_b")
    start = eq.control_start()
    a, = eq.launch(start, pe_a, args=[bufs[0]], body=_macs(3), label="a")
    b, = eq.launch(a, pe_b, args=[bufs[1]], body=_macs(1), label="b")
    c, = eq.launch(start, pe_b, args=[bufs[2]], body=_macs(2), label="c")
    eq.await_(eq.control_and([b, c]))
    ir.verify(module)
    inputs = {f"buf{k}": np.array([k + 2], np.int32) for k in range(3)}
    return module, inputs


def returns_captured():
    """A launch returns an index and a datum; a second launch captures
    both results (bound to futures when it is issued) and depends on
    the first."""
    module, eq = empty_program()
    regs = eq.create_mem("Register", 64, ir.i32, name="regs")
    out = eq.alloc(regs, [4], ir.i32, name="out")
    pe_a = eq.create_proc("MAC", name="pe_a")
    pe_b = eq.create_proc("MAC", name="pe_b")
    start = eq.control_start()

    def produce(b, buf):
        eq_b = EQueueBuilder(b)
        two = arith.constant(b, 2, ir.index)
        where = arith.addi(b, two, arith.constant(b, 1, ir.index))
        x = eq_b.read_element(buf, [two])
        y, = eq_b.op("mac", [x, x, x], [x.type])
        return [where, y]

    def consume(b, where, y, buf):
        eq_b = EQueueBuilder(b)
        z, = eq_b.op("mac", [y, y, y], [y.type])
        eq_b.write_element(z, buf, [where])

    first, where, y = eq.launch(
        start, pe_a, args=[out], body=produce, label="produce"
    )
    second, = eq.launch(
        first, pe_b, args=[where, y, out], body=consume, label="consume"
    )
    eq.await_(second)
    ir.verify(module)
    return module, {"out": np.array([1, 2, 3, 4], np.int32)}


def _memcpy_behind_busy_dma():
    """Two copies out of a one-ported SRAM on one DMA — the second sits
    in the queue while the first runs — and a launch behind the second."""
    module, eq = empty_program()
    sram = eq.create_mem("SRAM", 64, ir.i32, name="sram")
    regs = eq.create_mem("Register", 64, ir.i32, name="regs")
    src = eq.alloc(sram, [8], ir.i32, name="src")
    first = eq.alloc(regs, [8], ir.i32, name="first")
    second = eq.alloc(regs, [8], ir.i32, name="second")
    dma = eq.create_dma(name="dma")
    pe = eq.create_proc("MAC", name="pe")
    start = eq.control_start()
    m1 = eq.memcpy(start, src, first, dma)
    m2 = eq.memcpy(start, src, second, dma)
    after, = eq.launch(m2, pe, args=[second], body=_macs(2), label="after")
    eq.await_(eq.control_and([m1, after]))
    ir.verify(module)
    return module, {"src": np.arange(1, 9, dtype=np.int32)}


def burst(launches, returning=False):
    """A kernel queues ``launches`` zero-cycle bodies on one PE and
    awaits the last: the PE runs them all in one scheduler callback.
    ``returning`` bodies return a value, so their plan is not
    inlineable and runs as a generator that happens not to suspend."""
    module, eq = empty_program()
    kernel = eq.create_proc("ARMr5", name="kernel")
    pe = eq.create_proc("MAC", name="pe")
    start = eq.control_start()

    def zero_cycles(b, i):
        doubled = arith.addi(b, i, i)  # index arithmetic is free
        return [doubled] if returning else None

    def main(b, pe_arg):
        eq_b = EQueueBuilder(b)

        def step(b2, i):
            eq2 = EQueueBuilder(b2)
            eq2.launch(eq2.control_start(), pe_arg, args=[i], body=zero_cycles)

        affine.for_loop(b, 0, launches - 1, body=step)
        last = eq_b.launch(
            eq_b.control_start(), pe_arg,
            args=[arith.constant(b, launches, ir.index)], body=zero_cycles,
        )[0]
        eq_b.await_(last)

    done, = eq.launch(start, kernel, args=[pe], body=main, label="main")
    eq.await_(done)
    ir.verify(module)
    return module, None


def _mixed_bodies():
    """Plain, value-returning and costly bodies alternating on one PE."""
    module, eq = empty_program()
    regs = eq.create_mem("Register", 64, ir.i32, name="regs")
    buf = eq.alloc(regs, [1], ir.i32, name="buf")
    pe = eq.create_proc("MAC", name="pe")
    start = eq.control_start()
    done = []
    for k in range(6):
        if k % 3 == 1:
            def body(b, buf_a, _k=k):
                return [arith.constant(b, _k, ir.index)]
        else:
            body = _macs(k % 3)
        done.append(
            eq.launch(start, pe, args=[buf], body=body, label=f"l{k}")[0]
        )
    eq.await_(eq.control_and(done))
    ir.verify(module)
    return module, {"buf": np.array([3], np.int32)}


def _toy():
    module = ir.parse_module(TOY.read_text())
    ir.verify(module)
    return module, {"sram_buf": np.array([1, 2, 3, 4], np.int32)}


# ---------------------------------------------------------------------------
# Bodies that block (recorded while every blocked access, ``await`` and
# ``return_values`` still went through the general handlers and plan
# replay: the oracle of ``tests/sim/test_suspending_bodies.py``)
# ---------------------------------------------------------------------------

#: Entries of the hot bodies below: past ``plan.TIER_UP_EXECUTIONS``, so
#: a default run generates their code part-way.
HOT = 72


def _nest(racing=False):
    """A three-deep ``affine.for`` nest — 3 x 4 x 6 = ``HOT`` innermost
    iterations — whose every read and write waits on a one-cycle SRAM.
    The read of ``flag`` comes
    after three cycles of arithmetic: its value is taken *before* those
    cycles are flushed.  ``racing``: a second processor adds to ``flag``
    every fifth cycle — out of step with the nest's twelve — so a value
    taken after the flush is, more often than not, a different one."""
    module, eq = empty_program()
    sram = eq.create_mem("SRAM", 512, ir.i32, name="sram")
    side = eq.create_mem("SRAM", 8, ir.i32, name="side")
    src = eq.alloc(sram, [3, 4, 6], ir.i32, name="src")
    acc = eq.alloc(sram, [3, 4], ir.i32, name="acc")
    seen = eq.alloc(sram, [3, 4, 6], ir.i32, name="seen")
    flag = eq.alloc(side, [1], ir.i32, name="flag")
    pe = eq.create_proc("MAC", name="pe")
    start = eq.control_start()

    def nest(b, src_a, acc_a, seen_a, flag_a):
        zero = arith.constant(b, 0, ir.index)

        def innermost(b3, i, j, k):
            eq3 = EQueueBuilder(b3)
            x = eq3.read_element(src_a, [i, j, k])
            y = arith.addi(b3, arith.muli(b3, x, x), x)
            total = arith.addi(b3, eq3.read_element(acc_a, [i, j]), y)
            eq3.write_element(total, acc_a, [i, j])
            y = arith.addi(b3, arith.addi(b3, arith.addi(b3, y, x), x), x)
            eq3.write_element(
                arith.addi(b3, y, eq3.read_element(flag_a, [zero])),
                seen_a, [i, j, k],
            )

        affine.for_loop(b, 0, 3, body=lambda b1, i: affine.for_loop(
            b1, 0, 4, body=lambda b2, j: affine.for_loop(
                b2, 0, 6, body=lambda b3, k: innermost(b3, i, j, k))))

    done = [
        eq.launch(start, pe, args=[src, acc, seen, flag], body=nest,
                  label="nest")[0]
    ]
    if racing:
        racer = eq.create_proc("MAC", name="racer")

        def rewrite(b, flag_a):
            zero = arith.constant(b, 0, ir.index)
            one = arith.constant(b, 1, ir.i32)

            def step(b1, n):
                eq1 = EQueueBuilder(b1)
                value = eq1.read_element(flag_a, [zero])
                for _ in range(3):
                    value = arith.addi(b1, value, one)
                eq1.write_element(value, flag_a, [zero])

            affine.for_loop(b, 0, 2 * HOT, body=step)

        done.append(
            eq.launch(start, racer, args=[flag], body=rewrite, label="racer")[0]
        )
    eq.await_(eq.control_and(done))
    ir.verify(module)
    return module, {
        "src": np.arange(1, HOT + 1, dtype=np.int32).reshape(3, 4, 6),
        "flag": np.array([1], np.int32),
    }


def _connection_contended():
    """Two processors' scalar reads share one two-bytes-a-cycle
    connection: one reads a register file through it (only the
    connection makes it wait), the other an SRAM (the memory's queue,
    then the connection's)."""
    module, eq = empty_program()
    sram = eq.create_mem("SRAM", 64, ir.i32, name="sram")
    regs = eq.create_mem("Register", 256, ir.i32, name="regs")
    link = eq.create_connection("Streaming", 2)
    sources = [
        eq.alloc(regs, [12], ir.i32, name="near"),
        eq.alloc(sram, [12], ir.i32, name="far"),
    ]
    start = eq.control_start()
    done = []
    for k, source in enumerate(sources):
        pe = eq.create_proc("MAC", name=f"pe{k}")
        out = eq.alloc(regs, [12], ir.i32, name=f"out{k}")

        def body(b, source_a, out_a, link_a):
            def step(b1, i):
                eq1 = EQueueBuilder(b1)
                x = eq1.read_element(source_a, [i], conn=link_a)
                eq1.write_element(arith.addi(b1, x, x), out_a, [i])
                eq1.write_element(x, source_a, [i], conn=link_a)

            affine.for_loop(b, 0, 12, body=step)

        done.append(
            eq.launch(start, pe, args=[source, out, link], body=body,
                      label=f"pe{k}")[0]
        )
    eq.await_(eq.control_and(done))
    ir.verify(module)
    data = np.arange(3, 15, dtype=np.int32)
    return module, {"near": data, "far": data[::-1].copy()}


def _hot_kernel(step):
    """A kernel that runs ``step(builder, i, pe, dma, src, out)`` —
    a loop body — ``HOT`` times."""
    module, eq = empty_program()
    sram = eq.create_mem("SRAM", 256, ir.i32, name="sram")
    regs = eq.create_mem("Register", 256, ir.i32, name="regs")
    src = eq.alloc(sram, [HOT], ir.i32, name="src")
    out = eq.alloc(regs, [HOT], ir.i32, name="out")
    kernel = eq.create_proc("ARMr5", name="kernel")
    pe = eq.create_proc("MAC", name="pe")
    dma = eq.create_dma(name="dma")
    start = eq.control_start()

    def main(b, *captured):
        affine.for_loop(
            b, 0, HOT, body=lambda b1, i: step(b1, i, *captured)
        )

    done, = eq.launch(
        start, kernel, args=[pe, dma, src, out], body=main, label="main"
    )
    eq.await_(done)
    ir.verify(module)
    return module, {"src": np.arange(2, HOT + 2, dtype=np.int32)}


def _await_hot():
    """The kernel launches a body per iteration that itself launches a
    read onto the DMA and *awaits* it: ``HOT`` entries of a body with an
    ``equeue.await`` in it."""

    def step(b, i, pe, dma, src, out):
        eq = EQueueBuilder(b)

        def fetch(b2, i2, src2, out2):
            eq2 = EQueueBuilder(b2)
            eq2.write_element(eq2.read_element(src2, [i2]), out2, [i2])

        def waits(b1, i1, dma1, src1, out1):
            eq1 = EQueueBuilder(b1)
            fetched, = eq1.launch(
                eq1.control_start(), dma1, args=[i1, src1, out1], body=fetch
            )
            eq1.await_(fetched)
            x = eq1.read_element(out1, [i1])
            eq1.write_element(arith.muli(b1, x, x), out1, [i1])

        eq.launch(
            eq.control_start(), pe, args=[i, dma, src, out], body=waits
        )

    return _hot_kernel(step)


def _returns_hot():
    """``HOT`` entries of a body that returns values, each consumed by
    the launch that depends on it."""

    def step(b, i, pe, dma, src, out):
        eq = EQueueBuilder(b)

        def produce(b1, i1, src1):
            x = EQueueBuilder(b1).read_element(src1, [i1])
            return [arith.addi(b1, x, x), i1]

        def consume(b1, doubled, where, out1):
            EQueueBuilder(b1).write_element(doubled, out1, [where])

        produced, doubled, where = eq.launch(
            eq.control_start(), pe, args=[i, src], body=produce
        )
        eq.launch(produced, dma, args=[doubled, where, out], body=consume)

    return _hot_kernel(step)


def _memcpy_hot():
    """A one-element ``memcpy`` per iteration of the kernel's hot loop,
    issued after a cycle of arithmetic (so the issue has a flush to
    make) and awaited in the loop."""

    def step(b, i, pe, dma, src, out):
        eq = EQueueBuilder(b)
        x = eq.read_element(out, [i])
        eq.write_element(arith.addi(b, x, x), out, [i])
        copied = eq.memcpy(
            eq.control_start(), src, out, dma, offsets=[i, i], count=1
        )
        eq.await_(copied)

    return _hot_kernel(step)


BLOCKING = {
    "nest-blocking": _nest,
    "nest-racing": lambda: _nest(racing=True),
    "connection-contended": _connection_contended,
    "await-hot": _await_hot,
    "returns-hot": _returns_hot,
    "memcpy-hot": _memcpy_hot,
}

HAND_WRITTEN = {
    "late-dep": _late_dep,
    "returns-captured": returns_captured,
    "memcpy-behind-busy-dma": _memcpy_behind_busy_dma,
    "mixed-bodies": _mixed_bodies,
    "burst-50": lambda: burst(50),
    "burst-50-returning": lambda: burst(50, returning=True),
    "toy-accelerator": _toy,
    **BLOCKING,
}


# ---------------------------------------------------------------------------
# Programs whose hot body suspends
# ---------------------------------------------------------------------------


def _two_pe_program(loop_body, n=8):
    """Two PEs each running ``loop_body`` ``n`` times over one shared
    SRAM source buffer and their own register destination."""
    module, eq = empty_program()
    sram = eq.create_mem("SRAM", 256, ir.i32, name="sram")
    regs = eq.create_mem("Register", 256, ir.i32, name="regs")
    src = eq.alloc(sram, [n], ir.i32, name="src")
    start = eq.control_start()
    done = []
    for k in range(2):
        pe = eq.create_proc("MAC", name=f"pe{k}")
        dst = eq.alloc(regs, [n], ir.i32, name=f"dst{k}")

        def body(b, src_a, dst_a):
            affine.for_loop(
                b, 0, n, body=lambda b2, i: loop_body(b2, i, src_a, dst_a)
            )

        done.append(
            eq.launch(start, pe, args=[src, dst], body=body, label=f"pe{k}")[0]
        )
    eq.await_(eq.control_and(done))
    ir.verify(module)
    return module, {"src": np.arange(1, n + 1, dtype=np.int32)}


def _contended_read(b, i, src, dst):
    # Both PEs read the one-ported SRAM in the same cycles: the read
    # takes the general handler and suspends on the memory's queue.
    eq = EQueueBuilder(b)
    x = eq.read_element(src, [i])
    eq.write_element(arith.muli(b, x, x), dst, [i])


def _pending_flush(b, i, src, dst):
    # The addi leaves a pending cycle, so the control_start that
    # follows must flush — a suspension in the middle of the body.
    eq = EQueueBuilder(b)
    x = eq.read_element(dst, [i])
    eq.write_element(arith.addi(b, x, x), dst, [i])
    eq.control_start()
    y = eq.read_element(src, [i])
    eq.write_element(arith.addi(b, y, x), dst, [i])


#: Two programs whose hot bodies suspend: a contended read; a flush
#: with pending cycles.
SUSPENDING = {
    "contended-read": lambda: _two_pe_program(_contended_read),
    "pending-flush": lambda: _two_pe_program(_pending_flush),
}


# ---------------------------------------------------------------------------
# Same-shape launch sites
# ---------------------------------------------------------------------------


def array_program(site_body, sites, shape=(8,), label="pe{}", src="SRAM"):
    """``sites`` PEs, each launched once with ``site_body(b, k, *args)``
    over one shared input ``src`` (in a one-ported SRAM unless told
    otherwise) and one register file ``out``."""
    module, eq = empty_program()
    sram = eq.create_mem(src, 256, ir.i32, name="sram")
    regs = eq.create_mem("Register", 256, ir.i32, name="regs")
    src = eq.alloc(sram, list(shape), ir.i32, name="src")
    out = eq.alloc(regs, [sites, *shape], ir.i32, name="out")
    start = eq.control_start()
    done = []
    for k in range(sites):
        pe = eq.create_proc("MAC", name=f"pe{k}")
        done.append(
            eq.launch(
                start, pe, args=[src, out],
                body=lambda b, s, o, _k=k: site_body(b, _k, s, o),
                label=label.format(k),
            )[0]
        )
    eq.await_(eq.control_and(done))
    ir.verify(module)
    data = np.arange(1, int(np.prod(shape)) + 1, dtype=np.int32)
    return module, {"src": data.reshape(shape)}


def every_kind_of_constant(b, k, src, out):
    """A body whose sites differ in a folded index (``row``), a data
    constant read after a suspension (``bias``), a branch condition
    (``k % 2``) and a constant inside a branch — and agree in a constant
    inside the loop and in the loop bounds, which stay in the key."""
    eq = EQueueBuilder(b)
    row = arith.constant(b, k, ir.index)
    bias = arith.constant(b, 10 * (k + 1), ir.i32)
    parity = arith.constant(b, k % 2, ir.index)
    zero = arith.constant(b, 0, ir.index)

    def step(b2, i):
        eq2 = EQueueBuilder(b2)
        one = arith.constant(b2, 1, ir.i32)
        x = eq2.read_element(src, [i])  # contended: suspends
        y = arith.addi(b2, arith.addi(b2, x, bias), one)
        eq2.write_element(y, out, [row, i])

    affine.for_loop(b, 0, 8, body=step)

    def odd(b1):
        scale = arith.constant(b1, k + 2, ir.i32)
        eq1 = EQueueBuilder(b1)
        first = eq1.read_element(out, [row, zero])
        eq1.write_element(arith.muli(b1, first, scale), out, [row, zero])

    scf.if_op(b, arith.cmpi(b, "ne", parity, zero), odd)


# ---------------------------------------------------------------------------
# Loops and element accesses no registered scenario reaches
# ---------------------------------------------------------------------------


def _loop_program(memory_kind: str, alias: bool = False):
    """A launch with a loop doing a map (dst[i] = 2*src[i]) and an integer
    reduction (acc[0] += src[i]) over 16 elements."""
    module, eq = empty_program()
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
    module, eq = empty_program()
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


def _blockarg_store():
    """A loop storing a captured scalar (a BlockArgument) at a
    loop-invariant index."""
    module, eq = empty_program()
    pe = eq.create_proc("MAC", name="pe")
    mem = eq.create_mem("Register", 64, ir.i32, name="mem")
    buf = eq.alloc(mem, [4], ir.i32, name="buf")
    seven = arith.constant(eq.b, 7, ir.i32)

    def body(b, buf_a, x_a):
        def loop(b2, i):
            zero = arith.constant(b2, 0, ir.index)
            EQueueBuilder(b2).write_element(x_a, buf_a, [zero])

        affine.for_loop(b, 0, 4, body=loop)

    done, = eq.launch(
        eq.control_start(), pe, args=[buf, seven], body=body, label="w"
    )
    eq.await_(done)
    ir.verify(module)
    return module, None


# ---------------------------------------------------------------------------
# Captured indices of every runtime type
# ---------------------------------------------------------------------------

# ``index`` values of every runtime type a body can be entered with.
for _name, _cast in (
    ("as_int", int), ("as_bool", bool), ("as_int64", np.int64),
):
    register_op_function(
        OpFunction(_name, 0, lambda x, _cast=_cast: (_cast(x),)), replace=True
    )


def _site_body(b, k, where, src, out, bias=7, limit=3, scale=2):
    """One shape for every ``k``: the captured index ``where`` is
    arithmetic operand, read coordinate, branch input and — bare — write
    coordinate, so a ``bool`` or ``numpy.int64`` taken for an ``int``
    shows in ``out``."""
    eq = EQueueBuilder(b)
    row = arith.constant(b, k, ir.index)
    one = arith.constant(b, 1, ir.index)
    col = arith.addi(b, where, one)
    x = eq.read_element(src, [col])
    y = arith.addi(b, x, arith.constant(b, bias, ir.i32))

    def low(b1):
        z = arith.muli(b1, y, arith.constant(b1, scale, ir.i32))
        EQueueBuilder(b1).write_element(z, out, [row, where, col])

    def high(b1):
        EQueueBuilder(b1).write_element(y, out, [row, where, col])

    scf.if_op(b, arith.cmpi(b, "slt", y, arith.constant(b, limit, ir.i32)),
              low, high)


def captured_index_program(sites):
    """``sites``: one ``(kind, value, constants)`` per PE.  Each PE runs
    the same-shape body once, capturing an ``index`` of the given
    runtime kind — ``int``, ``bool``, ``int64`` through a casting op,
    ``future`` as the result of an earlier launch."""
    module, eq = empty_program()
    sram = eq.create_mem("SRAM", 64, ir.i32, name="sram")
    regs = eq.create_mem("Register", 256, ir.i32, name="regs")
    src = eq.alloc(sram, [4], ir.i32, name="src")
    out = eq.alloc(regs, [len(sites), 2, 4], ir.i32, name="out")
    feeder = eq.create_proc("MAC", name="feeder")
    start = eq.control_start()
    done = []
    for k, (kind, value, constants) in enumerate(sites):
        pe = eq.create_proc("MAC", name=f"pe{k}")
        dep = start
        if kind == "future":
            dep, where = eq.launch(
                start, feeder,
                body=lambda b, _v=value: [arith.constant(b, _v, ir.index)],
            )
        else:
            plain = arith.constant(eq.b, value, ir.index)
            where, = eq.op(f"as_{kind}", [plain], [ir.index])
        done.append(
            eq.launch(
                dep, pe, args=[where, src, out],
                body=lambda b, w, s, o, _k=k, _c=constants: _site_body(
                    b, _k, w, s, o, **_c
                ),
                label=f"site{k}",
            )[0]
        )
    eq.await_(eq.control_and(done))
    ir.verify(module)
    return module, {"src": np.array([5, -9, 2, 11], np.int32)}


# ---------------------------------------------------------------------------
# An op the plan compiler has no description of
# ---------------------------------------------------------------------------


class ExtendedEngine(Engine):
    """The §IV-D way of adding an op: a handler-table entry.  The plan
    compiler has no description of ``ext.tick`` (two cycles), so its
    step is the handler, pre-bound (``K_ANY``)."""

    def _build_handler_table(self):
        table = super()._build_handler_table()
        table["ext.tick"] = lambda ex, op, env: 2
        return table


def extension_op_program():
    """A kernel whose hot loop ticks and then waits on an SRAM, and
    launches a body that ticks too — and awaits it, so the kernel's own
    body is generated as a generator around a loop body it cannot
    flatten."""
    module, eq = empty_program()
    sram = eq.create_mem("SRAM", 64, ir.i32, name="sram")
    buf = eq.alloc(sram, [4], ir.i32, name="buf")
    kernel = eq.create_proc("ARMr5", name="kernel")
    pe = eq.create_proc("MAC", name="pe")

    def ticks(b, buf_a):
        b.create("ext.tick", [], [])
        zero = arith.constant(b, 0, ir.index)
        eq1 = EQueueBuilder(b)
        eq1.write_element(eq1.read_element(buf_a, [zero]), buf_a, [zero])

    def main(b, pe_a, buf_a):
        eq_b = EQueueBuilder(b)

        def step(b1, i):
            b1.create("ext.tick", [], [])
            eq1 = EQueueBuilder(b1)
            x = eq1.read_element(buf_a, [i])
            eq1.write_element(arith.addi(b1, x, x), buf_a, [i])

        affine.for_loop(b, 0, 4, body=step)
        launched, = eq_b.launch(
            eq_b.control_start(), pe_a, args=[buf_a], body=ticks
        )
        eq_b.await_(launched)

    done, = eq.launch(eq.control_start(), kernel, args=[pe, buf], body=main)
    eq.await_(done)
    return module, {"buf": np.arange(1, 5, dtype=np.int32)}


# ---------------------------------------------------------------------------
# The corpus
# ---------------------------------------------------------------------------


class Program(NamedTuple):
    """``build() -> (module, inputs)``, the engine options it runs under,
    and what its reference run must show beside agreeing."""

    build: Callable
    options: dict = {}
    check: Optional[Callable[[SimulationResult], None]] = None


def scenario_program(name, seed=5, **overrides):
    """A registered scenario's configuration as a corpus program, held to
    the scenario's own reference-statistics oracle."""
    scenario = get_scenario(name)
    cfg = scenario.configure(**overrides)
    return Program(
        lambda: (scenario.build(cfg), scenario.make_inputs(cfg, seed)),
        check=lambda result: scenario.check(cfg, result, seed),
    )


def _scenario_points():
    """``name:point -> Program``: every scenario's default configuration
    and the last point of its grid; all four stages of ``pipeline`` (its
    grid is the stage axis: the lowering ladder)."""
    points = {}
    for name in scenario_names():
        scenario = get_scenario(name)
        points[f"{name}:default"] = scenario_program(name)
        grid = scenario.grid_points()
        for cfg in grid if name == "pipeline" else grid[-1:]:
            point = {axis: getattr(cfg, axis) for axis in scenario.default_grid()}
            label = ",".join(f"{axis}={value}" for axis, value in point.items())
            points[f"{name}:{label}"] = scenario_program(name, **point)
    return points


def _systolic(dataflow, height, width, dims):
    rng = np.random.default_rng(12345)
    ifmap = rng.integers(-3, 4, (dims.c, dims.h, dims.w)).astype(np.int32)
    weights = rng.integers(
        -3, 4, (dims.n, dims.c, dims.fh, dims.fw)
    ).astype(np.int32)

    def build():
        program = build_systolic_program(
            SystolicConfig(dataflow, height, width, dims)
        )
        return program.module, program.prepare_inputs(ifmap, weights)

    def check(result):
        # Zero-delay resumes ride the microtask ring, short read/write
        # latencies the calendar wheel.
        assert result.summary.microtask_events > 0
        assert result.summary.wheel_events > 0
        program = build_systolic_program(
            SystolicConfig(dataflow, height, width, dims)
        )
        np.testing.assert_array_equal(
            program.extract_ofmap(result), conv2d_reference(ifmap, weights)
        )

    return Program(build, check=check)


def _fir(n_cores, bandwidth):
    cfg = FIRConfig(n_cores=n_cores, bandwidth=bandwidth, samples=64)
    rng = np.random.default_rng(12345)
    samples = rng.integers(-8, 9, cfg.samples + cfg.taps).astype(np.int32)
    coeffs = rng.integers(-4, 5, cfg.taps).astype(np.int32)

    def build():
        program = build_fir_program(cfg)
        return program.module, program.prepare_inputs(samples, coeffs)

    def check(result):
        np.testing.assert_array_equal(
            build_fir_program(cfg).extract_output(result),
            fir_reference(samples, coeffs, cfg.samples),
        )

    return Program(build, check=check)


def _loop(memory, alias=False):
    data = np.random.default_rng(12345).integers(-50, 50, 16).astype(np.int32)

    def check(result):
        doubled = result.buffer("src" if alias else "dst")
        np.testing.assert_array_equal(doubled, data * 2)
        assert result.buffer("acc")[0] == int(data.sum())
        if memory == "Register":
            # Two charged data ops (muli, addi) per iteration.
            assert result.cycles == 32

    return Program(lambda: (_loop_program(memory, alias), {"src": data}),
                   check=check)


def _memref(dialect, backing):
    def check(result):
        dst = result.buffer("dst").tolist()
        assert dst[0][:4] == [1, 2, 5, 10] and set(dst[1]) == {3}
        assert result.buffer("src").tolist()[:3] == [3, 1, 4]
        # The SRAM makes every access wait; the ideal store none.
        assert (result.cycles > 6 * 72) == (backing == "SRAM")

    return Program(lambda: (_memref_program(dialect, backing), None),
                   check=check)


def _truncated_at_40(result):
    assert result.truncated and result.cycles == 40


def _rare_ops():
    """``affine.parallel``, ``control_or`` and ``equeue.dealloc`` in launch
    bodies: the kernel walks a 4 x 4 ``affine.parallel`` — one point after
    another, an ``addi`` each — then gates a 1-cycle launch on whichever
    of a 2-cycle and a 9-cycle launch ends first, and frees ``scratch``."""
    module, eq = empty_program()
    regs = eq.create_mem("Register", 64, ir.i32, name="regs")
    grid = eq.alloc(regs, [4, 4], ir.i32, name="grid")
    buf = eq.alloc(regs, [1], ir.i32, name="buf")
    scratch = eq.alloc(regs, [4], ir.i32, name="scratch")
    kernel = eq.create_proc("ARMr5", name="kernel")
    pes = [eq.create_proc("MAC", name=n) for n in ("fast", "slow", "gated")]

    def main(b, grid_a, buf_a, scratch_a, fast, slow, gated):
        eq_b = EQueueBuilder(b)

        def point(b2, i, j):
            eq2 = EQueueBuilder(b2)
            x = eq2.read_element(grid_a, [i, j])
            one = arith.constant(b2, 1, ir.i32)
            eq2.write_element(arith.addi(b2, x, one), grid_a, [i, j])

        affine.parallel(b, [0, 0], [4, 4], body=point)
        start = eq_b.control_start()
        first, = eq_b.launch(start, fast, args=[buf_a], body=_macs(2))
        second, = eq_b.launch(start, slow, args=[buf_a], body=_macs(9))
        either = eq_b.control_or([first, second])
        eq_b.await_(eq_b.launch(either, gated, args=[buf_a], body=_macs(1))[0])
        eq_b.dealloc(scratch_a)

    done, = eq.launch(
        eq.control_start(), kernel, args=[grid, buf, scratch, *pes],
        body=main, label="main",
    )
    eq.await_(done)
    ir.verify(module)
    return module, None


def _rare_ops_check(result):
    assert result.buffer("grid").tolist() == [[1] * 4] * 4
    # 16 sequential points; the gated launch runs at 18 and the slow one
    # ends at 16 + 9.
    assert result.cycles == 25


# ---------------------------------------------------------------------------
# Fork–join steps: launches, their control_and and its await as one step
# ---------------------------------------------------------------------------


def _fork_join_edges():
    """A kernel's hot loop whose every iteration ends in one fork–join
    step at its edges: ``slow`` is still running ``busy`` (the kernel's
    pending cycle is flushed before the step, so ``busy`` has started)
    when its member is queued behind it; two members go to ``pe0``,
    still running ``produce``; one waits on a ``memcpy`` that has not
    finished; and the members capture different values in different
    orders, one of them a ``Future`` — the value ``produce`` returns."""
    module, eq = empty_program()
    sram = eq.create_mem("SRAM", 256, ir.i32, name="sram")
    regs = eq.create_mem("Register", 1024, ir.i32, name="regs")
    src = eq.alloc(sram, [HOT], ir.i32, name="src")
    staged = eq.alloc(regs, [HOT], ir.i32, name="staged")
    out = eq.alloc(regs, [4, HOT], ir.i32, name="out")
    acc = eq.alloc(regs, [1], ir.i32, name="acc")
    kernel = eq.create_proc("ARMr5", name="kernel")
    pes = [eq.create_proc("MAC", name=n) for n in ("pe0", "pe1", "slow")]
    dma = eq.create_dma(name="dma")

    def produce(b, i, src_a):
        x = EQueueBuilder(b).read_element(src_a, [i])
        return [arith.addi(b, x, x)]

    def store(b, k, value, out_a, i):
        row = arith.constant(b, k, ir.index)
        EQueueBuilder(b).write_element(value, out_a, [row, i])

    def read(b, buffer, i):
        return EQueueBuilder(b).read_element(buffer, [i])

    #: Member ``k``'s body, storing at out[k, i]; the last captures in
    #: another order.
    bodies = [
        lambda b, i, v, o: store(b, 0, v, o, i),
        lambda b, i, s, o: store(b, 1, arith.muli(b, *[read(b, s, i)] * 2), o, i),
        lambda b, i, s, o: store(b, 2, read(b, s, i), o, i),
        lambda b, o, i: store(
            b, 3, b.create("arith.index_cast", [i], [ir.i32]).result(), o, i
        ),
    ]

    def main(b, src_a, staged_a, out_a, acc_a, pe0, pe1, slow, dma_a):
        def step(b1, i):
            eq1 = EQueueBuilder(b1)
            start = eq1.control_start()
            eq1.launch(start, slow, args=[acc_a], body=_macs(4), label="busy")
            produced, value = eq1.launch(
                start, pe0, args=[i, src_a], body=produce, label="produce"
            )
            copied = eq1.memcpy(
                start, src_a, staged_a, dma_a, offsets=[i, i], count=1
            )
            seven = arith.constant(b1, 7, ir.i32)
            arith.muli(b1, seven, seven)  # a pending cycle to flush
            members = [
                (produced, pe0, [i, value, out_a]),
                (start, pe0, [i, src_a, out_a]),
                (copied, pe1, [i, staged_a, out_a]),
                (start, slow, [out_a, i]),
            ]
            done = [
                eq1.launch(dep, target, args=args, body=bodies[k],
                           label=f"member{k}")[0]
                for k, (dep, target, args) in enumerate(members)
            ]
            eq1.await_(eq1.control_and(done))

        affine.for_loop(b, 0, HOT, body=step)

    finished, = eq.launch(
        eq.control_start(), kernel,
        args=[src, staged, out, acc, *pes, dma], body=main, label="main",
    )
    eq.await_(finished)
    ir.verify(module)
    return module, {"src": np.arange(3, HOT + 3, dtype=np.int32)}


def _fork_join_check(result):
    src = np.arange(3, HOT + 3)
    index = np.arange(HOT)
    np.testing.assert_array_equal(
        result.buffer("out"), [2 * src, src * src, src, index]
    )


def _fork_join_near_miss(kind):
    """A fork–join step in a hot loop but for one thing, which keeps it
    a launch step each and its join and await steps: ``awaited-twice``
    (the first member's done is awaited again after the join),
    ``late-await`` (an op between the join and its await) or
    ``returns`` (the first member returns a value)."""

    def step(b, i, pe, dma, src, out):
        eq = EQueueBuilder(b)
        start = eq.control_start()

        def copy(b1, i1, src1, out1):
            eq1 = EQueueBuilder(b1)
            x = eq1.read_element(src1, [i1])
            eq1.write_element(x, out1, [i1])
            return [x] if kind == "returns" else None

        def idle(b1, i1):
            arith.addi(b1, i1, i1)

        first = eq.launch(start, pe, args=[i, src, out], body=copy)[0]
        second, = eq.launch(start, dma, args=[i], body=idle)
        join = eq.control_and([first, second])
        if kind == "late-await":
            arith.constant(b, 0, ir.index)
        eq.await_(join)
        if kind == "awaited-twice":
            eq.await_(first)

    return _hot_kernel(step)


#: Programs with a fork–join step in a hot loop, and their near misses:
#: :func:`repro.sim.plan.step_ops` makes one item of the first's step
#: and of none of the others'.
FORK_JOIN = {
    "fork-join-edges": Program(_fork_join_edges, check=_fork_join_check),
    **{
        f"fork-join-miss:{kind}": Program(
            lambda kind=kind: _fork_join_near_miss(kind),
            check=lambda result: np.testing.assert_array_equal(
                result.buffer("out"), np.arange(2, HOT + 2)
            ),
        )
        for kind in ("awaited-twice", "late-await", "returns")
    },
}


#: The programs of the table, by name: a run of each on every backend
#: replays its row.
RECORDED_PROGRAMS = {
    **_scenario_points(),
    **{
        name: Program(build)
        for name, build in {**SUSPENDING, **HAND_WRITTEN}.items()
    },
}

CORPUS = {
    **RECORDED_PROGRAMS,
    # Links with no bandwidth bound, and the narrowest: no corpus point
    # above has them.
    **{
        f"mesh:rows=3,cols=3,rounds=3,link_bandwidth={width}":
            scenario_program("mesh", rows=3, cols=3, rounds=3,
                             link_bandwidth=width)
        for width in (0, 1)
    },
    "every-constant": Program(lambda: array_program(every_kind_of_constant, 4)),
    "loop:Register": _loop("Register"),
    "loop:SRAM": _loop("SRAM"),
    "loop:Register-aliased": _loop("Register", alias=True),
    "loop:blockarg-store": Program(
        _blockarg_store,
        check=lambda result: np.testing.assert_array_equal(
            result.buffer("buf"), [7, 0, 0, 0]
        ),
    ),
    **{
        f"{dialect}:{backing}": _memref(dialect, backing)
        for dialect in ("memref", "affine")
        for backing in ("Ideal", "SRAM")
    },
    "systolic-WS-2x2:max_cycles=40": Program(
        _systolic("WS", 2, 2, ConvDims(n=1, c=2, h=6, w=6, fh=2, fw=2)).build,
        {"max_cycles": 40},
        check=_truncated_at_40,
    ),
    **{
        f"systolic-{dataflow}-3x3": _systolic(
            dataflow, 3, 3, ConvDims(n=2, c=2, h=6, w=6, fh=2, fw=2)
        )
        for dataflow in ("WS", "IS", "OS")
    },
    "fir-1-core": _fir(1, None),
    "fir-4-cores": _fir(4, 4),
    "rare-ops": Program(_rare_ops, check=_rare_ops_check),
    **FORK_JOIN,
}


# ---------------------------------------------------------------------------
# Pass contracts: every lowering pass as a checked refinement
# ---------------------------------------------------------------------------

#: How a refined run's cycles may stand to its base run's; a row that
#: pins both counts gives the ``(base, refined)`` pair instead.
CYCLE_RELATIONS = {"==": operator.eq, "<=": operator.le, "any": lambda *cycles: True}


class Contract(NamedTuple):
    """A lowering pipeline held to a simpler one.  ``build()`` makes the
    program twice: ``base`` (enough passes to make it simulable) runs on
    one copy, ``refined`` on the other, and both are simulated on
    ``inputs``.  The refined run keeps every buffer of the base run but
    those of ``changes``, each equal to its oracle of the refined run's
    buffers, and its cycles stand in ``cycles`` to the base run's (a
    relation of :data:`CYCLE_RELATIONS`, or the exact pair)."""

    build: Callable
    base: str
    refined: str
    inputs: dict = {}
    cycles: Union[str, tuple] = "=="
    changes: dict = {}


def refine(contract: Contract):
    """Hold ``contract``'s refined pipeline to its base.  Each pipeline
    verifies after every pass; the refined module prints∘parses to
    itself and differs from the base one (a refinement that changes
    nothing checks nothing).  Returns the two runs, base first."""
    texts, runs = [], []
    for pipeline in (contract.base, contract.refined):
        module = contract.build()
        PassManager.parse(pipeline).run(module)
        inputs = {name: array.copy() for name, array in contract.inputs.items()}
        texts.append(ir.print_op(module))
        runs.append(run(lambda: (module, inputs), REFERENCE))
    base, refined = runs
    assert texts[1] != texts[0], "the refinement changed nothing"
    assert ir.print_op(ir.parse_module(texts[1])) == texts[1], "print∘parse"
    got = refined.seen["buffers"]
    expected = dict(base.seen["buffers"])
    for name, oracle in contract.changes.items():
        expected[name] = np.asarray(oracle(got)).tolist()
    differs = sorted(
        name for name in expected.keys() | got.keys()
        if got.get(name) != expected.get(name)
    )
    assert not differs, f"buffers {differs} differ from the base run's or oracle"
    cycles = base.result.cycles, refined.result.cycles
    relation = contract.cycles
    assert (
        cycles == relation if isinstance(relation, tuple)
        else CYCLE_RELATIONS[relation](cycles[1], cycles[0])
    ), f"{cycles[1]} cycles against the base run's {cycles[0]}: not {relation}"
    return base, refined


def uncovered_passes() -> list:
    """Registered passes that no contract's refined pipeline names."""
    named = {
        name
        for contract in PASS_CONTRACTS.values()
        for name, _ in parse_pipeline(contract.refined)
    }
    return sorted(set(registered_passes()) - named)


#: Fig. 11's workloads of the linalg-against-affine bound.
CONVS = (
    ConvDims(n=2, c=2, h=5, w=5, fh=2, fw=2),
    ConvDims(n=4, c=1, h=7, w=7, fh=3, fw=3),
    ConvDims(n=1, c=3, h=6, w=4, fh=2, fw=2),
)

#: Fig. 11's linalg and affine stages, on SRAM buffers.
LINALG, AFFINE = PIPELINES["linalg"], PIPELINES["affine"]
MEMCPY = "memcpy{src=src,dst=dst,dma=dma}"


#: The lowering pipeline's input: structure, ``memref`` buffers and one
#: ``linalg.conv2d``.
conv_program = LoweringPipeline(CONVS[0])._conv_module


def _conv(dims: ConvDims, base: str, refined: str, cycles="=="):
    pipeline = LoweringPipeline(dims)
    inputs = dict(zip(("ifmap", "weight"), pipeline.make_data()))
    return Contract(pipeline._conv_module, base, refined, inputs, cycles)


def _matmul_program():
    module, eq = empty_program()
    eq.create_proc("ARMr5", name="kernel")
    eq.create_mem("SRAM", 8192, ir.i32, name="sram")
    a, b, c = (memref.alloc(eq.b, d, ir.i32) for d in ([3, 4], [4, 5], [3, 5]))
    a.name_hint, b.name_hint, c.name_hint = "a", "b", "c"
    linalg.matmul(eq.b, a, b, c)
    return module


def staged_program(operand="dst"):
    """A kernel launch ``use`` reads ``operand`` (``dst``, a register
    file, unless named otherwise), writes its ``mac`` to ``out`` and
    returns it; ``src`` is an SRAM buffer of ``dst``'s type, for a
    copy."""
    module, eq = empty_program()
    kernel = eq.create_proc("ARMr5", name="kernel")
    eq.create_dma(name="dma")
    sram = eq.create_mem("SRAM", 1024, ir.i32, name="sram")
    regs = eq.create_mem("Register", 1024, ir.i32, name="regfile")
    src = eq.alloc(sram, [8], ir.i32, name="src")
    dst, out = (eq.alloc(regs, [8], ir.i32, name=name) for name in ("dst", "out"))

    def body(b, in_a, out_a):
        inner = EQueueBuilder(b)
        data = inner.read(in_a)
        value, = inner.op("mac", [data, data, data], [data.type])
        inner.write(value, out_a)
        return [value]

    done, _ = eq.launch(
        eq.control_start(), kernel, args=[{"src": src, "dst": dst}[operand], out],
        body=body, label="use",
    )
    eq.await_(done)
    return module


def parallel_program():
    """A top-level ``affine.parallel`` doubling ``buf[0:4]``, and a group
    ``grid`` of four PEs ``pe_0`` .. ``pe_3`` to unroll it onto."""
    module, eq = empty_program()
    pes = [eq.create_proc("MAC", name=f"pe_{i}") for i in range(4)]
    grid = eq.create_comp(" ".join(f"pe_{i}" for i in range(4)), pes)
    grid.name_hint = "grid"
    regs = eq.create_mem("Register", 64, ir.i32, name="regfile")
    buf = eq.alloc(regs, [8], ir.i32, name="buf")

    def body(b, iv):
        inner = EQueueBuilder(b)
        data = inner.read_element(buf, [iv])
        inner.write_element(arith.addi(b, data, data), buf, [iv])

    affine.parallel(eq.b, [0], [4], body=body)
    return module


def _extraction_program():
    """Launches on ``pe_{0}`` of ``row`` at index 1 and on ``row.pe_0``
    through a nested lookup: a wrong fold puts both on one PE, which
    serialises them."""
    module, eq = empty_program()
    row = eq.create_comp("pe_0 pe_1", [eq.create_proc("MAC") for _ in range(2)])
    cluster = eq.create_comp("row", [row])
    regs = eq.create_mem("Register", 64, ir.i32, name="regfile")
    one = arith.constant(eq.b, 1, ir.index)
    pes = (
        eq.b.create(
            "equeue.get_comp", [row, one], [eqt.proc], {"name_template": "pe_{0}"}
        ).result(),
        eq.get_comp(eq.get_comp(cluster, "row", eqt.comp), "pe_0", eqt.proc),
    )
    start = eq.control_start()
    done = [
        eq.launch(
            start, pe, args=[eq.alloc(regs, [1], ir.i32)], body=_macs(2 + k)
        )[0]
        for k, pe in enumerate(pes)
    ]
    eq.await_(eq.control_and(done))
    return module


_RNG = np.random.default_rng(12345)
_DATA = np.arange(1, 9, dtype=np.int32)

#: Every lowering pass as a refinement: its program, the base and the
#: refined pipeline, the inputs, how the cycles move and which buffers
#: may change (to what).
PASS_CONTRACTS = {
    **{
        f"linalg-to-affine:n={d.n},c={d.c},h={d.h},w={d.w},fh={d.fh},fw={d.fw}":
            _conv(d, LINALG, AFFINE, "<=")
        for d in CONVS
    },
    "launch": _conv(CONVS[0], "allocate-buffer{memory=sram}", LINALG),
    "equeue-read-write": _conv(
        CONVS[0], "convert-linalg-to-affine-loops," + LINALG, AFFINE
    ),
    "flatten": _conv(
        CONVS[0], AFFINE, AFFINE.replace("loops", "loops{flatten=true}")
    ),
    "allocate-buffer{memory=regfile}": _conv(
        CONVS[0], AFFINE, AFFINE.replace("sram", "regfile"), "<="
    ),
    "split-launch{at=1}:conv": _conv(
        CONVS[0], AFFINE, AFFINE + ",split-launch{launch=conv,at=1}"
    ),
    "matmul-to-affine": Contract(
        _matmul_program, LINALG, AFFINE,
        {
            "a": _RNG.integers(-5, 6, (3, 4)).astype(np.int32),
            "b": _RNG.integers(-5, 6, (4, 5)).astype(np.int32),
        },
        "<=",
    ),
    # The 8-cycle copy, then the 1-cycle mac.
    "memcpy": Contract(
        staged_program, "", MEMCPY, {"src": _DATA}, (1, 9),
        {
            "dst": lambda got: got["src"],
            "out": lambda got: [x * x + x for x in got["src"]],
        },
    ),
    "memcpy{chain=false}": Contract(
        staged_program, "", MEMCPY.replace("}", ",chain=false}"),
        {"src": _DATA}, "any", {"dst": lambda got: got["src"]},
    ),
    "memcpy-to-launch": Contract(
        staged_program, MEMCPY, MEMCPY + ",memcpy-to-launch", {"src": _DATA}
    ),
    "merge-memcpy-launch": Contract(
        staged_program, MEMCPY, MEMCPY + ",merge-memcpy-launch{launch=use}",
        {"src": _DATA},
    ),
    "split-launch{at=1}": Contract(
        staged_program, "", "split-launch{launch=use,at=1}", {"dst": _DATA}
    ),
    # An 8-cycle SRAM read becomes a register read.
    "reassign-buffer": Contract(
        lambda: staged_program("src"), "", "reassign-buffer{from=src,to=dst}",
        {"src": _DATA, "dst": _DATA}, (9, 1),
    ),
    # Four PEs at once: one cycle, not four.
    "parallel-to-equeue": Contract(
        parallel_program, "", "parallel-to-equeue{comp=grid,proc_template=pe_{0}}",
        {"buf": _DATA}, (4, 1),
    ),
    "lower-extraction": Contract(_extraction_program, "", "lower-extraction"),
}

if __name__ == "__main__":
    table = {
        row_key(name, backend): record(
            run(program.build, backend, trace=True, **program.options)
        )
        for name, program in RECORDED_PROGRAMS.items()
        for backend in BACKENDS
        if "@" not in backend or backend.startswith("codegen@0/")
    }
    RECORDED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} runs of {len(RECORDED_PROGRAMS)} programs")
