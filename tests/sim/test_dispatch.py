"""The launch path against a table recorded before it was replaced.

A processor's event-queue loop used to be a generator under
``kernel.Process``; it is now a dispatcher of plain scheduler callbacks
(:class:`repro.sim.engine._Dispatcher`).  The generator was deleted, not
kept beside, so the oracle is a recording:
``tests/sim/data/dispatch_recorded.json`` holds — for every registered
scenario (default configuration and one grid point), the four lowering
pipeline stages, ``examples/programs/toy_accelerator.mlir``, the two
programs of ``test_codegen_tiering.py`` whose hot bodies suspend,
five hand-written programs that walk each arm of the dispatcher (a head
entry whose dependency triggers late, launch results captured by a
second launch, a memcpy queued behind a busy DMA, a value-returning body
between plain ones, a burst of zero-cycle launches), and six whose
bodies *block* (``BLOCKING``, recorded one PR later, while every access
that waits, every ``await`` and every ``return_values`` still went
through the general handlers — the oracle of
``test_suspending_bodies.py``) — what the
generator loop produced under each execution mode and scheduler: cycles,
the scheduler-event count and its microtask/wheel/heap split, every
processor's busy cycles and executed entries, a digest of every buffer,
and a digest of the Chrome-trace records *in the order they were made*
(ring order, not just content).  Every callback of the old loop maps to
exactly one of the new dispatcher's, so the table replays exactly.

Re-record only from a commit whose launch path is trusted::

    PYTHONPATH=src:. python tests/sim/test_dispatch.py

The burst test at the bottom is the bug the first callback dispatcher
hit: a body that completes without yielding must hand its value back to
the dispatch *loop*; re-entering the dispatcher from the driver's
completion dies with ``RecursionError`` a few thousand launches in.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import ir
from repro.dialects import affine, arith
from repro.dialects.equeue import EQueueBuilder
from repro.scenarios import get_scenario, scenario_names
from repro.sim import Engine, EngineOptions, plan
from tests.sim.test_codegen_tiering import SUSPENDING, _builder as _suspending

RECORDED = Path(__file__).parent / "data" / "dispatch_recorded.json"
TOY = Path(__file__).parents[2] / "examples" / "programs" / "toy_accelerator.mlir"

MODES = ("interpret", "plan", "codegen")
SCHEDULERS = ("wheel", "heap")


# ---------------------------------------------------------------------------
# Hand-written programs, one per arm of the dispatcher
# ---------------------------------------------------------------------------


def _program():
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
    module, eq = _program()
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


def _returns_captured():
    """A launch returns an index and a datum; a second launch captures
    both results (bound to futures when it is issued) and depends on
    the first."""
    module, eq = _program()
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
    module, eq = _program()
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


def _burst(launches, returning=False):
    """A kernel queues ``launches`` zero-cycle bodies on one PE and
    awaits the last: the PE runs them all in one scheduler callback.
    ``returning`` bodies return a value, so their plan is not
    inlineable and runs as a generator that happens not to suspend."""
    module, eq = _program()
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
    module, eq = _program()
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
    iterations — whose every read and write waits on a one-cycle SRAM
    (the vectoriser compiles the innermost loop and its guard turns the
    SRAM away on each of its 12 entries).  The read of ``flag`` comes
    after three cycles of arithmetic: its value is taken *before* those
    cycles are flushed.  ``racing``: a second processor adds to ``flag``
    every fifth cycle — out of step with the nest's twelve — so a value
    taken after the flush is, more often than not, a different one."""
    module, eq = _program()
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
    module, eq = _program()
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
    module, eq = _program()
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
    "returns-captured": _returns_captured,
    "memcpy-behind-busy-dma": _memcpy_behind_busy_dma,
    "mixed-bodies": _mixed_bodies,
    "burst-50": lambda: _burst(50),
    "burst-50-returning": lambda: _burst(50, returning=True),
    "toy-accelerator": _toy,
    **BLOCKING,
}


def _scenario_points():
    """``name -> (scenario, cfg)``: every scenario's default
    configuration and the last point of its grid; all four stages of
    ``pipeline`` (its grid is the stage axis)."""
    points = {}
    for name in scenario_names():
        scenario = get_scenario(name)
        points[f"{name}:default"] = (scenario, scenario.configure())
        grid = scenario.grid_points()
        chosen = grid if name == "pipeline" else grid[-1:]
        for cfg in chosen:
            label = ",".join(
                f"{axis}={getattr(cfg, axis)}"
                for axis in scenario.default_grid()
            )
            points[f"{name}:{label}"] = (scenario, cfg)
    return points


SCENARIO_POINTS = _scenario_points()
PROGRAMS = (*SCENARIO_POINTS, *SUSPENDING, *HAND_WRITTEN)


def _build(program):
    """``(module, inputs)``, freshly built."""
    if program in SCENARIO_POINTS:
        scenario, cfg = SCENARIO_POINTS[program]
        return scenario.build(cfg), scenario.make_inputs(cfg, 5)
    if program in SUSPENDING:
        return _suspending(program)()
    return HAND_WRITTEN[program]()


# ---------------------------------------------------------------------------
# What is recorded
# ---------------------------------------------------------------------------


def _digest(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def observe(program, mode, scheduler, tier_up_at=0):
    """One run's record.  Codegen runs with the tier-up at the first
    execution (as recorded; ``tier_up_at``: after that many), so
    generated bodies are what is compared."""
    module, inputs = _build(program)
    options = EngineOptions(mode=mode, scheduler=scheduler, trace=True)
    engine = Engine(module, options, inputs)
    saved = plan.TIER_UP_EXECUTIONS
    plan.TIER_UP_EXECUTIONS = tier_up_at
    try:
        result = engine.run()
    finally:
        plan.TIER_UP_EXECUTIONS = saved
    summary = result.summary
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
            for p in engine.processors
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


def _key(program, mode, scheduler):
    return f"{program}|{mode}|{scheduler}"


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORDED.read_text())


def test_the_table_covers_every_program(recorded):
    assert set(recorded) == {
        _key(program, mode, scheduler)
        for program in PROGRAMS
        for mode in MODES
        for scheduler in SCHEDULERS
    }
    # The hand-written programs do what their names say.
    late = recorded[_key("late-dep", "interpret", "wheel")]
    assert late["cycles"] == 6 and late["processors"][1] == ["pe_b", 3, 2]
    busy = recorded[_key("memcpy-behind-busy-dma", "interpret", "wheel")]
    assert busy["processors"][0] == ["dma", 16, 2]
    burst = recorded[_key("burst-50", "interpret", "wheel")]
    assert (burst["cycles"], burst["events"], burst["launches"]) == (0, 7, 52)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("program", PROGRAMS)
def test_dispatch_replays_the_recorded_table(program, mode, scheduler, recorded):
    assert observe(program, mode, scheduler) == recorded[
        _key(program, mode, scheduler)
    ]


# ---------------------------------------------------------------------------
# The dispatcher is iterative
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("returning", [False, True], ids=["plain", "returning"])
def test_five_thousand_zero_cycle_launches_on_one_processor(
    returning, mode, scheduler, tier_up_at
):
    tier_up_at(0)
    module, inputs = _burst(5000, returning=returning)
    engine = Engine(
        module, EngineOptions(mode=mode, scheduler=scheduler), inputs
    )
    result = engine.run()
    summary = result.summary
    assert (result.cycles, summary.scheduler_events) == (0, 7)
    assert summary.launches_executed == 5002
    assert [(p.name, p.executed_events) for p in engine.processors] == [
        ("kernel", 1), ("pe", 5000), ("host", 1),
    ]


if __name__ == "__main__":
    table = {
        _key(program, mode, scheduler): observe(program, mode, scheduler)
        for program in PROGRAMS
        for mode in MODES
        for scheduler in SCHEDULERS
    }
    RECORDED.parent.mkdir(exist_ok=True)
    RECORDED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} runs of {len(PROGRAMS)} programs")
