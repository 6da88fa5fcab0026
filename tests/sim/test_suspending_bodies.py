"""Bodies that suspend: the generator kind of generated body, the
scalar access that waits, and the fences around both.

``mode=codegen`` gives a hot block one of two kinds of body — an *inline*
one (a plain function: ``None``, or what is left of the entry as a
generator) or a *suspending* one (a generator function in which a step
that waits yields in place) — chosen by ``plan._suspends`` from what the
block's replays did.  A scalar ``equeue.read``/``equeue.write`` that has
to wait is one generator in every tier (``plan._blocked_read``,
``plan._blocked_write``): the interpreter's handlers return it, a
replayed step returns it, and a suspending body takes the value and
counts the traffic inline, flushes, and drives it with ``yield from``.
So the interpreter moves with that generator, and the oracle of the
wait is the recorded table, not the handlers:
``tests/sim/data/dispatch_recorded.json`` (the ``BLOCKING`` programs of
``tests/differential.py``, recorded while each handler still booked on
its own; ``tests/sim/test_backend_matrix.py`` replays them under the
real selector at every tier-up).  These tests hold:

* **the kind never changes a result** — every registered scenario and
  the six recorded programs, on both schedulers, with each kind forced
  (a patched selector) at the first execution and mid-run: interpret ==
  plan == inline == suspending; hypothesis draws nests of depth 1–6
  over memories costing 0, 1 and 3 cycles, posted or not, contended or
  not;
* **the selection rule** — what ``_cold_run`` counts and what
  ``_suspends`` makes of it;
* **the fences**, each with a ``*_is_what_holds`` test that takes the
  fence away and watches a run fail: the order of a suspending body's
  access that waits (value and traffic counters before the flush, the
  wait after it) against the live interpreter; the wait left to a
  generator — a mutant of the shared one moves the interpreter too, so
  it is judged against the recorded rows; the instant a blocked write
  stores (once booked: a reader on another processor sees the old
  element during the writer's flush and the new one during its wait,
  derived by hand); detailed tracing, stateful memories, the typed
  prologue of a suspending body.
"""

from __future__ import annotations

import inspect
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ir
from repro.dialects import affine, arith
from repro.dialects.equeue import EQueueBuilder
from repro.scenarios import get_scenario
from repro.sim import (
    EngineOptions,
    PlanCache,
    codegen,
    plan,
    simulate,
)
from repro.sim import engine as engine_module
from repro.sim.components import MemorySpec, register_memory_kind
from tests.differential import (
    BACKENDS,
    BLOCKING,
    CORPUS,
    HOT,
    RECORDED,
    ExtendedEngine,
    agree,
    captured_index_program,
    empty_program,
    extension_op_program,
    record,
    row_key,
    run,
)

register_memory_kind("SlowSRAM", MemorySpec(cycles_per_access=3))

#: The selector, patched: every body a generator / every body that can
#: be a plain function one (``await`` and returned values cannot).
KINDS = {
    "inline": lambda plan_: not plan_.inlineable,
    "suspending": lambda plan_: True,
}


@pytest.fixture
def force_kind(monkeypatch):
    def force(kind):
        monkeypatch.setattr(codegen, "_suspends", KINDS[kind])

    return force


# ---------------------------------------------------------------------------
# The kind never changes a result
# ---------------------------------------------------------------------------


#: Tier-up at the first execution and at the third, on both schedulers.
EARLY = tuple(b for b in BACKENDS if "@0/" in b or "@2/" in b)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "program", [*(n for n in CORPUS if n.endswith(":default")), *BLOCKING]
)
def test_every_kind_is_bit_identical(program, kind, force_kind):
    force_kind(kind)
    runs = agree(CORPUS[program].build, backends=EARLY)
    for backend in EARLY:
        summary, plans = runs[backend].summary, runs[backend].engine._plans
        generated = summary.blocks_codegenned
        assert generated > 0 and summary.codegen_fallbacks == 0
        if kind == "suspending":
            assert summary.codegen_suspending == generated
        else:
            # Only what has no inline form is a generator.
            assert summary.codegen_suspending == sum(
                not p.inlineable
                for _, p in plans.plans.values()
                if p.compiled is not None
            )


def test_what_the_recorded_programs_generate():
    """Under the real selector at the real threshold: generators for the
    bodies that wait, await or return; none for ``nest-racing``'s racer
    alone (one entry) — its loop body is one."""
    suspending = {}
    for program, build in BLOCKING.items():
        module, inputs = build()
        summary = simulate(module, inputs=inputs).summary
        assert summary.codegen_fallbacks == 0
        assert summary.codegen_tiered_up == summary.blocks_codegenned
        suspending[program] = (
            summary.codegen_suspending, summary.blocks_codegenned
        )
    assert suspending == {
        # The innermost loop's body (72 entries).
        "nest-blocking": (1, 1),
        # ... and the racer's loop body.
        "nest-racing": (2, 2),
        # 12 entries a body: nothing gets hot.
        "connection-contended": (0, 0),
        # The kernel's loop body never waits (inline); the body that
        # awaits and the DMA's, whose read waits, do.
        "await-hot": (2, 3),
        # The producer returns values and waits; the consumer does not.
        "returns-hot": (1, 3),
        # The kernel's loop body: a memcpy, an await.
        "memcpy-hot": (1, 1),
    }


# ---------------------------------------------------------------------------
# The selection rule
# ---------------------------------------------------------------------------


def _plans(build, **overrides):
    module, inputs = build()
    cache = PlanCache()
    summary = simulate(
        module, EngineOptions(**overrides), inputs=inputs, plan_cache=cache
    ).summary
    return [p for _, p in cache.plans.values()], summary


def test_the_cold_tier_counts_suspended_entries(tier_up_at):
    tier_up_at(10 * HOT)
    plans, summary = _plans(BLOCKING["nest-blocking"])
    assert summary.blocks_codegenned == 0
    # The innermost body waits on every entry; so does each loop around
    # it; the launch body and the module's own block (an ``await``: not
    # inlineable, never counted as suspended) are entered once.
    # (The launch body is compiled as a shape: the counts are there.)
    counts = sorted((p.runs, (p.shape or p).suspensions) for p in plans)
    assert counts == [(1, 0), (1, 1), (3, 3), (12, 12), (HOT, HOT)]


def test_the_selector_goes_by_share_and_inlineability():
    class Counted:
        shape = None

        def __init__(self, runs, suspensions, inlineable=True, steps=()):
            self.runs = runs
            self.suspensions = suspensions
            self.inlineable = inlineable
            self.steps = steps

    assert not plan._suspends(Counted(65, 0))
    assert not plan._suspends(Counted(65, 8))  # one in eight: not yet
    assert plan._suspends(Counted(65, 9))
    assert plan._suspends(Counted(65, 65))
    assert plan._suspends(Counted(1, 0, inlineable=False))
    # A loop step suspends on every replay: no need to count.
    branch = (plan.K_CTRL, None, ("if", None, None, None, None))
    loop = (plan.K_CTRL, None, ("for", None, None, range(0)))
    assert not plan._suspends(Counted(1, 0, steps=(branch,)))
    assert plan._suspends(Counted(1, 0, steps=(branch, loop)))
    # A site's view goes by its shape's counts, over all sites.
    view = Counted(1, 0)
    view.shape = Counted(65, 40)
    assert plan._suspends(view)


def test_a_body_that_never_waits_stays_a_plain_function():
    """The systolic PE bodies — what ``engine_steady`` and ``dse_sweep``
    run — never suspend: of everything a default run generates, only the
    kernel's step body (it awaits) is a generator."""
    plans, summary = _plans(
        lambda: (
            get_scenario("systolic").build(
                get_scenario("systolic").configure(
                    array_height=4, array_width=4, h=16, w=16, c=3
                )
            ),
            None,
        )
    )
    generated = [p.compiled for p in plans if p.compiled is not None]
    assert len(generated) == summary.blocks_codegenned >= 16
    kinds = [inspect.isgeneratorfunction(fn) for fn in generated]
    assert sum(kinds) == summary.codegen_suspending == 1
    assert all(
        p.inlineable and p.suspensions == 0
        for p in plans
        if p.compiled is not None and not inspect.isgeneratorfunction(p.compiled)
    )


# ---------------------------------------------------------------------------
# What suspending emission looks like
# ---------------------------------------------------------------------------


def _sources(build, **overrides):
    plans, _ = _plans(build, **overrides)
    return {
        codegen.source_of(p.compiled): p
        for p in plans
        if p.compiled is not None
    }


def test_a_nest_is_native_loops_at_every_depth(tier_up_at, force_kind):
    tier_up_at(0)
    force_kind("suspending")
    sources = _sources(BLOCKING["nest-blocking"])
    text = max(sources, key=len)
    # Three loops in one body, none of them a call.
    assert re.search(
        r"\n( +)for _n\d+ in _r\d+:\n(.*\n)*?\1    for _n\d+ in _r\d+:\n"
        r"(.*\n)*?\1        for _n\d+ in _r\d+:\n",
        text,
    )
    # A read that waits: its value and counters, the flush, and THE
    # blocked read every tier drives (its value a local alone: nothing
    # reads env for it).
    assert re.search(
        r"if _co > 0:\n"
        r" +_x\d+ = _x\d+\.array\.item\(_n\d+, _n\d+, _n\d+\)\n"
        r" +_m\.bytes_read \+= _x\d+\.element_bits >> 3\n"
        r" +_m\.reads \+= 1\n"
        r" +if ex\.pending:\n +_p = ex\.pending\n +ex\.pending = 0\n"
        r" +yield _p\n"
        r" +yield from _blocked_read\(_m\.queue, _co, None, 0\)\n",
        text,
    )
    assert "_resume" not in text and "_h_read" not in text


def test_await_and_returned_values_are_yield_from_and_return(tier_up_at):
    tier_up_at(0)
    texts = "\n".join(_sources(BLOCKING["await-hot"]))
    assert re.search(r"\n    yield from _s\d+\(ex, env\)\n", texts)
    texts = "\n".join(_sources(BLOCKING["returns-hot"]))
    assert re.search(r"\n    return \[_x\d+, _n\d+\]\n", texts)


def test_suspending_bodies_are_counted_and_reported(tier_up_at):
    from repro.obs import metrics as obs_metrics

    before = obs_metrics.get_registry().snapshot()
    obs_metrics.enable_metrics()
    try:
        module, inputs = BLOCKING["returns-hot"]()
        summary = simulate(module, inputs=inputs).summary
    finally:
        obs_metrics.disable_metrics()
    after = obs_metrics.get_registry().snapshot()
    assert (summary.blocks_codegenned, summary.codegen_suspending) == (3, 1)
    assert "tiered up, 1 suspending, " in summary.format()
    assert ", 0 fallbacks, " in summary.format()
    name = "engine.codegen_suspending"
    assert after[name] == before.get(name, 0.0) + 1
    assert summary.to_dict()["codegen_suspending"] == 1


# ---------------------------------------------------------------------------
# The fences: the order of an access that waits
# ---------------------------------------------------------------------------


#: Generated from the first execution.
FIRST = "codegen@0/wheel"


@pytest.fixture
def suspending_at_first_entry(tier_up_at, force_kind):
    tier_up_at(0)
    force_kind("suspending")


def test_the_racing_program_races(suspending_at_first_entry):
    """``nest-racing``: the racer's stores land while the nest flushes."""
    raced = agree(BLOCKING["nest-racing"], (FIRST,))[FIRST]
    assert raced.summary.codegen_suspending == raced.summary.blocks_codegenned
    quiet = run(BLOCKING["nest-blocking"], FIRST)
    assert quiet.seen["buffers"]["seen"] != raced.seen["buffers"]["seen"]


def test_the_value_read_before_the_flush_is_what_holds(
    suspending_at_first_entry, monkeypatch
):
    monkeypatch.setattr(
        codegen, "_READ_ORDER", ("flush", "value", "count", "wait")
    )
    with pytest.raises(AssertionError, match="diverged"):
        agree(BLOCKING["nest-racing"], (FIRST,))


#: Seven cycles in, the nest is two cycles into the three it flushes
#: before booking its read of ``flag``: the handler has counted the read.
MID_FLUSH = 7


def test_traffic_is_counted_before_the_flush(suspending_at_first_entry):
    runs = agree(BLOCKING["nest-blocking"], (FIRST,), max_cycles=MID_FLUSH)
    seen = runs[FIRST].seen
    assert seen["truncated"]
    side, = [m for m in seen["memories"] if m[0] == "side"]
    assert side[3] == 1  # reads


def test_counting_before_the_flush_is_what_holds(
    suspending_at_first_entry, monkeypatch
):
    monkeypatch.setattr(
        codegen, "_READ_ORDER", ("value", "flush", "count", "wait")
    )
    with pytest.raises(AssertionError, match="diverged"):
        agree(BLOCKING["nest-blocking"], (FIRST,), max_cycles=MID_FLUSH)


def test_booking_after_the_flush_is_what_holds(
    suspending_at_first_entry, monkeypatch
):
    """Driven before the flush, a suspending body's read is booked, and
    over, a flush early."""
    monkeypatch.setattr(
        codegen, "_READ_ORDER", ("value", "count", "wait", "flush")
    )
    with pytest.raises(AssertionError, match="diverged"):
        agree(BLOCKING["nest-racing"], (FIRST,))


def test_the_store_after_the_booking_is_what_holds(
    suspending_at_first_entry, monkeypatch
):
    """Driven before the flush, the racer's write stores its increments
    a flush early, and the nest sees them."""
    monkeypatch.setattr(codegen, "_WRITE_ORDER", ("count", "wait", "flush"))
    with pytest.raises(AssertionError, match="diverged"):
        agree(BLOCKING["nest-racing"], (FIRST,))


BLOCKED_READ, BLOCKED_WRITE = plan._blocked_read, plan._blocked_write


def _booked_at_issue(queue, cost, conn, nbytes):
    return iter(list(BLOCKED_READ(queue, cost, conn, nbytes)))


def _stored_at_issue(queue, cost, conn, nbytes, array, target, stored):
    array[target] = stored
    return BLOCKED_WRITE(queue, cost, conn, nbytes, array, target, stored)


#: One backend of each mode.
ONE_A_MODE = ("interpret/wheel", "plan/wheel", FIRST)


def _moved(program):
    """The backends of :data:`ONE_A_MODE` whose run of ``program`` is not its
    recorded row."""
    recorded = json.loads(RECORDED.read_text())
    return [
        backend
        for backend in ONE_A_MODE
        if record(run(BLOCKING[program], backend, trace=True))
        != recorded[row_key(program, backend)]
    ]


@pytest.mark.parametrize(
    "name, mutant",
    [("_blocked_read", _booked_at_issue), ("_blocked_write", _stored_at_issue)],
)
def test_leaving_the_wait_to_a_generator_is_what_holds(
    name, mutant, suspending_at_first_entry, monkeypatch
):
    """The interpreter's handler and the replayed step *return* THE
    blocked access; the executor flushes before it drives it.  A wait
    that books or stores when it is made does so a flush early — in
    the interpreter too, so the mutant is judged against the rows
    recorded before the tiers shared it.  A suspending body makes the
    wait after its own flush (the two tests above)."""
    assert _moved("nest-racing") == []
    for module in (engine_module, plan, codegen):
        monkeypatch.setattr(module, name, mutant)
    assert _moved("nest-racing") == ["interpret/wheel", "plan/wheel"]


def _write_sampled_by_readers():
    """``writer`` flushes three cycles of ``mac`` and writes 7 over the 5
    in ``slow[0]`` (a DRAM: ten cycles an access).  Two readers on other
    processors sample that element once a read of a clock memory of
    their own has moved them on: ``early`` one cycle in (an SRAM),
    during the writer's flush; ``late`` ten cycles in (a second DRAM),
    during the write's wait — ``early``'s read holds ``slow`` for
    cycles 1–11, so the write, made at cycle 3, waits until 21."""
    module, eq = empty_program()
    dram = eq.create_mem("DRAM", 64, ir.i32, name="dram")
    sram = eq.create_mem("SRAM", 64, ir.i32, name="sram")
    clock_dram = eq.create_mem("DRAM", 64, ir.i32, name="clock_dram")
    regs = eq.create_mem("Register", 64, ir.i32, name="regs")
    slow = eq.alloc(dram, [1], ir.i32, name="slow")
    clocks = [eq.alloc(m, [1], ir.i32, name=n) for m, n in
              ((sram, "tick"), (clock_dram, "tock"))]
    seen = eq.alloc(regs, [2], ir.i32, name="seen")
    writer_pe, *reader_pes = (
        eq.create_proc("MAC", name=n) for n in ("writer", "early", "late")
    )
    start = eq.control_start()

    def writer(b, slow_a):
        x = arith.constant(b, 1, ir.i32)
        for _ in range(3):
            x, = EQueueBuilder(b).op("mac", [x, x, x], [x.type])
        seven = arith.constant(b, 7, ir.i32)
        EQueueBuilder(b).write_element(
            seven, slow_a, [arith.constant(b, 0, ir.index)]
        )

    def reader(k):
        def body(b, clock_a, slow_a, seen_a):
            eq_b = EQueueBuilder(b)
            zero = arith.constant(b, 0, ir.index)
            eq_b.read_element(clock_a, [zero])
            x = eq_b.read_element(slow_a, [zero])
            eq_b.write_element(x, seen_a, [arith.constant(b, k, ir.index)])

        return body

    done = [eq.launch(start, writer_pe, args=[slow], body=writer)[0]] + [
        eq.launch(start, pe, args=[clock, slow, seen], body=reader(k))[0]
        for k, (pe, clock) in enumerate(zip(reader_pes, clocks))
    ]
    eq.await_(eq.control_and(done))
    ir.verify(module)
    return module, {"slow": np.array([5], np.int32)}


def _sampled():
    """Per backend of :data:`ONE_A_MODE`: the cycles, what the readers
    saw and the element left."""
    runs = {b: run(_write_sampled_by_readers, b) for b in ONE_A_MODE}
    return {
        backend: (done.result.cycles, done.seen["buffers"]["seen"],
                  done.seen["buffers"]["slow"])
        for backend, done in runs.items()
    }


@pytest.mark.parametrize("kind", KINDS)
def test_a_blocked_write_stores_once_booked(kind, tier_up_at, force_kind):
    """By hand: ``early`` samples at cycle 1, in the writer's flush (0–3),
    and sees the old 5; ``late`` samples at cycle 10, in the write's
    wait (3–21), and sees the 7 the write stored when it booked, at 3;
    ``late``'s read waits behind the write (21–31)."""
    tier_up_at(0)
    force_kind(kind)
    assert _sampled() == {b: (31, [5, 7], [7]) for b in ONE_A_MODE}


def _stored_after_the_wait(queue, cost, conn, nbytes, array, target, stored):
    yield from BLOCKED_WRITE(
        queue, cost, conn, nbytes, array.copy(), target, stored
    )
    array[target] = stored


def test_storing_once_booked_is_what_holds(
    suspending_at_first_entry, monkeypatch
):
    """A write that stores once its wait is over leaves ``late`` the old
    element."""
    for module in (engine_module, plan, codegen):
        monkeypatch.setattr(module, "_blocked_write", _stored_after_the_wait)
    assert _sampled() == {b: (31, [5, 5], [7]) for b in ONE_A_MODE}


# ---------------------------------------------------------------------------
# The fences: what keeps the general handler
# ---------------------------------------------------------------------------


def _traced(build, mode):
    module, inputs = build()
    options = EngineOptions(mode=mode, trace=True, detailed_trace=True)
    result = simulate(module, options, inputs=inputs)
    return [
        (r.name, r.category, r.pid, r.tid, r.start, r.duration)
        for r in result.trace.records
    ], result.summary


@pytest.mark.parametrize("mode", ["plan", "codegen"])
def test_detailed_tracing_keeps_the_handlers_records(
    mode, suspending_at_first_entry
):
    reference, _ = _traced(BLOCKING["nest-blocking"], "interpret")
    waits = [r for r in reference if r[0] in ("read", "write")]
    assert len(waits) == 5 * HOT
    records, summary = _traced(BLOCKING["nest-blocking"], mode)
    assert records == reference
    if mode == "codegen":
        assert summary.codegen_suspending == summary.blocks_codegenned > 0


@pytest.mark.parametrize("mode", ["plan", "codegen"])
def test_withholding_the_inline_wait_is_what_holds(
    mode, suspending_at_first_entry, monkeypatch
):
    monkeypatch.setattr(plan, "_waits_inline", lambda cache: True)
    reference, _ = _traced(BLOCKING["nest-blocking"], "interpret")
    records, _ = _traced(BLOCKING["nest-blocking"], mode)
    assert len(records) == len(reference) - 5 * HOT
    assert not [r for r in records if r[0] in ("read", "write")]


def _cached_nest():
    """A nest over a direct-mapped cache: what an access costs depends
    on the address and on every access before it."""
    module, eq = empty_program()
    cache = eq.create_mem("Cache", 1024, ir.i32, name="cache")
    regs = eq.create_mem("Register", 64, ir.i32, name="regs")
    src = eq.alloc(cache, [4, 160], ir.i32, name="src")
    out = eq.alloc(regs, [4], ir.i32, name="out")
    pe = eq.create_proc("MAC", name="pe")

    def body(b, src_a, out_a):
        def inner(b2, i, j):
            eq2 = EQueueBuilder(b2)
            x = eq2.read_element(src_a, [i, j])
            eq2.write_element(arith.addi(b2, x, x), src_a, [i, j])
            y = eq2.read_element(out_a, [i])
            eq2.write_element(arith.addi(b2, x, y), out_a, [i])

        affine.for_loop(b, 0, 4, body=lambda b1, i: affine.for_loop(
            b1, 0, 160, step=20, body=lambda b2, j: inner(b2, i, j)))

    done, = eq.launch(eq.control_start(), pe, args=[src, out], body=body)
    eq.await_(done)
    ir.verify(module)
    return module, {"src": np.arange(640, dtype=np.int32).reshape(4, 160)}


@pytest.mark.parametrize("backend", ["plan/wheel", FIRST])
def test_a_stateful_memory_keeps_the_handler(
    backend, suspending_at_first_entry
):
    done = agree(_cached_nest, (backend,))[backend]
    assert done.result.cycles > 32 * 2  # some of the 64 accesses missed


@pytest.mark.parametrize("backend", ["plan/wheel", FIRST])
def test_the_plain_cost_check_is_what_holds(
    backend, suspending_at_first_entry, monkeypatch
):
    """Taken for a memory with one cost, the cache never misses."""

    def flat_cost(memory, is_write):
        return memory.spec.cycles_per_access

    monkeypatch.setattr(plan, "_plain_access_cost", flat_cost)
    monkeypatch.setattr(codegen, "_plain_access_cost", flat_cost)
    with pytest.raises(AssertionError, match="diverged"):
        agree(_cached_nest, (backend,))


# ---------------------------------------------------------------------------
# The fences: the typed prologue of a suspending body
# ---------------------------------------------------------------------------


def _odd_sites():
    return captured_index_program(
        [("int", 1, {}), ("bool", 1, {}), ("int64", 0, {"bias": -20})]
    )


def test_a_suspending_body_deopts_to_replay(suspending_at_first_entry):
    summary = agree(_odd_sites, (FIRST,))[FIRST].summary
    assert summary.codegen_suspending == summary.blocks_codegenned > 0
    assert summary.codegen_deopts == {"int:bool": 2, "int:numpy.int64": 2}


def _returning_odd_index():
    """A body that returns what it read at a captured index — of every
    runtime type an ``index`` turns up as — to the launch that stores
    it: no inline form, so its deopt tier is ``BlockPlan.run``."""
    module, eq = empty_program()
    sram = eq.create_mem("SRAM", 64, ir.i32, name="sram")
    regs = eq.create_mem("Register", 64, ir.i32, name="regs")
    src = eq.alloc(sram, [4], ir.i32, name="src")
    out = eq.alloc(regs, [3], ir.i32, name="out")
    pe = eq.create_proc("MAC", name="pe")
    sink = eq.create_proc("MAC", name="sink")
    start = eq.control_start()
    done = []
    for k, kind in enumerate(("int", "bool", "int64")):
        plain = arith.constant(eq.b, 1, ir.index)
        where, = eq.op(f"as_{kind}", [plain], [ir.index])

        def produce(b, where_a, src_a):
            # (``ndarray.item(True)``: a TypeError, where the handler's
            # ``int(True)`` reads element 1.)
            x = EQueueBuilder(b).read_element(src_a, [where_a])
            return [arith.addi(b, x, x)]

        def consume(b, value, out_a, _k=k):
            EQueueBuilder(b).write_element(
                value, out_a, [arith.constant(b, _k, ir.index)]
            )

        produced, value = eq.launch(
            start, pe, args=[where, src], body=produce
        )
        done.append(
            eq.launch(produced, sink, args=[value, out], body=consume)[0]
        )
    eq.await_(eq.control_and(done))
    ir.verify(module)
    return module, {"src": np.array([5, -9, 2, 11], np.int32)}


def test_a_body_with_no_inline_form_deopts_to_the_generator(tier_up_at):
    tier_up_at(0)
    summary = agree(_returning_odd_index, (FIRST,))[FIRST].summary
    assert summary.codegen_deopts == {"int:bool": 1, "int:numpy.int64": 1}
    assert summary.codegen_suspending >= 3
    module, inputs = _returning_odd_index()
    assert simulate(module, inputs=inputs).buffer("out").tolist() == [-18] * 3


def test_the_exact_type_check_is_what_holds_in_a_generator(
    tier_up_at, monkeypatch
):
    tier_up_at(0)
    monkeypatch.setattr(codegen, "_INT_CHECK", "not isinstance({0}, int)")
    with pytest.raises((AssertionError, TypeError, IndexError)):
        agree(_returning_odd_index, (FIRST,))


# ---------------------------------------------------------------------------
# What the emitter cannot express
# ---------------------------------------------------------------------------


def test_an_uncompiled_op_replays_inside_a_generated_body():
    """``ExtendedEngine`` (``tests/differential.py``): the §IV-D way of
    adding an op, a handler-table entry the plan compiler has no
    description of."""
    runs = agree(
        extension_op_program, ("plan/wheel", FIRST, "plan/heap",
                               "codegen@0/heap"),
        engine=ExtendedEngine,
    )
    assert runs[FIRST].seen["cycles"] == 4 * (2 + 1 + 1 + 1) + 2 + 1 + 1
    summary, engine = runs[FIRST].summary, runs[FIRST].engine
    # The loop body and the launched body: declined, by the op.  The
    # kernel's body and the module's own: generators.
    assert summary.codegen_fallback_reasons == {"K_ANY:ext.tick": 2}
    assert (summary.blocks_codegenned, summary.codegen_suspending) == (2, 2)
    text = "\n".join(
        codegen.source_of(p.compiled)
        for _, p in engine._plans.plans.values()
        if p.compiled is not None
    )
    # The loop is native; its body is entered as a plan.
    assert re.search(
        r"for _n\d+ in _r\d+:\n +env\[_k\d+\] = _n\d+\n"
        r" +_r = _e\d+\(ex, env\)\n +if _r is not None:\n"
        r" +yield from _r\n",
        text,
    )


# ---------------------------------------------------------------------------
# Generated programs
# ---------------------------------------------------------------------------

MEMORIES = {0: "Register", 1: "SRAM", 3: "SlowSRAM"}


def _generated_nest(depth, costs, posted, contended, trips):
    """``depth`` loops around: a read of ``src`` (costing ``costs[0]``,
    posted or not), arithmetic, a read-modify-write of ``acc``
    (``costs[1]``) and a store to ``out`` (``costs[2]``) — on one
    processor, or on two sharing ``src`` and ``acc``."""
    module, eq = empty_program()
    memories = [
        eq.create_mem(MEMORIES[cost], 4096, ir.i32, name=f"mem{k}")
        for k, cost in enumerate(costs)
    ]
    shape = list(trips[:depth])
    src = eq.alloc(memories[0], shape, ir.i32, name="src")
    acc = eq.alloc(memories[1], [shape[0]], ir.i32, name="acc")
    start = eq.control_start()
    done = []
    for k in range(2 if contended else 1):
        pe = eq.create_proc("MAC", name=f"pe{k}")
        out = eq.alloc(memories[2], shape, ir.i32, name=f"out{k}")

        def body(b, src_a, acc_a, out_a):
            def innermost(b1, ivs):
                eq1 = EQueueBuilder(b1)
                x = eq1.read_element(src_a, ivs, posted=posted)
                y = arith.addi(b1, arith.muli(b1, x, x), x)
                a = eq1.read_element(acc_a, ivs[:1])
                eq1.write_element(arith.addi(b1, a, y), acc_a, ivs[:1])
                eq1.write_element(y, out_a, ivs, posted=posted)

            def level(b1, ivs):
                if len(ivs) == depth:
                    innermost(b1, ivs)
                else:
                    affine.for_loop(
                        b1, 0, shape[len(ivs)],
                        body=lambda b2, i: level(b2, [*ivs, i]),
                    )

            level(b, [])

        done.append(
            eq.launch(start, pe, args=[src, acc, out], body=body)[0]
        )
    eq.await_(eq.control_and(done))
    ir.verify(module)
    data = np.arange(1, int(np.prod(shape)) + 1, dtype=np.int32)
    return module, {"src": data.reshape(shape) % 7}


@settings(max_examples=25, deadline=None)
@given(
    depth=st.integers(1, 6),
    costs=st.tuples(*[st.sampled_from(sorted(MEMORIES))] * 3),
    posted=st.booleans(),
    contended=st.booleans(),
    scheduler=st.sampled_from(["wheel", "heap"]),
)
def test_generated_nests_every_kind_equals_interpreted(
    depth, costs, posted, contended, scheduler
):
    def build():
        return _generated_nest(
            depth, costs, posted, contended, (3, 2, 2, 2, 2, 2)
        )

    saved = codegen._suspends
    try:
        for selector in KINDS.values():
            codegen._suspends = selector
            agree(build, [
                f"{mode}/{scheduler}"
                for mode in ("plan", "codegen@0", "codegen@2")
            ])
    finally:
        codegen._suspends = saved
