"""The launch path as generated code: a launch site's own issue function,
and bodies that write ``env`` only for a reader.

Issuing a launch is one function per site (``engine.LaunchSite.issue``),
made from a code object compiled once per capture count: the captures
are read into locals and the body env is one dict display.  A generated
body keeps the values it defines in locals and writes one to ``env``
only where something reads it there — a step closure, a nested plan
entered as a plan — or, before a slow path that goes on by replay, the
locals that replay reads; so inline bodies flatten ``scf.if`` at every
depth.  These tests hold, against the interpreter on both schedulers
with tier-up at the first execution:

* **the env-elision fences**, each with a program that goes wrong
  without it — the ``*_is_what_holds`` tests patch the fence away: a
  value read after an access that waits and resumes by replay, a value
  a step closure reads, a value a nested plan that is not flattened
  reads, and the top-level block (whose env is the engine's); a deep
  ``scf.if`` nest, flattened at every depth, stays bit-identical;
* **the generated issue's fences**: 0, 1 and many captures, a captured
  launch result (the ``Future`` path), a capture found only in the
  engine's env, a capture bound to ``None``, the two errors with their
  text unchanged, and one ``compile()`` per capture count.
"""

from __future__ import annotations

import inspect
import re

import numpy as np
import pytest

from repro import ir
from repro.dialects import arith, scf
from repro.dialects.equeue import EQueueBuilder
from repro.sim import (
    Engine,
    EngineError,
    EngineOptions,
    codegen,
    engine,
)
from repro.sim.oplib import OpFunction, register_op_function
from tests.differential import (
    REFERENCE,
    agree,
    empty_program,
    returns_captured,
    run,
)

#: Generated from the first execution, on both schedulers.
FIRST = ("codegen@0/wheel", "codegen@0/heap")

#: Launches of each program below: enough that each path is taken.
SITES = 6

register_op_function(OpFunction("none_of", 0, lambda x: (None,)), replace=True)


def _plans(runs):
    """The plans of the last run of ``agree``."""
    *_, done = runs.values()
    return [plan for _, plan in done.engine._plans.plans.values()]


def _bodies(plans):
    """The generated launch bodies among ``plans``, one per text, as
    ``(text, function)``."""
    return list({
        codegen.source_of(plan.compiled): plan.compiled
        for plan in plans
        if plan.compiled is not None
        and plan.block.parent_op is not None
        and plan.block.parent_op.name == "equeue.launch"
    }.items())


def _sites(body, *buffers):
    """``SITES`` launches of ``body`` on one processor, capturing the
    index ``k`` and ``buffers``; returns the builder's module."""
    module, eq = empty_program()
    regs = eq.create_mem("Register", 256, ir.i32, name="regs")
    sram = eq.create_mem("SRAM", 64, ir.i32, name="sram")
    made = [
        eq.alloc(regs if memory == "regs" else sram, shape, ir.i32, name=name)
        for name, memory, shape in buffers
    ]
    pe = eq.create_proc("MAC", name="pe")
    start = eq.control_start()
    done = []
    for k in range(SITES):
        index = arith.constant(eq.b, k, ir.index)
        done.append(eq.launch(start, pe, args=[index, *made], body=body)[0])
    eq.await_(eq.control_and(done))
    return module, eq


# ---------------------------------------------------------------------------
# The env-elision fences
# ---------------------------------------------------------------------------


def _waits_between():
    """An inline body defines an index and a datum, then reads an SRAM
    element — the read waits, so the entry goes on by replay — and uses
    both after it."""

    def body(b, k, src, out):
        eq = EQueueBuilder(b)
        zero = arith.constant(b, 0, ir.index)
        after = arith.addi(b, k, arith.constant(b, 1, ir.index))
        held = eq.read_element(out, [k, zero])
        waited = eq.read_element(src, [k])
        eq.write_element(arith.addi(b, held, waited), out, [after, zero])

    module, _ = _sites(
        body, ("src", "sram", [SITES]), ("out", "regs", [SITES + 1, 1])
    )
    ir.verify(module)
    return module, {
        "src": np.arange(3, 3 + SITES, dtype=np.int32),
        "out": np.arange(1, SITES + 2, dtype=np.int32).reshape(-1, 1),
    }


def test_values_read_after_a_wait_are_spilled_before_the_replay():
    (text, body), = _bodies(_plans(agree(_waits_between, FIRST)))
    assert not inspect.isgeneratorfunction(body)
    # The index and the datum reach env only on the way to the replay.
    spills = [
        spill.group(0) for spill in re.finditer(
            r"(\n +env\[_k\d+\] = _\w+)+\n +return _resume\(", text
        )
    ]
    assert any(
        re.search(r"= _n\d+\n", spill) and re.search(r"= _x\d+\n", spill)
        for spill in spills
    )
    assert not re.search(r"\n    env\[", text)


def test_the_spill_is_what_holds(monkeypatch):
    monkeypatch.setattr(codegen._Emitter, "spill", lambda *args: None)
    with pytest.raises((AssertionError, EngineError)):
        agree(_waits_between, FIRST)


def _closure_reads():
    """A body-defined index is read by two step closures: an
    ``arith.select`` (it has no inline expansion) and a nested launch
    that captures it."""

    def body(b, k, out, helper):
        eq = EQueueBuilder(b)
        zero = arith.constant(b, 0, ir.index)
        after = arith.addi(b, k, arith.constant(b, 1, ir.index))
        odd = arith.cmpi(
            b, "eq", arith.remsi(b, k, arith.constant(b, 2, ir.index)),
            arith.constant(b, 1, ir.index),
        )
        chosen = arith.select(b, odd, after, k)
        eq.write_element(arith.constant(b, 5, ir.i32), out, [chosen, zero])

        def inner(b1, where, out1):
            EQueueBuilder(b1).write_element(
                arith.constant(b1, 9, ir.i32), out1,
                [where, arith.constant(b1, 1, ir.index)],
            )

        eq.launch(eq.control_start(), helper, args=[after, out], body=inner)

    module, eq = empty_program()
    regs = eq.create_mem("Register", 256, ir.i32, name="regs")
    out = eq.alloc(regs, [SITES + 1, 2], ir.i32, name="out")
    pe = eq.create_proc("MAC", name="pe")
    helper = eq.create_proc("MAC", name="helper")
    start = eq.control_start()
    done = []
    for k in range(SITES):
        index = arith.constant(eq.b, k, ir.index)
        done.append(
            eq.launch(start, pe, args=[index, out, helper], body=body)[0]
        )
    eq.await_(eq.control_and(done))
    ir.verify(module)
    return module, {}


def test_a_value_a_closure_reads_is_written_where_defined():
    texts = [text for text, _ in _bodies(_plans(agree(_closure_reads, FIRST)))]
    outer = max(texts, key=len)
    # Where they are defined, ``after`` (the select and the launch read
    # it) and ``odd`` (the select) are written to env, and nothing else
    # is: not ``k % 2``, which only ``odd`` reads.
    assert re.search(
        r"\n    (_n\d+) = _n\d+ \+ _v\d+\n    env\[_k\d+\] = \1\n", outer
    )
    assert len(re.findall(r"\n    env\[", outer)) == 2


def test_the_store_for_a_closure_is_what_holds(monkeypatch):
    monkeypatch.setattr(codegen._Emitter, "closure_reads", lambda *args: None)
    with pytest.raises((AssertionError, EngineError)):
        agree(_closure_reads, FIRST)


def _nested_plan_reads():
    """A body-defined index is read in a branch that awaits: an inline
    body enters that branch as a plan of its own."""

    def body(b, k, out):
        eq = EQueueBuilder(b)
        zero = arith.constant(b, 0, ir.index)
        after = arith.addi(b, k, arith.constant(b, 1, ir.index))
        even = arith.cmpi(
            b, "eq", arith.remsi(b, k, arith.constant(b, 2, ir.index)), zero
        )

        def waits(b1):
            eq1 = EQueueBuilder(b1)
            eq1.await_(eq1.control_start())
            eq1.write_element(arith.constant(b1, 7, ir.i32), out, [after, zero])

        scf.if_op(b, even, waits)

    module, _ = _sites(body, ("out", "regs", [SITES + 1, 1]))
    ir.verify(module)
    return module, {}


def test_a_value_a_nested_plan_reads_is_written_where_defined():
    (text, body), = _bodies(_plans(agree(_nested_plan_reads, FIRST)))
    assert not inspect.isgeneratorfunction(body)
    assert re.search(r"_r = _e\d+\(ex, env\)", text)


def test_the_store_for_a_nested_plan_is_what_holds(monkeypatch):
    monkeypatch.setattr(
        codegen._Emitter, "block_reads", lambda self, block: set()
    )
    with pytest.raises((AssertionError, EngineError)):
        agree(_nested_plan_reads, FIRST)


DEPTH = 5


def _deep_nest():
    """``DEPTH`` nested ``scf.if``s, each level's index defined in the
    level above and read below; site ``k`` goes ``k`` levels deep."""

    def level(b, k, value, depth, out, held):
        zero = arith.constant(b, 0, ir.index)
        deeper = arith.cmpi(b, "slt", value, k)

        def then(b1):
            step = arith.addi(b1, value, arith.constant(b1, 1, ir.index))
            read = EQueueBuilder(b1).read_element(out, [step, zero])
            total = arith.addi(b1, held, read)
            if depth + 1 < DEPTH:
                level(b1, k, step, depth + 1, out, total)
            else:
                EQueueBuilder(b1).write_element(total, out, [step, zero])

        def otherwise(b1):
            EQueueBuilder(b1).write_element(held, out, [value, zero])

        scf.if_op(b, deeper, then, otherwise)

    def body(b, k, out):
        zero = arith.constant(b, 0, ir.index)
        held = EQueueBuilder(b).read_element(out, [zero, zero])
        level(b, k, zero, 0, out, held)

    module, _ = _sites(body, ("out", "regs", [DEPTH + 2, 1]))
    ir.verify(module)
    return module, {"out": np.arange(2, DEPTH + 4, dtype=np.int32)[:, None]}


def test_a_deep_if_nest_is_flattened_and_bit_identical():
    plans = _plans(agree(_deep_nest, FIRST))
    (text, body), = _bodies(plans)
    assert not inspect.isgeneratorfunction(body)
    # Every level in the one body: no branch entered as a plan, none
    # generated on its own.
    assert "_e" not in text and len(re.findall(r"\n +if _n\d+:", text)) == DEPTH
    assert not any(
        plan.compiled is not None
        for plan in plans
        if plan.block.parent_op is not None
        and plan.block.parent_op.name == "scf.if"
    )


def _top_level_value():
    module, eq = empty_program()
    regs = eq.create_mem("Register", 16, ir.i32, name="regs")
    out = eq.alloc(regs, [4], ir.i32, name="out")
    pe = eq.create_proc("MAC", name="pe")
    two = arith.constant(eq.b, 2, ir.index)
    four = arith.addi(eq.b, two, two)
    unread = arith.muli(eq.b, four, four)

    def body(b, where, out_a):
        EQueueBuilder(b).write_element(
            arith.constant(b, 3, ir.i32), out_a, [where]
        )

    eq.await_(eq.launch(eq.control_start(), pe, args=[two, out], body=body)[0])
    ir.verify(module)
    _top_level_value.unread = unread
    return module, {}


def _value_of_unread(backend):
    result = run(_top_level_value, backend).result
    return result.value_of(_top_level_value.unread)


def test_the_top_level_block_writes_every_local_through():
    agree(_top_level_value, FIRST)
    assert _value_of_unread(FIRST[0]) == _value_of_unread(REFERENCE) == 16


def test_writing_the_top_level_through_is_what_holds(monkeypatch):
    monkeypatch.setattr(codegen, "_writes_through", lambda root: False)
    assert _value_of_unread(FIRST[0]) is None


# ---------------------------------------------------------------------------
# The generated issue
# ---------------------------------------------------------------------------


def _captures(counts=(0, 1, 7)):
    """One launch per count in ``counts``, capturing that many values:
    the buffer, then indices, each of which the body writes at."""
    module, eq = empty_program()
    regs = eq.create_mem("Register", 64, ir.i32, name="regs")
    out = eq.alloc(regs, [len(counts), max(counts)], ir.i32, name="out")
    pe = eq.create_proc("MAC", name="pe")
    start = eq.control_start()
    done = []
    for slot, count in enumerate(counts):
        args = [out][:count] + [
            arith.constant(eq.b, i, ir.index) for i in range(count - 1)
        ]

        def body(b, *captured, _slot=slot):
            mark = arith.constant(b, _slot + 1, ir.i32)
            if not captured:
                arith.muli(b, mark, mark)
                return
            row = arith.constant(b, _slot, ir.index)
            for where in captured[1:] or [row]:
                EQueueBuilder(b).write_element(mark, captured[0], [row, where])

        done.append(eq.launch(start, pe, args=args, body=body)[0])
    eq.await_(eq.control_and(done))
    ir.verify(module)
    return module, {}


@pytest.mark.parametrize("tier", [0, 64])
def test_zero_one_and_many_captures(tier):
    agree(_captures, (f"codegen@{tier}/wheel", f"codegen@{tier}/heap"))


def test_a_captured_launch_result_takes_the_future_path():
    agree(returns_captured, FIRST)


def _reaches_the_top():
    """A nested launch captures a top-level value its enclosing body was
    not given (the verifier refuses that; the engine finds it in its own
    env)."""
    module, eq = empty_program()
    regs = eq.create_mem("Register", 16, ir.i32, name="regs")
    out = eq.alloc(regs, [4], ir.i32, name="out")
    pe = eq.create_proc("MAC", name="pe")
    other = eq.create_proc("MAC", name="other")
    three = arith.constant(eq.b, 3, ir.index)

    def outer(b, out_a, other_a):
        def inner(b1, where, out1):
            EQueueBuilder(b1).write_element(
                arith.constant(b1, 8, ir.i32), out1, [where]
            )

        eq_b = EQueueBuilder(b)
        eq_b.await_(
            eq_b.launch(eq_b.control_start(), other_a, args=[three, out_a],
                        body=inner)[0]
        )

    eq.await_(eq.launch(eq.control_start(), pe, args=[out, other],
                        body=outer)[0])
    return module, {}


def test_a_capture_found_only_in_the_engine_env():
    runs = agree(_reaches_the_top, FIRST, verify_module=False)
    assert runs[FIRST[0]].result.buffer("out").tolist() == [0, 0, 0, 8]


def _bound_to_none():
    module, eq = empty_program()
    pe = eq.create_proc("MAC", name="pe")
    seed = arith.constant(eq.b, 1, ir.index)
    nothing, = eq.op("none_of", [seed], [ir.index])
    eq.await_(eq.launch(eq.control_start(), pe, args=[nothing],
                        body=lambda b, n: None)[0])
    ir.verify(module)
    _bound_to_none.value = nothing
    return module, {}


@pytest.mark.parametrize("backend", [REFERENCE, "plan/wheel", FIRST[0]])
def test_a_capture_bound_to_none_is_unbound(backend):
    with pytest.raises(EngineError) as raised:
        run(_bound_to_none, backend)
    assert str(raised.value) == (
        f"unbound captured value {_bound_to_none.value!r}"
    )


@pytest.mark.parametrize("mode", ["interpret", "plan", "codegen"])
def test_the_two_errors_keep_their_text(mode, tier_up_at):
    tier_up_at(0)
    module, eq = empty_program()
    memory = eq.create_mem("Register", 4, ir.i32)
    eq.launch(eq.control_start(), memory, body=lambda b: None)
    with pytest.raises(EngineError) as raised:
        Engine(module, EngineOptions(mode=mode, verify_module=False)).run()
    assert str(raised.value) == "launch target is not a processor"

    module, eq = empty_program()
    pe = eq.create_proc("MAC", name="pe")
    late = arith.constant(eq.b, 1, ir.index)
    eq.launch(eq.control_start(), pe, args=[late], body=lambda b, n: None)
    # Moved behind the launch that captures it, and never elaborated:
    # an extension op's result.
    ghost, = eq.op("none_of", [arith.constant(eq.b, 1, ir.index)], [ir.index])
    launch = next(op for op in module.body.ops if op.name == "equeue.launch")
    launch.set_operand(2, ghost)
    late.owner.erase()
    with pytest.raises(EngineError) as raised:
        Engine(module, EngineOptions(mode=mode, verify_module=False)).run()
    assert str(raised.value) == f"unbound captured value {ghost!r}"


def test_one_compile_per_capture_count(monkeypatch):
    compiled = []

    def counting(source, *args):
        compiled.append(source)
        return compile(source, *args)

    monkeypatch.setattr(engine, "_ISSUE_CODES", {})
    monkeypatch.setattr(engine, "compile", counting, raising=False)
    run(_captures, FIRST[0])
    run(lambda: _captures((7, 1, 1, 0, 7)), REFERENCE)
    assert len(compiled) == len(set(compiled)) == 3
    sites = [
        engine.LaunchSite(op)
        for op in _captures((1, 1, 7))[0].body.ops
        if op.name == "equeue.launch"
    ]
    assert len(compiled) == 3
    assert sites[0].issue.__code__ is sites[1].issue.__code__
    assert sites[0].issue.__code__ is not sites[2].issue.__code__
