"""Execution-mode gates: call-driven, shape-shared, hot-block codegen.

``mode=codegen`` (the default) replays a block's plan until the block has
been entered ``plan.TIER_UP_EXECUTIONS`` times, then generates its body —
from an already compiled code object when some block of the same shape
got there first.  These tests hold:

* that the two programs of ``tests/differential.py`` whose hot bodies
  suspend (a contended read; a flush with pending cycles) do suspend in
  generated code — ``tests/sim/test_backend_matrix.py`` holds them, and
  every registered scenario, bit-identical at every tier-up;
* exact counts: how many ``compile()`` calls a cold run makes, that a
  block below the threshold makes none, that executions are counted
  across simulations sharing a :class:`PlanCache`;
* code sharing: structurally identical bodies are one code object.
"""

from __future__ import annotations

import gc
import inspect

import numpy as np
import pytest

from repro import ir
from repro.dialects import affine, arith
from repro.dialects.equeue import EQueueBuilder
from repro.dialects.linalg import ConvDims
from repro.generators.systolic import SystolicConfig, build_systolic_program
from repro.sim import EngineOptions, PlanCache, codegen, plan, simulate
from tests.differential import SUSPENDING, empty_program


def test_suspending_bodies_do_suspend_in_generated_code(
    tier_up_at, monkeypatch
):
    """The two suspending programs only test suspension if the generated
    body is what suspends: a PE body — it holds the loop — is a generator
    function, and the waits are that generator's own yields."""
    tier_up_at(0)
    waits = []

    def tallying(plan_):
        fn, *counts = compile_body(plan_)
        if not any(map(plan._is_for, plan_.steps)):
            return (fn, *counts)
        assert inspect.isgeneratorfunction(fn)

        def body(ex, env):
            generated, sent = fn(ex, env), None
            while True:
                try:
                    request = generated.send(sent)
                except StopIteration as stop:
                    return stop.value
                waits.append(request)
                sent = yield request

        return (body, *counts)

    compile_body = codegen.compile_block_body
    monkeypatch.setattr(codegen, "compile_block_body", tallying)
    for build in SUSPENDING.values():
        module, inputs = build()
        before = len(waits)
        result = simulate(module, inputs=inputs)
        assert result.summary.codegen_suspending >= 2  # one per PE body
        assert len(waits) > before


# ---------------------------------------------------------------------------
# Exact counts
# ---------------------------------------------------------------------------


@pytest.fixture
def compile_calls(monkeypatch):
    """Every ``compile()`` the code generator makes, from a cold shape
    table (the table is process-wide: other tests' shapes would hide
    calls)."""
    calls = []

    def counting(source, *args):
        calls.append(source)
        return compile(source, *args)

    monkeypatch.setattr(codegen, "compile", counting, raising=False)
    saved = dict(codegen._SHAPES)
    codegen._SHAPES.clear()
    yield calls
    codegen._SHAPES.update(saved)


STEADY_DIMS = ConvDims(n=1, c=3, h=16, w=16, fh=2, fw=2)


def _systolic(dataflow, height, width, dims=STEADY_DIMS):
    program = build_systolic_program(
        SystolicConfig(dataflow, height, width, dims)
    )
    rng = np.random.default_rng(7)
    ifmap = rng.integers(-3, 4, (dims.c, dims.h, dims.w)).astype(np.int32)
    weights = rng.integers(
        -3, 4, (dims.n, dims.c, dims.fh, dims.fw)
    ).astype(np.int32)
    return program.module, program.prepare_inputs(ifmap, weights)


def test_cold_ws_4x4_compiles_at_most_25_bodies(compile_calls):
    """The ``engine_steady`` WS program cold: 82 ``compile()`` calls when
    every block plan was compiled eagerly and separately."""
    module, inputs = _systolic("WS", 4, 4)
    cache = PlanCache()
    summary = simulate(
        module, EngineOptions(), inputs=inputs, plan_cache=cache
    ).summary
    assert 1 <= len(compile_calls) <= 25
    assert len(set(compile_calls)) == len(compile_calls)
    assert (
        summary.blocks_codegenned - summary.codegen_code_shared
        == len(compile_calls)
    )
    # All 16 PE bodies run generated code, so most of it is shared.
    assert summary.blocks_codegenned >= 16
    assert summary.codegen_tiered_up == summary.blocks_codegenned
    # The body that awaits each step's launches is entered often enough
    # to be generated too — as a generator; nothing is declined.
    assert summary.codegen_suspending == 1
    assert (summary.codegen_fallbacks, summary.codegen_fallback_reasons) == (
        0, {},
    )
    # Warm: nothing left to generate, nothing new to decline.
    warm = simulate(
        module, EngineOptions(), inputs=inputs, plan_cache=cache
    ).summary
    assert (warm.blocks_codegenned, warm.codegen_fallbacks) == (0, 0)
    assert len(compile_calls) <= 25


def _counted_loop(n):
    """One launch whose loop body runs ``n`` times."""
    module, eq = empty_program()
    pe = eq.create_proc("MAC", name="pe")
    regs = eq.create_mem("Register", 256, ir.i32, name="regs")
    buf = eq.alloc(regs, [n], ir.i32, name="buf")
    start = eq.control_start()

    def body(b, buf_a):
        def step(b2, i):
            eq2 = EQueueBuilder(b2)
            x = eq2.read_element(buf_a, [i])
            eq2.write_element(arith.addi(b2, x, x), buf_a, [i])

        affine.for_loop(b, 0, n, body=step)

    done, = eq.launch(start, pe, args=[buf], body=body)
    eq.await_(done)
    return module


def test_a_block_below_the_threshold_never_compiles(compile_calls):
    executions = plan.TIER_UP_EXECUTIONS // 4
    module = _counted_loop(executions)
    cache = PlanCache()
    options = EngineOptions()
    data = {"buf": np.arange(executions, dtype=np.int32)}
    summary = simulate(module, options, inputs=data, plan_cache=cache).summary
    assert summary.blocks_codegenned == 0
    assert compile_calls == []
    plans = [p for _, p in cache.plans.values()]
    assert all(p.compiled is None for p in plans)
    assert max(p.runs for p in plans) == executions

    # The count belongs to the plan, so it outlives the simulation: the
    # fifth run sharing this cache crosses the threshold part-way.
    for _ in range(4):
        summary = simulate(
            module, options, inputs=data, plan_cache=cache
        ).summary
    assert summary.blocks_codegenned == summary.codegen_tiered_up == 1
    assert len(compile_calls) == 1
    loop_body, = [p for p in plans if p.compiled is not None]
    assert loop_body.runs == plan.TIER_UP_EXECUTIONS + 1
    assert codegen.source_of(loop_body.compiled) == compile_calls[0]


def test_plan_mode_counts_nothing_and_compiles_nothing(compile_calls):
    module = _counted_loop(4 * plan.TIER_UP_EXECUTIONS)
    cache = PlanCache()
    simulate(
        module,
        EngineOptions(mode="plan"),
        inputs={"buf": np.zeros(4 * plan.TIER_UP_EXECUTIONS, np.int32)},
        plan_cache=cache,
    )
    assert compile_calls == []
    assert all(
        (p.runs, p.compiled, p.tier) == (0, None, None)
        for _, p in cache.plans.values()
    )


# ---------------------------------------------------------------------------
# Code sharing
# ---------------------------------------------------------------------------


def _generated_bodies(module, inputs):
    """The generated functions a cold run leaves on its plans."""
    cache = PlanCache()
    simulate(module, EngineOptions(), inputs=inputs, plan_cache=cache)
    return [
        p.compiled for _, p in cache.plans.values() if p.compiled is not None
    ]


def test_identical_bodies_share_one_code_object(tier_up_at, compile_calls):
    tier_up_at(0)
    dims = ConvDims(n=1, c=2, h=6, w=6, fh=2, fw=2)
    small = _generated_bodies(*_systolic("WS", 4, 4, dims))
    by_code = {}
    for body in small:
        by_code.setdefault(body.__code__, []).append(body)
    # Same array: PE bodies of one position class differ only in their
    # coordinates, and those are default arguments, not text.  (Each
    # body's branches are flattened into it, at every depth.)
    a, b = max(by_code.values(), key=len)[:2]
    assert a is not b and a.__code__ is b.__code__
    assert a.__defaults__ != b.__defaults__
    assert len(small) >= 16
    assert len(by_code) == len(compile_calls) < len(small) - 4
    # Another program, another array size: the same shapes, no compile()
    # — but for the kernel's bodies, which await (generators) and have
    # the array's loop bounds in their text.
    large = _generated_bodies(*_systolic("WS", 4, 2, dims))
    own = {
        body.__code__ for body in large
        if inspect.isgeneratorfunction(body)
    } - set(by_code)
    assert {body.__code__ for body in large} - own <= set(by_code)
    assert len(large) - len(own) >= 8
    assert len(compile_calls) == len(by_code) + len(own)


def test_shapes_die_with_their_last_body(tier_up_at, compile_calls):
    """The shape table holds code weakly: a dropped cache frees it."""
    tier_up_at(0)
    dims = ConvDims(n=1, c=2, h=6, w=6, fh=2, fw=2)
    bodies = _generated_bodies(*_systolic("OS", 2, 2, dims))
    assert len(codegen._SHAPES) == len({b.__code__ for b in bodies}) > 0
    del bodies
    gc.collect()  # a body and its plan reference each other
    assert len(codegen._SHAPES) == 0
