"""Typed generated bodies: what the emitter takes from the IR's static
types, and the fences around it.

A generated body keeps ``index``/integer values it knows to be Python
``int``s in locals and consumes them as plain expressions; the values it
is *entered with* are loaded and checked once, in a prologue that runs
before anything has a side effect, and an entry that fails a check is
replayed by the plan (the deopt tier, ``codegen._deopt``).  These tests
hold:

* **the fences**, each with a program that goes wrong without it — the
  ``*_is_what_holds`` tests monkeypatch the fence away and watch the
  differential against the interpreter fail: only values defined outside
  the emitted block tree are loaded in the prologue; a shared body's
  constants are typed per site; the check is the exact ``type(x) is
  int``; nothing is typed under detailed tracing;
* **deopt == interpret** — bodies entered with a ``bool``, a
  ``numpy.int64`` or an unresolved ``Future`` where an ``int`` is
  expected produce the interpreter's observables, and say why in
  ``codegen_deopts``;
* **generated programs** — hypothesis perturbs the runtime type of the
  index every site captures;
* **the invariant the launch path's static classification rests on** —
  a ``Future`` is only ever bound under a launch's value result, or,
  between issue and dispatch, under a block argument capturing one;
* the two errors of issuing a launch.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ir
from repro.dialects import affine, arith
from repro.dialects.equeue import EQueueBuilder
from repro.ir.attributes import IntegerAttr
from repro.ir.values import OpResult
from repro.scenarios import get_scenario, scenario_names
from repro.sim import (
    Engine,
    EngineError,
    EngineOptions,
    Future,
    PlanCache,
    codegen,
    plan,
    simulate,
)
from repro.sim import engine as engine_module
from repro.sim.components import ProcessorModel
from tests.differential import (
    REFERENCE,
    agree,
    array_program,
    captured_index_program,
    empty_program,
    every_kind_of_constant,
    observables,
    returns_captured,
    run,
)

#: Generated from the first execution.
FIRST = "codegen@0/wheel"


# ---------------------------------------------------------------------------
# What typed emission looks like
# ---------------------------------------------------------------------------


def _sources(module, inputs):
    cache = PlanCache()
    simulate(module, inputs=inputs, plan_cache=cache)
    return {
        codegen.source_of(p.compiled)
        for _, p in cache.plans.values()
        if p.compiled is not None
    }


def test_index_arithmetic_is_plain_expressions(tier_up_at):
    tier_up_at(0)
    module, inputs = captured_index_program([("int", 1, {})] * 2)
    text = "\n".join(_sources(module, inputs))
    # What a body is entered with is checked before anything: a launch
    # body's captures are its arguments — the captured index exactly;
    # the buffers are no Future, the dispatcher resolved what may be one.
    assert re.search(
        r"def _plan_body\(ex, _n\d+, _x\d+, _x\d+, [^\n]*\):\n"
        r"    if _guard or type\(_n\d+\) is not int:\n",
        text,
    )
    # A block entered from an env loads it once, then checks it — the
    # index exactly, the buffer for a Future.  (A slow path reads what
    # only slow paths read from ``_cold``.)
    deopt = r"return _cold\._deopt\(_cold\._plan, ex, env, _cold\._loads, _guard\)"
    assert re.search(
        r"\):\n    try:\n(        _[nx]\d+ = env\[_k\d+\]\n)+"
        rf"    except KeyError:\n        {deopt}\n    if _guard or "
        r"type\(_x\d+\) is _Future or type\(_n\d+\) is not int",
        text,
    )
    # addi(where, one) — in a local alone: nothing reads env for it —
    # the read at its result, the bare write target.
    assert re.search(r"\n    _n\d+ = _n\d+ \+ _v\d+\n    (?!env)", text)
    assert re.search(r"_x\d+ = _x\d+\.array\.item\(_n\d+\)", text)
    assert re.search(r"\.array\[\(_v\d+, _n\d+, _n\d+,\)\] = _x\d+", text)
    # Nothing in the body looks a value up to find out what it is.
    assert "int(env[" not in text and ".value" not in text


def test_typed_bodies_are_counted_and_reported(tier_up_at):
    tier_up_at(0)
    summary = agree(
        lambda: captured_index_program([("int", 0, {}), ("int", 1, {})]),
        (FIRST,),
    )[FIRST].summary
    assert summary.codegen_typed == summary.blocks_codegenned
    assert summary.codegen_deopts == {}
    assert (
        f"{summary.codegen_typed} typed), " in summary.format()
        and ", 0 deopts" in summary.format()
    )


# ---------------------------------------------------------------------------
# Deopt == interpret
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, reason",
    [
        ("int", None),
        ("bool", "int:bool"),
        ("int64", "int:numpy.int64"),
        ("future", None),  # resolved by the dispatcher: an int again
    ],
)
@pytest.mark.parametrize("scheduler", ["wheel", "heap"])
def test_a_deopted_entry_is_bit_identical_to_the_interpreter(
    kind, reason, scheduler, tier_up_at
):
    tier_up_at(0)
    sites = [("int", 1, {}), (kind, 1, {"bias": -20}), (kind, 0, {})]
    backend = f"codegen@0/{scheduler}"
    summary = agree(
        lambda: captured_index_program(sites), (backend,)
    )[backend].summary
    # The launch body and, replaying, the branch it enters: twice each.
    assert summary.codegen_deopts == ({reason: 4} if reason else {})
    assert summary.codegen_typed == summary.blocks_codegenned


def test_an_unresolved_future_where_a_buffer_is_expected(tier_up_at):
    """A launch result used inside a loop of the body that awaited it:
    the loop body's prologue finds the ``Future`` and replays.  (The
    threshold keeps the awaiting body itself — entered once — on replay;
    generated, it would flatten the loop and read ``gain`` where it is
    used.)"""
    tier_up_at(1)

    def build():
        module, eq = empty_program()
        regs = eq.create_mem("Register", 64, ir.f32, name="regs")
        out = eq.alloc(regs, [4], ir.f32, name="out")
        kernel = eq.create_proc("ARMr5", name="kernel")
        pe = eq.create_proc("MAC", name="pe")
        start = eq.control_start()

        def main(b, pe_a, out_a):
            eq_b = EQueueBuilder(b)
            done, gain = eq_b.launch(
                eq_b.control_start(), pe_a,
                body=lambda b1: [arith.constant(b1, 1.5, ir.f32)],
            )
            eq_b.await_(done)

            def step(b2, i):
                eq2 = EQueueBuilder(b2)
                x = eq2.read_element(out_a, [i])
                eq2.write_element(arith.addf(b2, x, gain), out_a, [i])

            affine.for_loop(b, 0, 4, body=step)

        done, = eq.launch(start, kernel, args=[pe, out], body=main)
        eq.await_(done)
        ir.verify(module)
        return module, {"out": np.arange(4, dtype=np.float32)}

    summary = agree(build, ("codegen@1/wheel",))["codegen@1/wheel"].summary
    assert summary.codegen_deopts == {"value:Future": 3}
    module, inputs = build()
    result = simulate(module, inputs=inputs)
    assert result.buffer("out").tolist() == [1.5, 2.5, 3.5, 4.5]


def test_deopts_are_exported_under_their_reason(tier_up_at):
    from repro.obs import metrics as obs_metrics

    tier_up_at(0)
    before = obs_metrics.get_registry().snapshot()
    obs_metrics.enable_metrics()
    try:
        module, inputs = captured_index_program([("int64", 1, {})] * 2)
        summary = simulate(module, inputs=inputs).summary
    finally:
        obs_metrics.disable_metrics()
    after = obs_metrics.get_registry().snapshot()
    assert summary.codegen_deopts == {"int:numpy.int64": 4}
    for name, count in (
        ("engine.codegen_typed", summary.codegen_typed),
        ("engine.codegen_deopts.int.numpy.int64", 4),
    ):
        assert after[name] == before.get(name, 0.0) + count
    assert "4 deopts (4 int:numpy.int64)" in summary.format()


# ---------------------------------------------------------------------------
# The fences
# ---------------------------------------------------------------------------


def _exact_int_program():
    return captured_index_program(
        [("int", 1, {}), ("bool", 1, {}), ("bool", 0, {"bias": -20})]
    )


def test_a_bool_is_not_an_int(tier_up_at):
    tier_up_at(0)
    summary = agree(_exact_int_program, (FIRST,))[FIRST].summary
    assert summary.codegen_deopts == {"int:bool": 4}


def test_the_exact_type_check_is_what_holds(tier_up_at, monkeypatch):
    """``isinstance(True, int)``: the typed body would index with it —
    NumPy takes a ``bool`` coordinate for a mask, where it takes it."""
    tier_up_at(0)
    monkeypatch.setattr(codegen, "_INT_CHECK", "not isinstance({0}, int)")
    with pytest.raises((AssertionError, TypeError, IndexError)):
        agree(_exact_int_program, (FIRST,))


def _stale_in_tree_value(b, k, src, out):
    """``x`` is defined inside the loop by an op the emitter does not
    follow (``arith.select``), and read by one it types."""
    row = arith.constant(b, k, ir.index)
    zero = arith.constant(b, 0, ir.index)

    def step(b2, i):
        eq2 = EQueueBuilder(b2)
        x = arith.select(b2, arith.cmpi(b2, "sge", i, zero), i, zero)
        eq2.write_element(eq2.read_element(src, [x]), out, [row, i])

    affine.for_loop(b, 0, 8, body=step)


def _stale():
    return array_program(_stale_in_tree_value, 2, src="Register")


def test_in_tree_values_are_read_where_they_are_used(tier_up_at):
    tier_up_at(0)
    summary = agree(_stale, (FIRST,))[FIRST].summary
    assert summary.codegen_deopts == {}
    module, inputs = _stale()
    text = "\n".join(_sources(module, inputs))
    assert "int(env[" in text  # x: dynamic, as without types


def test_the_in_tree_fence_is_what_holds(tier_up_at, monkeypatch):
    """Loaded in the prologue, ``x`` is what the previous iteration left
    in ``env`` — or, the first time, missing: a deopt, and right."""
    tier_up_at(0)
    monkeypatch.setattr(codegen, "_in_tree", lambda value, root: False)
    with pytest.raises(AssertionError, match="diverged"):
        agree(_stale, (FIRST,))


def _odd_constant(b, k, src, out):
    """Same-shape sites writing a row each; the last one's row number
    is a ``bool`` (only a hand-built attribute can be) — beside the
    loop's induction variable it is a coordinate nothing folds."""
    where = b.create(
        "arith.constant", [], [ir.index],
        {"value": IntegerAttr((0, 2, True)[k], ir.index)},
    ).result()

    def step(b2, i):
        eq2 = EQueueBuilder(b2)
        eq2.write_element(eq2.read_element(src, [i]), out, [where, i])

    affine.for_loop(b, 0, 8, body=step)


def _odd():
    return array_program(_odd_constant, 3, src="Register")


def test_a_shared_bodys_constants_are_typed_per_site(tier_up_at):
    tier_up_at(0)
    module, inputs = _odd()
    cache = PlanCache()
    reference = run(_odd, REFERENCE).seen
    engine = Engine(module, inputs=inputs, plan_cache=cache)
    result = engine.run()
    assert observables(engine, result) == reference
    assert result.summary.plans_shared == 2
    # One code object, three functions; only the odd site's is guarded.
    sites = [site for _, _, site in cache.sites.values()]
    bodies = [site.plans[-1].compiled for site in sites]
    assert len({fn.__code__ for fn in bodies}) == 1
    code = bodies[0].__code__
    entered = code.co_argcount - len(bodies[0].__defaults__)
    guard = code.co_varnames.index("_guard") - entered
    assert [fn.__defaults__[guard] for fn in bodies] == [
        None, None, "int:bool",
    ]
    # The odd site's body, and — replaying — each entry of its loop body.
    assert result.summary.codegen_deopts == {"int:bool": 9}


def test_the_site_guard_is_what_holds(tier_up_at, monkeypatch):
    tier_up_at(0)
    monkeypatch.setattr(codegen, "_site_guard", lambda *args: None)
    with pytest.raises((AssertionError, TypeError, IndexError)):
        agree(_odd, (FIRST,))


def _traced(mode):
    module, inputs = array_program(every_kind_of_constant, 4)
    options = EngineOptions(mode=mode, trace=True, detailed_trace=True)
    result = simulate(module, options, inputs=inputs)
    return sorted(
        (r.name, r.category, r.pid, r.tid, r.start, r.duration)
        for r in result.trace.records
    ), result.summary


def test_nothing_an_op_traces_is_inlined_under_detailed_tracing(tier_up_at):
    tier_up_at(0)
    reference, _ = _traced("interpret")
    records, summary = _traced("codegen")
    assert records == reference
    assert summary.blocks_codegenned > 0


def test_withholding_the_metadata_is_what_holds(tier_up_at, monkeypatch):
    """With the metadata let through, arithmetic is emitted inline and
    its per-op trace records are never made."""
    tier_up_at(0)
    monkeypatch.setattr(plan, "_emittable", lambda cache, meta: meta)
    reference, _ = _traced("interpret")
    records, _ = _traced("codegen")
    assert len(records) < len(reference)


# ---------------------------------------------------------------------------
# Generated programs
# ---------------------------------------------------------------------------

SITE = st.tuples(
    st.sampled_from(["int", "bool", "int64", "future"]),
    st.integers(0, 1),
    st.fixed_dictionaries(
        {
            "bias": st.integers(-30, 30),
            "limit": st.integers(-10, 20),
            "scale": st.integers(-3, 3),
        }
    ),
)


@settings(max_examples=30, deadline=None)
@given(sites=st.lists(SITE, min_size=2, max_size=4))
def test_perturbed_runtime_types_typed_equals_interpreted(sites):
    summary = agree(
        lambda: captured_index_program(sites), (FIRST,)
    )[FIRST].summary
    assert summary.plans_shared >= len(sites) - 1
    odd = sum(kind in ("bool", "int64") for kind, _, _ in sites)
    assert sum(summary.codegen_deopts.values()) == 2 * odd
    assert set(summary.codegen_deopts) <= {"int:bool", "int:numpy.int64"}


# ---------------------------------------------------------------------------
# Where a Future can be
# ---------------------------------------------------------------------------


def _is_launch_value(ssa) -> bool:
    return (
        isinstance(ssa, OpResult)
        and ssa.owner.name == "equeue.launch"
        and ssa.index >= 1
    )


def _futures_only_where_expected(build, mode):
    """Run ``build()``; what every launch body is entered with is looked
    at when the launch is issued and when it is dispatched, and the
    engine's env when the run is over."""
    entered = []
    enqueue = ProcessorModel.enqueue
    env_of = engine_module.entry_env

    def watching(self, entry):
        if entry.kind == "launch":
            body, values, futures = entry.payload
            for position, value in enumerate(values):
                if isinstance(value, Future):
                    # Between issue and dispatch: at a position the
                    # issue step named, capturing a launch result.
                    assert position in futures
        enqueue(self, entry)

    def building(site, arguments, values):
        # A body's env: built from the values the dispatcher resolved.
        env = env_of(site, arguments, values)
        entered.append(env)
        return env

    ProcessorModel.enqueue = watching
    engine_module.entry_env = building
    try:
        module, inputs = build()
        engine = Engine(module, EngineOptions(mode=mode), inputs)
        engine.run()
    finally:
        ProcessorModel.enqueue = enqueue
        engine_module.entry_env = env_of
    found = 0
    # (The top-level entry runs in the engine's own env.)
    for env in {id(env): env for env in [engine.env, *entered]}.values():
        for key, value in env.items():
            if isinstance(value, Future):
                found += 1
                assert _is_launch_value(key), key
    return found


@pytest.mark.parametrize("mode", ["interpret", "plan", "codegen"])
@pytest.mark.parametrize("name", scenario_names())
def test_a_future_is_only_bound_under_a_launch_value_result(name, mode):
    scenario = get_scenario(name)
    for cfg in (scenario.configure(), scenario.grid_points()[-1]):
        _futures_only_where_expected(
            lambda: (scenario.build(cfg), scenario.make_inputs(cfg, 3)), mode
        )


@pytest.mark.parametrize("mode", ["interpret", "plan", "codegen"])
def test_captured_launch_results_are_resolved_at_dispatch(mode):
    # Not vacuous: this program does bind futures — two, at top level.
    assert _futures_only_where_expected(returns_captured, mode) == 2


# ---------------------------------------------------------------------------
# The two errors of issuing a launch
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["interpret", "plan", "codegen"])
def test_launch_target_must_be_a_processor(mode, tier_up_at):
    tier_up_at(0)
    module, eq = empty_program()
    memory = eq.create_mem("Register", 4, ir.i32)
    eq.launch(eq.control_start(), memory, body=lambda b: None)
    with pytest.raises(EngineError, match="launch target is not a processor"):
        simulate(module, EngineOptions(mode=mode, verify_module=False))


@pytest.mark.parametrize("mode", ["interpret", "plan", "codegen"])
def test_an_unbound_capture_is_an_error(mode, tier_up_at):
    tier_up_at(0)
    module, eq = empty_program()
    pe = eq.create_proc("MAC")
    other = eq.create_proc("MAC")
    start = eq.control_start()

    def outer(b, other_a):
        eq_b = EQueueBuilder(b)
        # ``ghost`` is defined after the launch that captures it.
        ghost_use = []
        launch_at = len(b.insertion_point.block.ops)
        ghost = arith.constant(b, 1, ir.index)
        done, = eq_b.launch(
            eq_b.control_start(), other_a, args=[ghost],
            body=lambda b1, g: ghost_use.append(g),
        )
        block = b.insertion_point.block
        op = ghost.owner
        block.remove(op)
        block.append(op)
        assert block.ops.index(op) > launch_at

    eq.launch(start, pe, args=[other], body=outer)
    with pytest.raises(EngineError, match="unbound captured value"):
        simulate(module, EngineOptions(mode=mode, verify_module=False))
