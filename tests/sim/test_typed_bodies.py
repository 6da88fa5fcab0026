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
from repro.dialects import affine, arith, scf
from repro.dialects.equeue import EQueueBuilder
from repro.ir.attributes import IntegerAttr
from repro.ir.values import BlockArgument, OpResult
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
from repro.sim.components import ProcessorModel
from repro.sim.oplib import OpFunction, register_op_function
from tests.conftest import observables
from tests.sim.test_dispatch import _returns_captured
from tests.sim.test_plan_shapes import (
    _agree as _modes_agree,
    _array_program,
    _every_kind_of_constant,
    _run,
)

# ``index`` values of every runtime type a body can be entered with.
for _name, _cast in (
    ("as_int", int), ("as_bool", bool), ("as_int64", np.int64),
):
    register_op_function(
        OpFunction(_name, 0, lambda x, _cast=_cast: (_cast(x),)), replace=True
    )


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


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


def _captured_index_program(sites):
    """``sites``: one ``(kind, value, constants)`` per PE.  Each PE runs
    the same-shape body once, capturing an ``index`` of the given
    runtime kind — ``int``, ``bool``, ``int64`` through a casting op,
    ``future`` as the result of an earlier launch."""
    module = ir.create_module()
    eq = EQueueBuilder(ir.Builder(ir.InsertionPoint.at_end(module.body)))
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


def _agree(build, **overrides):
    """Typed generated code (tier-up at the first execution, by the
    caller) leaves the interpreter's observables; returns its summary."""
    summary = _modes_agree(build, modes=("codegen",), **overrides)
    assert summary.blocks_codegenned > 0
    return summary


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
    module, inputs = _captured_index_program([("int", 1, {})] * 2)
    text = "\n".join(_sources(module, inputs))
    # What the body is entered with: loaded once, then checked — the
    # captured index exactly, the buffers for Futures — before anything.
    assert re.search(
        r"\):\n    try:\n(        _[nx]\d+ = env\[_k\d+\]\n)+"
        r"    except KeyError:\n        return _deopt\(_plan, ex, env, "
        r"_loads, _guard\)\n    if _guard or type\(_n\d+\) is not int or "
        r"type\(_x\d+\) is _Future",
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
    summary = _agree(
        lambda: _captured_index_program([("int", 0, {}), ("int", 1, {})])
    )
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
    summary = _agree(
        lambda: _captured_index_program(sites), scheduler=scheduler
    )
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
        module = ir.create_module()
        eq = EQueueBuilder(ir.Builder(ir.InsertionPoint.at_end(module.body)))
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

    summary = _agree(build)
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
        module, inputs = _captured_index_program([("int64", 1, {})] * 2)
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
    return _captured_index_program(
        [("int", 1, {}), ("bool", 1, {}), ("bool", 0, {"bias": -20})]
    )


def test_a_bool_is_not_an_int(tier_up_at):
    tier_up_at(0)
    summary = _agree(_exact_int_program)
    assert summary.codegen_deopts == {"int:bool": 4}


def test_the_exact_type_check_is_what_holds(tier_up_at, monkeypatch):
    """``isinstance(True, int)``: the typed body would index with it —
    NumPy takes a ``bool`` coordinate for a mask, where it takes it."""
    tier_up_at(0)
    monkeypatch.setattr(codegen, "_INT_CHECK", "not isinstance({0}, int)")
    with pytest.raises((AssertionError, TypeError, IndexError)):
        _agree(_exact_int_program)


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
    return _array_program(_stale_in_tree_value, 2, src="Register")


def test_in_tree_values_are_read_where_they_are_used(tier_up_at):
    tier_up_at(0)
    summary = _agree(_stale)
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
        _agree(_stale)


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
    return _array_program(_odd_constant, 3, src="Register")


def test_a_shared_bodys_constants_are_typed_per_site(tier_up_at):
    tier_up_at(0)
    module, inputs = _odd()
    cache = PlanCache()
    reference, _ = _run(_odd, "interpret")
    engine = Engine(module, inputs=inputs, plan_cache=cache)
    result = engine.run()
    assert observables(engine, result) == reference
    assert result.summary.plans_shared == 2
    # One code object, three functions; only the odd site's is guarded.
    sites = [site for _, _, site in cache.sites.values()]
    bodies = [site.plans[-1].compiled for site in sites]
    assert len({fn.__code__ for fn in bodies}) == 1
    guard = bodies[0].__code__.co_varnames.index("_guard") - 2
    assert [fn.__defaults__[guard] for fn in bodies] == [
        None, None, "int:bool",
    ]
    # The odd site's body, and — replaying — each entry of its loop body.
    assert result.summary.codegen_deopts == {"int:bool": 9}


def test_the_site_guard_is_what_holds(tier_up_at, monkeypatch):
    tier_up_at(0)
    monkeypatch.setattr(codegen, "_site_guard", lambda *args: None)
    with pytest.raises((AssertionError, TypeError, IndexError)):
        _agree(_odd)


def _traced(mode):
    module, inputs = _array_program(_every_kind_of_constant, 4)
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
    saved = plan.TIER_UP_EXECUTIONS
    plan.TIER_UP_EXECUTIONS = 0
    try:
        summary = _agree(lambda: _captured_index_program(sites))
    finally:
        plan.TIER_UP_EXECUTIONS = saved
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
    """Run ``build()``; every env a launch body ran in is looked at when
    the launch is issued and again when the run is over."""
    issued = []
    enqueue = ProcessorModel.enqueue

    def watching(self, entry):
        if entry.kind == "launch":
            block, env, futures = entry.payload
            for key, value in env.items():
                if isinstance(value, Future):
                    # Between issue and dispatch: under a block argument
                    # the issue step named, capturing a launch result.
                    assert isinstance(key, BlockArgument) and key in futures
            issued.append(env)
        enqueue(self, entry)

    ProcessorModel.enqueue = watching
    try:
        module, inputs = build()
        engine = Engine(module, EngineOptions(mode=mode), inputs)
        engine.run()
    finally:
        ProcessorModel.enqueue = enqueue
    found = 0
    # (The top-level entry runs in the engine's own env.)
    for env in {id(env): env for env in [engine.env, *issued]}.values():
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
    assert _futures_only_where_expected(_returns_captured, mode) == 2


# ---------------------------------------------------------------------------
# The two errors of issuing a launch
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["interpret", "plan", "codegen"])
def test_launch_target_must_be_a_processor(mode, tier_up_at):
    tier_up_at(0)
    module = ir.create_module()
    eq = EQueueBuilder(ir.Builder(ir.InsertionPoint.at_end(module.body)))
    memory = eq.create_mem("Register", 4, ir.i32)
    eq.launch(eq.control_start(), memory, body=lambda b: None)
    with pytest.raises(EngineError, match="launch target is not a processor"):
        simulate(module, EngineOptions(mode=mode, verify_module=False))


@pytest.mark.parametrize("mode", ["interpret", "plan", "codegen"])
def test_an_unbound_capture_is_an_error(mode, tier_up_at):
    tier_up_at(0)
    module = ir.create_module()
    eq = EQueueBuilder(ir.Builder(ir.InsertionPoint.at_end(module.body)))
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
