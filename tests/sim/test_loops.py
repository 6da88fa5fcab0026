"""A loop is a loop: one form of ``affine.for`` per tier.

Replayed, an ``affine.for`` is the closure ``plan._c_for`` builds — a
generator that enters the loop body's plan once per iteration.
Generated, it is a native ``for`` statement in the body of the plan that
holds it, and that body is a generator function (``plan._suspends``
says so from the step list, whatever the replays counted).  There is no
third form — no batched evaluation of a loop, no option that selects
one — and no plain-function body with a loop in it: an inline body that
meets a loop in a flattened branch calls the loop's step.  These tests
hold:

* **the two forms** — over every grid point of every registered scenario
  (``pipeline``'s grid is the four stages of the lowering ladder), with
  the tier-up at the first execution and at the real threshold; and the
  loop an inline body meets in a branch;
* **the knob is gone** — from ``EngineOptions`` and from what a service
  request may name;
* **constants below a loop are a launch site's own** — bodies that
  differ in one share a shape, and agree with the interpreter in every
  tier on both schedulers.
"""

from __future__ import annotations

import inspect
import re

import pytest

from repro import ir
from repro.dialects import affine, arith, scf
from repro.dialects.equeue import EQueueBuilder
from repro.scenarios import get_scenario, scenario_names
from repro.service.scheduler import JobRequest, RequestError
from repro.sim import (
    Engine,
    EngineOptions,
    PlanCache,
    codegen,
    plan,
    simulate,
)
from tests.conftest import observables
from tests.sim.test_plan_shapes import _array_program, _run

#: A flattened ``affine.for``, as emitted: typed induction variable over
#: a bound ``range``.
NATIVE_LOOP = re.compile(r"^ +for _n\d+ in _r\d+:$", re.MULTILINE)


# ---------------------------------------------------------------------------
# The two forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("threshold", [0, plan.TIER_UP_EXECUTIONS])
@pytest.mark.parametrize("name", scenario_names())
def test_a_generated_loop_is_a_native_for_of_a_generator(
    name, threshold, tier_up_at
):
    tier_up_at(threshold)
    scenario = get_scenario(name)
    loops = 0
    for cfg in scenario.grid_points():
        cache = PlanCache()
        simulate(
            scenario.build(cfg),
            inputs=scenario.make_inputs(cfg, 5),
            plan_cache=cache,
        )
        for _, block_plan in cache.plans.values():
            body = block_plan.compiled
            if body is None:
                continue
            text = codegen.source_of(body)
            if any(map(plan._is_for, block_plan.steps)):
                loops += 1
                assert inspect.isgeneratorfunction(body)
                assert NATIVE_LOOP.search(text)
            if not inspect.isgeneratorfunction(body):
                assert not NATIVE_LOOP.search(text)
    if threshold == 0 and name != "gemm":  # (whose bodies hold no loop)
        assert loops > 0


def test_replayed_a_loop_is_one_generator_step():
    scenario = get_scenario("pipeline")
    cfg = scenario.configure(stage="affine")
    cache = PlanCache()
    simulate(
        scenario.build(cfg),
        EngineOptions(mode="plan"),
        inputs=scenario.make_inputs(cfg, 5),
        plan_cache=cache,
    )
    steps = [
        step
        for _, block_plan in cache.plans.values()
        for step in block_plan.steps
        if plan._is_for(step)
    ]
    assert len(steps) == 6  # the convolution's nest
    assert all(inspect.isgeneratorfunction(step) for _, step, _ in steps)


def _loop_in_a_branch(b, k, src, out):
    """Only the odd sites copy their row — in a loop."""
    row = arith.constant(b, k, ir.index)
    parity = arith.constant(b, k % 2, ir.index)
    zero = arith.constant(b, 0, ir.index)

    def odd(b1):
        def step(b2, i):
            eq2 = EQueueBuilder(b2)
            eq2.write_element(eq2.read_element(src, [i]), out, [row, i])

        affine.for_loop(b1, 0, 8, body=step)

    scf.if_op(b, arith.cmpi(b, "ne", parity, zero), odd)


def test_an_inline_body_calls_the_step_of_a_loop_in_a_flattened_branch(
    tier_up_at,
):
    """The body holds no loop itself and the first site through it does
    not suspend: a plain function, the branch in place, the loop a call
    that hands its generator to ``_resume`` like any step that waits."""
    tier_up_at(0)

    def build():
        return _array_program(_loop_in_a_branch, 2)

    reference, _ = _run(build, "interpret")
    module, inputs = build()
    cache = PlanCache()
    engine = Engine(module, inputs=inputs, plan_cache=cache)
    assert observables(engine, engine.run()) == reference
    assert reference["buffers"]["out"] == [[0] * 8, list(range(1, 9))]
    for _, _, site in cache.sites.values():
        body = site.plans[-1].compiled
        assert not inspect.isgeneratorfunction(body)
        text = codegen.source_of(body)
        assert not NATIVE_LOOP.search(text)
        assert re.search(
            r"\n( +)_r = _s\d+\(ex, env\)\n\1if _r is not None:\n"
            r"\1    return _resume\(",
            text,
        )


# ---------------------------------------------------------------------------
# The knob is gone
# ---------------------------------------------------------------------------


def test_there_is_no_option_to_set():
    with pytest.raises(TypeError, match="vectorize_loops"):
        EngineOptions(vectorize_loops=False)
    with pytest.raises(RequestError, match="unknown engine option") as error:
        JobRequest.make("fir", options={"vectorize_loops": False})
    valid = str(error.value).split("valid options: ")[1].split(", ")
    assert valid == [
        "scheduler", "mode", "max_cycles", "strict_capacity",
        "linalg_mac_cycles", "fill_cycles_per_element",
    ]


# ---------------------------------------------------------------------------
# Constants below a loop
# ---------------------------------------------------------------------------


def _in_loop_constant(b, k, src, out):
    """Sites that differ in a constant inside their loop."""
    row = arith.constant(b, k, ir.index)

    def step(b2, i):
        eq2 = EQueueBuilder(b2)
        gain = arith.constant(b2, k + 2, ir.i32)
        x = eq2.read_element(src, [i])
        eq2.write_element(arith.addi(b2, x, gain), out, [row, i])

    affine.for_loop(b, 0, 8, body=step)


def _in_loop_constants():
    return _array_program(_in_loop_constant, 3, src="Register")


@pytest.mark.parametrize("scheduler", ["wheel", "heap"])
def test_a_constant_below_a_loop_is_the_sites_own(scheduler, tier_up_at):
    reference, _ = _run(_in_loop_constants, "interpret", scheduler=scheduler)
    assert reference["buffers"]["out"][2] == [x + 4 for x in range(1, 9)]
    seen, summary = _run(_in_loop_constants, "plan", scheduler=scheduler)
    assert seen == reference, "plan diverged from interpret"
    assert (summary.plan_shapes, summary.plans_shared) == (1, 2)
    for threshold in (0, 2, plan.TIER_UP_EXECUTIONS):
        tier_up_at(threshold)
        seen, summary = _run(
            _in_loop_constants, "codegen", scheduler=scheduler
        )
        assert seen == reference, f"codegen@{threshold} diverged"
        assert (summary.plan_shapes, summary.plans_shared) == (1, 2)
        assert (summary.blocks_codegenned > 0) == (threshold < 8)
