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

* **the two forms** — over every program of the differential corpus on
  every codegen backend (``assert_one_form_of_loop`` in the backend
  matrix: every registered scenario at its default and the last point
  of its grid, ``pipeline``'s four stages of the lowering ladder, and
  the hand-written programs, at tier-up 0, 2 and 64 on both
  schedulers); and the loop an inline body meets in a branch;
* **the knob is gone** — from ``EngineOptions`` and from what a service
  request may name;
* **constants below a loop are a launch site's own** — bodies that
  differ in one share a shape, and agree with the interpreter on every
  backend.
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
from tests.differential import (
    CORPUS,
    NATIVE_LOOP,
    REFERENCE,
    agree,
    array_program,
    assert_one_form_of_loop,
    observables,
    run,
)


# ---------------------------------------------------------------------------
# The two forms
# ---------------------------------------------------------------------------


def test_the_matrix_meets_generated_loops():
    """The backend matrix holds every generated body of every corpus
    program, on every codegen backend, to the one generated form of a
    loop (``assert_one_form_of_loop``): every registered scenario but
    ``gemm`` (whose bodies hold none) has corpus programs with loops to
    hold."""
    looping = set()
    for name, program in CORPUS.items():
        scenario = name.partition(":")[0]
        if scenario in scenario_names():
            done = run(program.build, "codegen@0/wheel")
            assert_one_form_of_loop(done)
            if any(
                p.compiled is not None and any(map(plan._is_for, p.steps))
                for _, p in done.engine._plans.plans.values()
            ):
                looping.add(scenario)
    assert looping == set(scenario_names()) - {"gemm"}


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
        return array_program(_loop_in_a_branch, 2)

    reference = run(build, REFERENCE).seen
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
        # (A slow path reads what only slow paths read from ``_cold``.)
        assert re.search(
            r"\n( +)_r = _s\d+\(ex, env\)\n\1if _r is not None:\n"
            r"\1    return _cold\._resume\(",
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
    return array_program(_in_loop_constant, 3, src="Register")


def test_a_constant_below_a_loop_is_the_sites_own():
    runs = agree(_in_loop_constants)
    assert runs[REFERENCE].seen["buffers"]["out"][2] == [
        x + 4 for x in range(1, 9)
    ]
    for backend, done in runs.items():
        if backend.startswith(("plan", "codegen")):
            summary = done.summary
            assert (summary.plan_shapes, summary.plans_shared) == (1, 2)
            # 24 entries of the loop body's shape: generated from the
            # first and from the third, never at the real threshold.
            assert (summary.blocks_codegenned > 0) == (
                backend.startswith(("codegen@0/", "codegen@2/"))
            )
