"""Shapes and sites: a launch body is compiled once per structure.

:mod:`repro.sim.plan` keys every ``equeue.launch`` body structurally
(``_shape_key``), compiles plan steps once per key and has each launch
site bind its captures to the representative's arguments and bring its
own constant vector.  These tests hold:

* **bit-identity** — every registered scenario, the two programs whose
  hot bodies suspend, and a program whose sites differ in every kind of
  constant, on both schedulers: ``interpret`` (which walks every site's
  own ops — the oracle) == ``plan`` == codegen with the tier-up at the
  first execution, mid-run and never;
* **the fences** — what must never be shared is not, each with a program
  that goes wrong when its fence is taken away (the ``*_is_what_holds``
  tests take it away and watch the differential fail);
* **the counts** — an 8x8 WS program compiles ≤ 60 plans cold and none
  warm, one emit per shape, the three counters of ``ProfilingSummary``;
* **generated programs** — hypothesis perturbs the constants of
  same-shape bodies and checks shared == interpreted.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ir
from repro.dialects import affine, arith, memref, scf
from repro.dialects.equeue import EQueueBuilder
from repro.dialects.linalg import ConvDims
from repro.generators.systolic import SystolicConfig, build_systolic_program
from repro.scenarios import scenario_names
from repro.sim import (
    Engine,
    EngineOptions,
    PlanCache,
    codegen,
    plan,
    simulate,
)
from tests.conftest import observables
from tests.sim.test_codegen_tiering import (
    SUSPENDING,
    TIERS,
    VARIANTS,
    _builder as _tiering_builder,
)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


def _array_program(site_body, sites, shape=(8,), label="pe{}", src="SRAM"):
    """``sites`` PEs, each launched once with ``site_body(b, k, *args)``
    over one shared input ``src`` (in a one-ported SRAM unless told
    otherwise) and one register file ``out``."""
    module = ir.create_module()
    builder = ir.Builder(ir.InsertionPoint.at_end(module.body))
    eq = EQueueBuilder(builder)
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


def _every_kind_of_constant(b, k, src, out):
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


def _builder(program):
    """``build() -> (module, inputs)``: the tiering suite's programs and
    ``every-constant``."""
    if program == "every-constant":
        return lambda: _array_program(_every_kind_of_constant, 4)
    return _tiering_builder(program)


def _run(build, mode="plan", **overrides):
    module, inputs = build()
    engine = Engine(module, EngineOptions(mode=mode, **overrides), inputs)
    result = engine.run()
    return observables(engine, result), result.summary


def _agree(build, modes=("plan", "codegen"), **overrides):
    """Every mode's observables equal the interpreter's; returns the
    last summary."""
    reference, _ = _run(build, "interpret", **overrides)
    for mode in modes:
        seen, summary = _run(build, mode, **overrides)
        assert seen == reference, f"{mode} diverged from interpret"
    return summary


# ---------------------------------------------------------------------------
# Bit-identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheduler", ["wheel", "heap"])
@pytest.mark.parametrize(
    "program", [*scenario_names(), *SUSPENDING, "every-constant"]
)
def test_shared_plans_are_bit_identical_in_every_tier(
    program, scheduler, tier_up_at
):
    build = _builder(program)
    reference = None
    shared = 0
    for variant in VARIANTS:
        if variant in TIERS:
            tier_up_at(TIERS[variant])
        seen, summary = _run(
            build, variant.split("@")[0], scheduler=scheduler
        )
        if reference is None:
            reference = seen
            assert summary.plan_shapes == summary.plans_shared == 0
            continue
        assert seen == reference, f"{variant} diverged from interpret"
        shared = summary.plans_shared
        if variant == "codegen@0":
            assert summary.blocks_codegenned > 0
        elif variant == "codegen@never":
            assert summary.blocks_codegenned == 0
    if program in (*SUSPENDING, "every-constant", "systolic"):
        assert shared > 0  # the comparison above was of shared plans


def test_a_site_is_what_differs_between_same_shape_bodies(tier_up_at):
    """The four sites of ``every-constant``: one shape, four constant
    vectors, and — once hot — four functions of one code object."""
    tier_up_at(0)
    module, inputs = _array_program(_every_kind_of_constant, 4)
    cache = PlanCache()
    summary = simulate(module, inputs=inputs, plan_cache=cache).summary
    assert (summary.plan_shapes, summary.plans_shared) == (1, 3)
    sites = [site for _, _, site in cache.sites.values()]
    assert [site.consts for site in sites] == [
        (k, 10 * (k + 1), k % 2, 0, 1, k + 2) for k in range(4)
    ]
    shape, = cache.shapes.values()
    assert all(
        view.shape is shared and view.steps is shared.steps
        for site in sites
        for view, shared in zip(site.plans, shape.plans)
    )
    tops = [site.plans[-1].compiled for site in sites]
    assert len({fn.__code__ for fn in tops}) == 1
    assert len({id(fn) for fn in tops}) == 4
    # What replay reads from the environment, the body has folded.
    assert (3, 0) in tops[3].__defaults__ and (1, 0) in tops[1].__defaults__


# ---------------------------------------------------------------------------
# The counts
# ---------------------------------------------------------------------------


def test_an_8x8_ws_program_compiles_one_set_of_plans_per_shape():
    """325 plans when every PE body compiled its own five; now the
    kernel's five plus five for each of the nine shapes (corner, edge
    and interior PEs)."""
    cfg = SystolicConfig(
        "WS", 8, 8, ConvDims(n=8, c=2, h=8, w=8, fh=2, fw=2)
    )
    program = build_systolic_program(cfg)
    rng = np.random.default_rng(3)
    dims = cfg.dims
    inputs = program.prepare_inputs(
        rng.integers(-3, 4, (dims.c, dims.h, dims.w)).astype(np.int32),
        rng.integers(-3, 4, (dims.n, dims.c, dims.fh, dims.fw)).astype(
            np.int32
        ),
    )
    cache = PlanCache()
    cold = simulate(program.module, inputs=inputs, plan_cache=cache).summary
    assert cold.plans_compiled == 5 + 9 * 5 <= 60
    assert (cold.plan_shapes, cold.plans_shared) == (9, 55)
    assert cold.plan_share_declined == {"K_GEN:equeue.await": 1}
    warm = simulate(program.module, inputs=inputs, plan_cache=cache).summary
    assert warm.plans_compiled == 0
    assert (warm.plan_shapes, warm.plans_shared) == (0, 0)
    assert warm.plan_share_declined == {}
    assert warm.cycles == cold.cycles == cfg.expected_cycles
    # ``plans`` stays total: every block of every site answers.
    blocks = [
        block
        for op in program.module.walk()
        for region in op.regions
        for block in region.blocks
        if block.ops
    ]
    assert all(id(block) in cache.plans for block in blocks)
    text = cold.format()
    assert (
        "50 compiled" in text
        and "9 body shapes (55 bodies shared one, 1 declined: "
        "1 K_GEN:equeue.await)" in text
    )


def test_one_emit_per_shape_one_function_per_site(tier_up_at, monkeypatch):
    tier_up_at(0)
    emitted = []
    emit = codegen._emit

    def counting(shape_or_plan, suspending):
        # (The module's own block awaits the sites: it is generated too,
        # as the suspending kind, and is nobody's shape.)
        if isinstance(shape_or_plan, plan.ShapePlan):
            emitted.append(shape_or_plan)
        return emit(shape_or_plan, suspending)

    monkeypatch.setattr(codegen, "_emit", counting)
    module, inputs = _array_program(_every_kind_of_constant, 4)
    cache = PlanCache()
    summary = simulate(module, inputs=inputs, plan_cache=cache).summary
    shape, = cache.shapes.values()
    # The body, its loop body (entered when a suspended loop resumes)
    # and its branch: each emitted once, whichever site got there first.
    assert len(emitted) == len(set(emitted)) <= len(shape.plans)
    assert set(emitted) <= set(shape.plans)
    views = [
        view for _, _, site in cache.sites.values() for view in site.plans
    ]
    generated = [view for view in views if view.compiled is not None]
    assert len(generated) == summary.blocks_codegenned - 1 > len(emitted)
    assert {view.shape for view in generated} == set(emitted)
    # Every function but each plan's first came from emitted code (the
    # first too, if another test's body had the same text).
    assert summary.codegen_code_shared >= len(generated) - len(emitted)


def test_the_threshold_counts_the_shape_not_the_site(tier_up_at):
    """Four sites, one execution each: no site alone passes a threshold
    of two, the shape does at its third execution."""
    tier_up_at(2)
    module, inputs = _array_program(_every_kind_of_constant, 4)
    cache = PlanCache()
    summary = simulate(module, inputs=inputs, plan_cache=cache).summary
    shape, = cache.shapes.values()
    assert shape.plans[-1].runs == 4
    tops = [site.plans[-1] for _, _, site in cache.sites.values()]
    assert [view.runs for view in tops] == [1, 1, 1, 1]
    assert sum(view.compiled is not None for view in tops) == 2
    assert summary.codegen_tiered_up == summary.blocks_codegenned


# ---------------------------------------------------------------------------
# The fences
# ---------------------------------------------------------------------------


def _scratch_buffer(b, k, src, out):
    """Identity: each site allocates its own named scratch buffer."""
    scratch = memref.alloc(b, [1], ir.i32)
    scratch.name_hint = f"scratch{k}"
    zero = arith.constant(b, 0, ir.index)
    memref.store(b, arith.constant(b, 7 * (k + 1), ir.i32), scratch, [zero])
    row = arith.constant(b, k, ir.index)
    EQueueBuilder(b).write_element(
        memref.load(b, scratch, [zero]), out, [row, zero]
    )


def test_identity_bearing_ops_are_never_shared():
    summary = _agree(lambda: _array_program(_scratch_buffer, 2))
    assert summary.plan_shapes == summary.plans_shared == 0
    assert summary.plan_share_declined == {"identity:memref.alloc": 2}
    module, inputs = _array_program(_scratch_buffer, 2)
    buffers = simulate(module, inputs=inputs).buffers
    assert buffers["scratch0"].array.tolist() == [7]
    assert buffers["scratch1"].array.tolist() == [14]


def test_the_identity_fence_is_what_holds(monkeypatch):
    monkeypatch.setattr(plan, "_IDENTITY_OPS", frozenset())
    monkeypatch.setattr(
        plan, "_SHAREABLE", plan._SHAREABLE | {"memref.alloc"}
    )
    module, inputs = _array_program(_scratch_buffer, 2)
    result = simulate(module, inputs=inputs)
    assert result.summary.plans_shared == 1
    assert "scratch1" not in result.buffers  # two sites, one buffer


@pytest.mark.parametrize(
    "name", ["equeue.alloc", "equeue.get_comp", "memref.alloc", "equeue.await"]
)
def test_unshareable_ops_are_not_in_the_shareable_set(name):
    assert name not in plan._SHAREABLE
    assert plan._COMPILERS.keys() >= plan._SHAREABLE - {
        "affine.yield", "scf.yield"
    }


def _loop_bound(b, k, src, out):
    row = arith.constant(b, k, ir.index)

    def step(b2, i):
        eq2 = EQueueBuilder(b2)
        eq2.write_element(eq2.read_element(src, [i]), out, [row, i])

    affine.for_loop(b, 0, 2 * (k + 1), body=step)


def test_loop_bounds_are_attributes_and_attributes_are_in_the_key():
    summary = _agree(lambda: _array_program(_loop_bound, 3))
    assert (summary.plan_shapes, summary.plans_shared) == (3, 0)


def _nested_program():
    """Three outer bodies, identical up to the constants of the launch
    nested in each."""
    module = ir.create_module()
    builder = ir.Builder(ir.InsertionPoint.at_end(module.body))
    eq = EQueueBuilder(builder)
    sram = eq.create_mem("SRAM", 64, ir.i32, name="sram")
    regs = eq.create_mem("Register", 64, ir.i32, name="regs")
    src = eq.alloc(sram, [4], ir.i32, name="src")
    out = eq.alloc(regs, [3, 4], ir.i32, name="out")
    worker = eq.create_proc("MAC", name="worker")
    start = eq.control_start()
    done = []
    for k in range(3):
        pe = eq.create_proc("MAC", name=f"pe{k}")

        def outer(b, src_a, out_a, worker_a, _k=k):
            eq_b = EQueueBuilder(b)
            zero = arith.constant(b, 0, ir.index)
            one = arith.constant(b, 1, ir.index)
            eq_b.write_element(
                eq_b.read_element(src_a, [zero]), out_a, [zero, one]
            )

            def inner(b2, out_i):
                value = arith.constant(b2, 100 + _k, ir.i32)
                cell = arith.constant(b2, _k, ir.index)
                first = arith.constant(b2, 0, ir.index)
                EQueueBuilder(b2).write_element(value, out_i, [cell, first])

            eq_b.launch(
                eq_b.control_start(), worker_a, args=[out_a], body=inner,
                label="inner",  # the launch ops differ in nothing
            )

        done.append(
            eq.launch(
                start, pe, args=[src, out, worker], body=outer,
                label=f"outer{k}",
            )[0]
        )
    eq.await_(eq.control_and(done))
    ir.verify(module)
    return module, {"src": np.arange(1, 5, dtype=np.int32)}


def test_abstraction_stops_at_a_nested_launch_body():
    summary = _agree(_nested_program)
    # The nested bodies are three sites of one shape; their constants
    # make three shapes of the outer bodies.
    assert (summary.plan_shapes, summary.plans_shared) == (4, 2)
    module, inputs = _nested_program()
    out = simulate(module, inputs=inputs).buffer("out")
    assert out[:, 0].tolist() == [100, 101, 102]


def test_the_nested_launch_fence_is_what_holds(monkeypatch):
    monkeypatch.setattr(
        plan, "_ABSTRACTS_INTO", plan._ABSTRACTS_INTO | {"equeue.launch"}
    )
    with pytest.raises(AssertionError, match="diverged"):
        _agree(_nested_program)


def test_types_are_in_the_key_and_a_memref_is_its_rank_and_element():
    """A buffer's dimensions are the buffer's, at run time: no step
    compiler reads them.  Everything else about a type stays."""

    def key(argument, build=lambda b, buffer: arith.constant(b, 1, ir.i32)):
        block = ir.Block(arg_types=[argument])
        build(ir.Builder(ir.InsertionPoint.at_end(block)), *block.arguments)
        return plan._shape_key(block)[0]

    def buffer(shape, element=ir.i32):
        return ir.MemRefType(tuple(shape), element)

    assert key(buffer([4])) == key(buffer([8]))  # dimensions: left out
    assert key(buffer([4, 4])) == key(buffer([2, 16]))
    assert key(buffer([4])) != key(buffer([2, 2]))  # the rank
    assert key(buffer([4])) != key(buffer([4], ir.index))  # the element
    assert key(buffer([4])) != key(ir.TensorType((4,), ir.i32))
    assert key(ir.TensorType((4,), ir.i32)) != key(ir.TensorType((8,), ir.i32))

    def whole_read(b, source):  # ... and a tensor result keeps its own
        EQueueBuilder(b).read(source)

    assert key(buffer([4]), whole_read) != key(buffer([8]), whole_read)
    assert key(buffer([4]), whole_read) == key(buffer([4]), whole_read)

    def posted_read(b, source):  # an attribute
        EQueueBuilder(b).read(source, posted=True)

    assert key(buffer([4]), whole_read) != key(buffer([4]), posted_read)


def _copy_some(b, k, src, out):
    """Site ``k`` copies the first four elements of ``src`` to its row."""
    row = arith.constant(b, k, ir.index)

    def step(b2, i):
        eq2 = EQueueBuilder(b2)
        eq2.write_element(eq2.read_element(src, [i]), out, [row, i])

    affine.for_loop(b, 0, 4, body=step)


@pytest.mark.parametrize("threshold", [0, 3, 10**9])
def test_programs_that_differ_in_buffer_dimensions_share_their_shapes(
    threshold, tier_up_at
):
    """Two modules, one body up to the dimensions of what it is handed:
    through one cache the second binds the first's shape — steps,
    emitted code, execution count — and both see what they see through
    a cache each."""
    tier_up_at(threshold)

    def programs():
        return [
            _array_program(_copy_some, 3, shape=(8,)),
            _array_program(_copy_some, 3, shape=(12,)),
        ]

    def run(module, inputs, cache):
        engine = Engine(module, EngineOptions(), inputs, plan_cache=cache)
        result = engine.run()
        return observables(engine, result), result.summary

    apart = [run(*program, PlanCache()) for program in programs()]
    shared = PlanCache()
    together = [run(*program, shared) for program in programs()]
    assert [seen for seen, _ in together] == [seen for seen, _ in apart]
    assert apart[0][0] != apart[1][0]  # the programs do differ
    own, bound = (summary for _, summary in together)
    assert (own.plan_shapes, own.plans_shared) == (1, 2)
    assert (bound.plan_shapes, bound.plans_shared) == (0, 3)
    # The second program compiles its top-level block and nothing else.
    assert bound.plans_compiled == apart[1][1].plans_compiled - 2 == 1
    assert len(shared.shapes) == 1
    if threshold == 0:
        assert bound.blocks_codegenned == apart[1][1].blocks_codegenned
        # Site functions of the one code object the first program emitted.
        assert bound.codegen_code_shared >= 3


def _scalar_into(b, k, buffer):
    eq = EQueueBuilder(b)
    zero = arith.constant(b, 0, ir.index)
    eq.write_element(arith.constant(b, 7, ir.i32), buffer, [zero])


def _one_index_program():
    """Two PEs, one body — ``buffer[0] = 7`` — over a vector and over a
    matrix, where one index names a row of four."""
    module = ir.create_module()
    builder = ir.Builder(ir.InsertionPoint.at_end(module.body))
    eq = EQueueBuilder(builder)
    regs = eq.create_mem("Register", 64, ir.i32, name="regs")
    buffers = [
        eq.alloc(regs, [4], ir.i32, name="vector"),
        eq.alloc(regs, [2, 4], ir.i32, name="matrix"),
    ]
    start = eq.control_start()
    done = [
        eq.launch(
            start, eq.create_proc("MAC", name=f"pe{k}"), args=[buffer],
            body=lambda b, a, _k=k: _scalar_into(b, _k, a), label=f"pe{k}",
        )[0]
        for k, buffer in enumerate(buffers)
    ]
    eq.await_(eq.control_and(done))
    return module, {}


def test_a_buffer_of_another_rank_is_another_shape():
    """The vector's write is one element, compiled as one
    (``_scalar_access``); the matrix's is a row, the general handler's."""
    summary = _agree(_one_index_program, verify_module=False)
    assert (summary.plan_shapes, summary.plans_shared) == (2, 0)
    module, inputs = _one_index_program()
    result = simulate(module, EngineOptions(verify_module=False), inputs=inputs)
    assert result.buffer("vector").tolist() == [7, 0, 0, 0]
    assert result.buffer("matrix").tolist() == [[7, 7, 7, 7], [0, 0, 0, 0]]
    assert result.summary.memory_named("regs").bytes_written == 4 + 16


def test_the_rank_in_the_key_is_what_holds(monkeypatch):
    monkeypatch.setattr(
        plan, "_key_type",
        lambda parts, type_: parts.append(
            ir.MemRefType if type(type_) is ir.MemRefType else type_
        ),
    )
    with pytest.raises(AssertionError, match="diverged"):
        _agree(_one_index_program, verify_module=False)
    module, inputs = _one_index_program()
    result = simulate(module, EngineOptions(verify_module=False), inputs=inputs)
    assert result.summary.plans_shared == 1
    # The row went through the vector's one-element step.
    assert result.summary.memory_named("regs").bytes_written == 4 + 4


def test_constant_values_are_all_two_same_shape_keys_leave_out():
    def key(value, in_loop):
        block = ir.Block(arg_types=[ir.index])
        b = ir.Builder(ir.InsertionPoint.at_end(block))
        arith.constant(b, value, ir.index)
        affine.for_loop(
            b, 0, 4,
            body=lambda b2, i: arith.constant(b2, in_loop, ir.index),
        )
        return plan._shape_key(block)[:2]

    assert key(1, 5)[0] == key(2, 6)[0]  # below a loop too
    assert (key(1, 5)[1], key(2, 6)[1]) == ((1, 5), (2, 6))


def test_a_body_that_is_not_closed_is_not_shared():
    outer = ir.Block(arg_types=[ir.index])
    inner = ir.Block()
    b = ir.Builder(ir.InsertionPoint.at_end(inner))
    arith.addi(b, outer.arguments[0], outer.arguments[0])
    with pytest.raises(plan._Unshareable, match="escapes"):
        plan._shape_key(inner)


def _out_of_range(b, k, src, out):
    eq = EQueueBuilder(b)
    zero = arith.constant(b, 0, ir.index)
    # The last site reads past the end of ``src``; the first — the
    # representative its steps were compiled against — does not.
    where = arith.constant(b, 0 if k < 2 else 11, ir.index)
    row = arith.constant(b, k, ir.index)
    eq.write_element(eq.read_element(src, [where], posted=True), out, [row, zero])


@pytest.mark.parametrize("variant", VARIANTS)
def test_an_error_names_the_site_it_happened_in(variant, tier_up_at):
    if variant in TIERS:
        tier_up_at(TIERS[variant])
    module, inputs = _array_program(_out_of_range, 3)
    with pytest.raises(IndexError, match="index 11 is out of bounds"):
        simulate(
            module, EngineOptions(mode=variant.split("@")[0]), inputs=inputs
        )


@pytest.mark.parametrize("mode", ["plan", "codegen"])
def test_detailed_trace_labels_stay_per_site(mode, tier_up_at):
    tier_up_at(0)

    def trace(mode):
        module, inputs = _array_program(
            _every_kind_of_constant, 4, label="site-{}"
        )
        options = EngineOptions(mode=mode, trace=True, detailed_trace=True)
        result = simulate(module, options, inputs=inputs)
        return sorted(
            (r.name, r.category, r.pid, r.tid, r.start, r.duration)
            for r in result.trace.records
        )

    reference = trace("interpret")
    assert {"site-0", "site-1", "site-2", "site-3"} <= {r[0] for r in reference}
    assert trace(mode) == reference


# ---------------------------------------------------------------------------
# Generated same-shape bodies
# ---------------------------------------------------------------------------

SITE = st.fixed_dictionaries(
    {
        "row": st.integers(0, 1),
        "col": st.integers(0, 7),
        "bias": st.integers(-50, 50),
        "limit": st.integers(-5, 12),
        "scale": st.integers(-4, 4),
    }
)


def _generated(sites):
    """One shape, ``len(sites)`` sites: each constant is drawn per site."""

    def body(b, k, src, out):
        site = sites[k]
        eq = EQueueBuilder(b)
        row = arith.constant(b, site["row"], ir.index)
        col = arith.constant(b, site["col"], ir.index)
        bias = arith.constant(b, site["bias"], ir.i32)
        limit = arith.constant(b, site["limit"], ir.i32)
        x = eq.read_element(src, [col])
        y = arith.addi(b, x, bias)

        def small(b1):
            scale = arith.constant(b1, site["scale"], ir.i32)
            EQueueBuilder(b1).write_element(
                arith.muli(b1, y, scale), out, [row, col]
            )

        def large(b1):
            EQueueBuilder(b1).write_element(y, out, [row, col])

        scf.if_op(b, arith.cmpi(b, "slt", y, limit), small, large)

    return lambda: _array_program(body, len(sites))


@settings(max_examples=25, deadline=None)
@given(sites=st.lists(SITE, min_size=2, max_size=4))
def test_perturbed_constants_shared_equals_interpreted(sites):
    saved = plan.TIER_UP_EXECUTIONS
    plan.TIER_UP_EXECUTIONS = 1  # replay once, then the generated body
    try:
        summary = _agree(_generated(sites))
    finally:
        plan.TIER_UP_EXECUTIONS = saved
    assert (summary.plan_shapes, summary.plans_shared) == (1, len(sites) - 1)
