"""Source-codegen differential tests and the ExecutionMode API contract.

``EngineOptions.mode`` selects one of three execution paths — the
reference interpreter, block-plan replay, or per-plan Python source
codegen (:mod:`repro.sim.codegen`).  These tests pin down:

* the one canonical normalization point (:func:`resolve_execution_mode`),
* bit-identity on loop/branch/dynamic-index programs (``agree`` of
  ``tests/differential.py``), including a hypothesis property over
  randomly generated small modules,
* the codegen counters, the ``source_of`` escape hatch, and the plan
  cache's mode keying (plan and codegen artifacts never mix).

The programs here are small — no block runs often enough to tier up on
its own — so every test generates bodies at the first execution
(``tier_up_at(0)``); ``test_codegen_tiering.py`` holds the tiering
itself.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ir
from repro.dialects import affine, arith, scf
from repro.dialects.equeue import EQueueBuilder
from repro.sim import (
    Engine,
    EngineOptions,
    ExecutionMode,
    PlanCache,
    codegen,
    resolve_execution_mode,
    simulate,
)
from tests.differential import REFERENCE, agree, empty_program


@pytest.fixture(autouse=True)
def _generate_at_first_execution(tier_up_at):
    tier_up_at(0)


# ---------------------------------------------------------------------------
# ExecutionMode resolution: the single normalization point
# ---------------------------------------------------------------------------


class TestExecutionMode:
    def test_resolution_matrix(self):
        assert resolve_execution_mode(None) is ExecutionMode.CODEGEN
        for spelling in ("interpret", "plan", "codegen"):
            assert resolve_execution_mode(spelling) is ExecutionMode(spelling)
            assert (
                resolve_execution_mode(ExecutionMode(spelling))
                is ExecutionMode(spelling)
            )

    def test_str_enum_compares_to_plain_spelling(self):
        assert ExecutionMode.CODEGEN == "codegen"
        assert ExecutionMode("plan") is ExecutionMode.PLAN

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="valid modes"):
            resolve_execution_mode("turbo")

    def test_options_resolve_to_the_enum(self):
        assert EngineOptions().mode is resolve_execution_mode(None)
        for spelling in ("interpret", "plan", "codegen"):
            assert EngineOptions(mode=spelling).mode is ExecutionMode(spelling)
        with pytest.raises(ValueError, match="valid modes"):
            EngineOptions(mode="turbo")


# ---------------------------------------------------------------------------
# Three-way differential
# ---------------------------------------------------------------------------


def _branchy_program(n: int = 12):
    """A loop mixing the codegen fast paths: constant-folded arith,
    dynamic-index reads/writes, and an ``scf.if`` clamp."""
    module, eq = empty_program()
    pe = eq.create_proc("MAC", name="pe")
    mem = eq.create_mem("Register", 256, ir.i32, name="mem")
    src = eq.alloc(mem, [n], ir.i32, name="src")
    dst = eq.alloc(mem, [n], ir.i32, name="dst")
    start = eq.control_start()

    def body(b, src_a, dst_a):
        def loop(b2, i):
            eq2 = EQueueBuilder(b2)
            x = eq2.read_element(src_a, [i])
            three = arith.constant(b2, 3, ir.i32)
            scaled = arith.muli(b2, x, three)
            eq2.write_element(scaled, dst_a, [i])
            limit = arith.constant(b2, 20, ir.i32)
            cond = arith.cmpi(b2, "sgt", scaled, limit)

            def clamp(b3):
                eq3 = EQueueBuilder(b3)
                eq3.write_element(limit, dst_a, [i])

            scf.if_op(b2, cond, clamp)

        affine.for_loop(b, 0, n, body=loop)

    done, = eq.launch(
        start, pe, args=[src, dst], body=body, label="branchy"
    )
    eq.await_(done)
    ir.verify(module)
    return module


class TestCodegenDifferential:
    def test_branchy_loop(self, rng):
        data = rng.integers(-40, 40, 12).astype(np.int32)

        def build():
            return _branchy_program(), {"src": data}

        result = agree(build)[REFERENCE].result
        expected = np.minimum(data * 3, 20)
        np.testing.assert_array_equal(result.buffer("dst"), expected)

    def test_fir_counts_fallbacks(self, rng):
        from repro.generators.fir import FIRConfig, build_fir_program

        cfg = FIRConfig(n_cores=2, bandwidth=4, samples=32)
        samples = rng.integers(-8, 9, cfg.samples + cfg.taps).astype(np.int32)
        coeffs = rng.integers(-4, 5, cfg.taps).astype(np.int32)

        def build():
            program = build_fir_program(cfg)
            return program.module, program.prepare_inputs(samples, coeffs)

        summary = agree(build)["codegen@0/wheel"].summary
        # Every body of the FIR cascade awaits, returns values or holds
        # a loop: codegen takes them all, as generators, and declines
        # nothing.
        assert summary.blocks_codegenned == summary.codegen_suspending > 0
        assert summary.codegen_fallbacks == 0

    def test_detailed_trace_matches(self, rng):
        """Detailed tracing disables the arith/extern metadata fast
        paths; the traced wrappers must still run under codegen and
        emit the interpreter's exact records."""
        data = rng.integers(-40, 40, 12).astype(np.int32)
        records = []
        for mode in ("interpret", "plan", "codegen"):
            options = EngineOptions(trace=True, detailed_trace=True, mode=mode)
            result = Engine(
                _branchy_program(), options, {"src": data}
            ).run()
            records.append(
                [(r.name, r.start, r.duration) for r in result.trace.records]
            )
        assert records[0] == records[1] == records[2]


# ---------------------------------------------------------------------------
# Mechanics: counters, source attribute, cache keying
# ---------------------------------------------------------------------------


class TestCodegenMechanics:
    def test_generated_source_attached(self, rng):
        data = rng.integers(-40, 40, 12).astype(np.int32)
        engine = Engine(
            _branchy_program(), EngineOptions(mode="codegen"), {"src": data}
        )
        engine.run()
        plans = [
            plan
            for _, plan in engine._plans.plans.values()
            if plan.compiled is not None
        ]
        assert plans
        for plan in plans:
            # Entered with what the block is entered with: a launch body
            # with its captures, any other block with its env.
            body, block = plan.compiled, plan.block
            code = body.__code__
            entered = code.co_varnames[:code.co_argcount - len(body.__defaults__)]
            assert codegen.source_of(body).startswith(
                f"def _plan_body({', '.join(entered)}"
            )
            if block.parent_op is not None and block.parent_op.name == "equeue.launch":
                assert len(entered) == 1 + len(block.arguments)
            else:
                assert entered == ("ex", "env")

    def test_interpreter_never_codegens(self, rng):
        data = rng.integers(-40, 40, 12).astype(np.int32)
        engine = Engine(
            _branchy_program(), EngineOptions(mode="interpret"), {"src": data}
        )
        result = engine.run()
        assert engine._plans is None
        assert result.summary.blocks_codegenned == 0
        assert result.summary.plans_compiled == 0

    def test_plan_mode_never_codegens(self, rng):
        data = rng.integers(-40, 40, 12).astype(np.int32)
        engine = Engine(
            _branchy_program(), EngineOptions(mode="plan"), {"src": data}
        )
        result = engine.run()
        assert result.summary.plans_compiled > 0
        assert result.summary.blocks_codegenned == 0
        assert all(
            plan.compiled is None
            for _, plan in engine._plans.plans.values()
        )

    def test_cache_mode_switch_flushes(self, rng):
        """A shared plan cache reattached under a different mode flushes:
        a plan-mode artifact must never serve a codegen run or vice
        versa (mirrors the service store's key separation)."""
        data = rng.integers(-40, 40, 12).astype(np.int32)
        module = _branchy_program()
        cache = PlanCache()
        simulate(module, EngineOptions(mode="plan"), inputs={"src": data},
                 plan_cache=cache)
        assert cache.codegen_blocks == 0
        assert all(
            plan.compiled is None for _, plan in cache.plans.values()
        )
        plan_compiles = cache.compiled
        simulate(module, EngineOptions(mode="codegen"), inputs={"src": data},
                 plan_cache=cache)
        # The flush recompiled every plan, this time with codegen bodies.
        assert cache.compiled == 2 * plan_compiles
        assert cache.codegen_blocks > 0
        assert any(
            plan.compiled is not None for _, plan in cache.plans.values()
        )

    def test_summary_format_reports_codegen(self, rng):
        data = rng.integers(-40, 40, 12).astype(np.int32)
        result = simulate(
            _branchy_program(), EngineOptions(mode="codegen"),
            inputs={"src": data},
        )
        assert "codegen blocks:" in result.summary.format()
        assert result.summary.execution_mode == "codegen"

    def test_summary_roundtrip_keeps_mode(self, rng):
        from repro.sim import ProfilingSummary

        data = rng.integers(-40, 40, 12).astype(np.int32)
        result = simulate(
            _branchy_program(), EngineOptions(mode="codegen"),
            inputs={"src": data},
        )
        record = result.summary.to_dict()
        assert record["execution_mode"] == "codegen"
        loaded = ProfilingSummary.from_dict(record)
        assert loaded == result.summary
        # Records written before modes existed still load.
        record.pop("execution_mode")
        record.pop("blocks_codegenned")
        record.pop("codegen_fallbacks")
        record.pop("codegen_fallback_reasons")
        old = ProfilingSummary.from_dict(record)
        assert old.execution_mode == ""


# ---------------------------------------------------------------------------
# Property: random small modules are mode-independent
# ---------------------------------------------------------------------------


_OPS = ("addi", "subi", "muli", "maxsi", "minsi", "xori", "andi", "ori")


def _random_program(n, consts, ops, threshold):
    """A random straight-line arith chain inside a loop, with a
    conditional clamp — every codegen fast path in one small module."""
    module, eq = empty_program()
    pe = eq.create_proc("MAC", name="pe")
    mem = eq.create_mem("Register", 256, ir.i32, name="mem")
    src = eq.alloc(mem, [n], ir.i32, name="src")
    dst = eq.alloc(mem, [n], ir.i32, name="dst")
    start = eq.control_start()

    def body(b, src_a, dst_a):
        def loop(b2, i):
            eq2 = EQueueBuilder(b2)
            x = eq2.read_element(src_a, [i])
            for value, op_name in zip(consts, itertools.cycle(ops)):
                rhs = arith.constant(b2, value, ir.i32)
                x = getattr(arith, op_name)(b2, x, rhs)
            eq2.write_element(x, dst_a, [i])
            limit = arith.constant(b2, threshold, ir.i32)
            cond = arith.cmpi(b2, "slt", x, limit)

            def clamp(b3):
                eq3 = EQueueBuilder(b3)
                eq3.write_element(limit, dst_a, [i])

            scf.if_op(b2, cond, clamp)

        affine.for_loop(b, 0, n, body=loop)

    done, = eq.launch(start, pe, args=[src, dst], body=body, label="rand")
    eq.await_(done)
    ir.verify(module)
    return module


class TestCodegenProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=10),
        consts=st.lists(
            st.integers(min_value=-7, max_value=7), min_size=1, max_size=4
        ),
        ops=st.lists(st.sampled_from(_OPS), min_size=1, max_size=4),
        threshold=st.integers(min_value=-5, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_modes_agree_on_random_modules(
        self, n, consts, ops, threshold, seed
    ):
        data = (
            np.random.default_rng(seed)
            .integers(-50, 50, n)
            .astype(np.int32)
        )

        def build():
            return _random_program(n, consts, ops, threshold), {"src": data}

        agree(build, ("plan/wheel", "codegen@0/wheel"))
