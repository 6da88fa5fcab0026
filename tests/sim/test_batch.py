"""Tests for the batch-simulation subsystem (repro.sim.batch):
SweepRunner sharding/determinism and the cross-simulation compile cache."""

import numpy as np
import pytest

from repro.dialects.linalg import ConvDims
from repro.generators.systolic import (
    SystolicConfig,
    SystolicProgram,
    build_systolic_program,
)
from repro.sim import (
    CompileCache,
    EngineOptions,
    SweepRunner,
    simulate,
    structural_signature,
)
from repro.sim.plan import PlanCache


def _ws_config(**dims_kwargs) -> SystolicConfig:
    return SystolicConfig("WS", 4, 4, ConvDims(**dims_kwargs))


def _lookup(cache: CompileCache, cfg: SystolicConfig):
    """The cache is builder-agnostic: callers bring key and builder."""
    return cache.lookup(
        structural_signature(cfg), lambda: build_systolic_program(cfg).module
    )


# Two conv shapes that generate the *identical* module: equal stream
# length (eh*ew = 25), stationary rows (fh*fw*c = 4), and filter count.
STRUCTURAL_TWINS = (
    _ws_config(n=2, c=4, h=5, w=5, fh=1, fw=1),
    _ws_config(n=2, c=1, h=6, w=6, fh=2, fw=2),
)


class TestStructuralSignature:
    def test_twins_share_signature(self):
        a, b = STRUCTURAL_TWINS
        assert structural_signature(a) == structural_signature(b)

    def test_signature_distinguishes_structure(self):
        base = _ws_config(n=2, c=4, h=5, w=5, fh=1, fw=1)
        other_dataflow = SystolicConfig("IS", 4, 4, base.dims)
        other_shape = SystolicConfig("WS", 2, 8, base.dims)
        other_stream = _ws_config(n=2, c=4, h=6, w=6, fh=1, fw=1)
        signatures = {
            structural_signature(cfg)
            for cfg in (base, other_dataflow, other_shape, other_stream)
        }
        assert len(signatures) == 4

    def test_twins_build_identical_modules(self):
        from repro.ir import print_op

        a, b = STRUCTURAL_TWINS
        assert print_op(build_systolic_program(a).module) == print_op(
            build_systolic_program(b).module
        )


class TestCompileCache:
    def test_module_reused_and_stats(self):
        cache = CompileCache()
        a, b = STRUCTURAL_TWINS
        cached_a = _lookup(cache, a)
        cached_b = _lookup(cache, b)
        assert cached_a.module is cached_b.module
        assert cached_a.plan_cache is cached_b.plan_cache
        assert cache.stats.programs_built == 1
        assert cache.stats.program_hits == 1
        cache.clear()
        assert cache.stats.programs_built == 0
        assert _lookup(cache, a).module is not cached_a.module

    def test_builder_runs_on_misses_only(self):
        """A hit never calls the builder (it must never look like — or
        cost — compile work); a cleared cache builds again."""
        cache = CompileCache()
        builds = []

        def build():
            builds.append(1)
            return build_systolic_program(STRUCTURAL_TWINS[0]).module

        entry = cache.lookup("key", build)
        assert cache.lookup("key", build) is entry
        assert len(builds) == 1
        cache.clear()
        assert cache.lookup("key", build) is not entry
        assert len(builds) == 2

    def test_cached_simulation_matches_cold(self):
        """Cache hits stay cycle-identical to cold compiles."""
        cache = CompileCache()
        rng = np.random.default_rng(11)
        for cfg in STRUCTURAL_TWINS:
            dims = cfg.dims
            ifmap = rng.integers(-3, 4, (dims.c, dims.h, dims.w)).astype(
                np.int32
            )
            weights = rng.integers(
                -3, 4, (dims.n, dims.c, dims.fh, dims.fw)
            ).astype(np.int32)
            cold_program = build_systolic_program(cfg)
            cold = simulate(
                cold_program.module,
                inputs=cold_program.prepare_inputs(ifmap, weights),
            )
            entry = _lookup(cache, cfg)
            warm = entry.simulate(
                SystolicProgram(entry.module, cfg).prepare_inputs(
                    ifmap, weights
                )
            )
            assert warm.cycles == cold.cycles == cfg.expected_cycles
            assert warm.summary.scheduler_events == (
                cold.summary.scheduler_events
            )
            for name in cold.buffers:
                assert (warm.buffer(name) == cold.buffer(name)).all(), name

    def test_plan_cache_counters_across_simulations(self):
        """The second structurally identical simulation compiles nothing:
        its plans all come from the shared cache (ProfilingSummary
        reports per-run deltas)."""
        cache = CompileCache()
        a, b = STRUCTURAL_TWINS
        rng = np.random.default_rng(3)

        def run(cfg):
            dims = cfg.dims
            ifmap = rng.integers(-3, 4, (dims.c, dims.h, dims.w)).astype(
                np.int32
            )
            weights = rng.integers(
                -3, 4, (dims.n, dims.c, dims.fh, dims.fw)
            ).astype(np.int32)
            cached = _lookup(cache, cfg)
            return cached.simulate(
                SystolicProgram(cached.module, cfg).prepare_inputs(
                    ifmap, weights
                )
            )

        first = run(a)
        second = run(b)
        assert first.summary.plans_compiled > 0
        assert second.summary.plans_compiled == 0
        assert second.summary.plan_cache_hits > 0
        assert second.cycles == first.cycles == a.expected_cycles


class TestPlanCacheReuse:
    def test_attach_flushes_on_config_change(self):
        cfg = STRUCTURAL_TWINS[0]
        program = build_systolic_program(cfg)
        inputs = program.prepare_inputs(
            np.zeros((cfg.dims.c, cfg.dims.h, cfg.dims.w), np.int32),
            np.zeros(
                (cfg.dims.n, cfg.dims.c, cfg.dims.fh, cfg.dims.fw), np.int32
            ),
        )
        shared = PlanCache()
        simulate(program.module, inputs=inputs, plan_cache=shared)
        assert shared.plans
        # Same plan-relevant options: plans survive.
        simulate(program.module, inputs=inputs, plan_cache=shared)
        assert shared.plans
        # Another execution mode: plans are flushed, then rebuilt.
        result = simulate(
            program.module,
            EngineOptions(mode="plan"),
            inputs=inputs,
            plan_cache=shared,
        )
        assert result.summary.plans_compiled > 0
        assert result.cycles == cfg.expected_cycles

    def test_engines_attach_at_run_not_construction(self):
        """Constructing several engines on one cache before running any
        of them must not re-point the cache under the engine that
        executes first (attachment happens at run())."""
        from repro.sim import Engine

        cfg = STRUCTURAL_TWINS[0]
        program = build_systolic_program(cfg)
        inputs = program.prepare_inputs(
            np.zeros((cfg.dims.c, cfg.dims.h, cfg.dims.w), np.int32),
            np.zeros(
                (cfg.dims.n, cfg.dims.c, cfg.dims.fh, cfg.dims.fw), np.int32
            ),
        )
        shared = PlanCache()
        first = Engine(program.module, inputs=inputs, plan_cache=shared)
        second = Engine(program.module, inputs=inputs, plan_cache=shared)
        result_first = first.run()
        result_second = second.run()
        assert result_first.cycles == result_second.cycles
        assert result_first.summary.plans_compiled > 0
        assert result_second.summary.plans_compiled == 0
        assert result_second.summary.plan_cache_hits > 0


def _double(value: int) -> int:  # module-level: picklable for workers
    return value * 2


class TestSweepRunner:
    def test_serial_map(self):
        runner = SweepRunner(jobs=1)
        assert runner.map(_double, [3, 1, 2]) == [6, 2, 4]
        assert not runner.fell_back

    def test_parallel_preserves_item_order(self):
        runner = SweepRunner(jobs=2)
        items = list(range(20, 0, -1))
        assert runner.map(_double, items) == [2 * i for i in items]

    def test_parallel_with_key_preserves_item_order(self):
        runner = SweepRunner(jobs=2, key=lambda x: x % 3)
        items = list(range(17))
        assert runner.map(_double, items) == [2 * i for i in items]

    def test_unpicklable_worker_falls_back_to_serial(self):
        runner = SweepRunner(jobs=2)
        assert runner.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        assert runner.fell_back

    def test_worker_exceptions_propagate(self):
        runner = SweepRunner(jobs=1)
        with pytest.raises(ZeroDivisionError):
            runner.map(lambda x: 1 // x, [1, 0])

    def test_group_aware_chunking_never_splits_groups(self):
        calls = []
        runner = SweepRunner(
            jobs=3, key=lambda x: calls.append(x) or x % 5
        )
        items = list(range(23))
        chunks = runner._chunks(*runner._order(items))
        assert sorted(calls) == items  # the key runs once per item
        assert sorted(i for chunk in chunks for i in chunk) == items
        owner = {}
        for chunk_index, chunk in enumerate(chunks):
            for i in chunk:
                group = items[i] % 5
                assert owner.setdefault(group, chunk_index) == chunk_index

    def test_explicit_chunk_size(self):
        runner = SweepRunner(jobs=2, chunk_size=2)
        chunks = runner._chunks(list(range(5)), [])
        assert chunks == [[0, 1], [2, 3], [4]]
