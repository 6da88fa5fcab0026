"""The permanent-generation hand-off of cached programs
(:mod:`repro.sim.permanent`): invisible in every result, never keeps
garbage, gives everything back on ``clear()``, and shares the freeze
with the sweep pool instead of fighting over it."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.analysis import SweepSpec, run_sweep
from repro.analysis.dse import clear_sweep_caches
from repro.generators.systolic import SystolicProgram, build_systolic_program
from repro.scenarios import clear_scenario_caches, get_scenario
from repro.service import JobRequest, JobScheduler, ResultStore
from repro.sim import (
    CachedProgram,
    CompileCache,
    EngineOptions,
    PlanCache,
    permanent,
    simulate,
)
from repro.sim.batch import (
    deterministic_conv_inputs,
    process_compile_cache,
    result_record,
    structural_signature,
)
from tests.differential import observables


def _freeze_parks_objects() -> bool:
    gc.freeze()
    parked = gc.get_freeze_count()
    gc.unfreeze()
    return parked > 0 and gc.get_freeze_count() == 0


pytestmark = pytest.mark.skipif(
    not _freeze_parks_objects(),
    reason="this interpreter's gc.freeze() does not park objects in a "
    "permanent generation the way CPython 3.10-3.12 does",
)


@pytest.fixture(autouse=True)
def _thawed_and_cold():
    clear_sweep_caches()
    clear_scenario_caches()
    gc.unfreeze()
    yield
    clear_sweep_caches()
    clear_scenario_caches()
    gc.unfreeze()


def _lookup(cache: CompileCache, cfg):
    return cache.lookup(
        structural_signature(cfg), lambda: build_systolic_program(cfg).module
    )


def _prepared(entry, cfg, ifmap, weights):
    return SystolicProgram(entry.module, cfg).prepare_inputs(ifmap, weights)


def sweep_style_points():
    """A cut of the throughput sweep's space: every dataflow, two array
    shapes, several stream lengths; some points share a structure."""
    spec = SweepSpec(
        array_heights=(2, 4),
        total_pes=8,
        image_sizes=(3, 4),
        filter_sizes=(1, 2),
        channels=(1,),
        filter_counts=(2,),
    )
    return list(spec.points())


class TestHandOffIsInvisible:
    def test_frozen_cache_equals_cold_build_for_two_seeds(self):
        """Seed 0 fills and parks every structure; seed 1 runs on the
        parked entries.  Both must match a cold build-and-simulate in
        cycles, scheduler events, memory traffic and every named
        buffer."""
        cache = CompileCache()
        points = sweep_style_points()
        for seed in (0, 1):
            for cfg in points:
                ifmap, weights = deterministic_conv_inputs(cfg.dims, seed)
                entry = _lookup(cache, cfg)
                warm = entry.simulate(_prepared(entry, cfg, ifmap, weights))
                assert entry.parked
                program = build_systolic_program(cfg)
                cold = simulate(
                    program.module,
                    inputs=program.prepare_inputs(ifmap, weights),
                )
                assert observables(None, warm) == observables(
                    None, cold
                ), (cfg, seed)
        structures = len({structural_signature(cfg) for cfg in points})
        assert 1 < structures < len(points)  # seed 0 re-hits parked entries too
        assert cache.stats.programs_built == structures
        assert cache.stats.program_hits == 2 * len(points) - structures
        assert gc.get_freeze_count() > 0
        cache.clear()

    def test_interpreted_runs_park_too(self):
        """One path for every cached program: a cache driven without
        compiled plans hands its module off just the same."""
        cache = CompileCache()
        cfg = sweep_style_points()[0]
        ifmap, weights = deterministic_conv_inputs(cfg.dims, 0)
        entry = _lookup(cache, cfg)
        built = gc.get_freeze_count()
        assert entry.parked and built > 0  # the IR, straight from the build
        entry.simulate(
            _prepared(entry, cfg, ifmap, weights),
            EngineOptions(verify_module=False, mode="interpret"),
        )
        assert entry.warmed and permanent._deferred  # owed, not yet done
        assert gc.get_freeze_count() == built
        permanent.settle()  # an interpreted run leaves no plans to add
        assert gc.get_freeze_count() >= built and not permanent._deferred
        cache.clear()
        assert gc.get_freeze_count() == 0

    def test_bodies_generated_after_parking_join_the_next_hand_off(self):
        """A block can cross the tier-up threshold in a simulation after
        the one that parked its program.  The body generated then is as
        permanent as the plan it belongs to: it is owed a hand-off, and
        the next cached simulation's settle parks it."""
        cache = CompileCache()
        cfg = sweep_style_points()[0]
        ifmap, weights = deterministic_conv_inputs(cfg.dims, 0)
        entry = _lookup(cache, cfg)

        def run():
            return entry.simulate(
                _prepared(entry, cfg, ifmap, weights)
            ).summary.blocks_codegenned

        assert run() == 0  # too few executions to generate anything yet
        assert run() == 0  # ... and this one settled the first hand-off
        assert not permanent._deferred
        generated = 0
        while not generated:
            generated = run()
        assert permanent._deferred
        bodies = [
            plan.compiled
            for _, plan in entry.plan_cache.plans.values()
            if plan.compiled is not None
        ]
        assert len(bodies) == generated
        young = {id(obj) for obj in gc.get_objects()}
        assert all(id(body) in young for body in bodies)
        run()
        assert not permanent._deferred
        parked = {id(obj) for obj in gc.get_objects()}
        assert not any(id(body) in parked for body in bodies)
        cache.clear()


class _Sentinel:
    pass


def _drop_a_cycle() -> weakref.ref:
    sentinel = _Sentinel()
    sentinel.me = sentinel
    return weakref.ref(sentinel)


def _fill(cache: CompileCache, cfg):
    """Build, simulate once, and hand the result to the caller — who, like
    every real caller, still holds it when ``simulate`` returns."""
    ifmap, weights = deterministic_conv_inputs(cfg.dims, 0)
    entry = _lookup(cache, cfg)
    return entry.simulate(_prepared(entry, cfg, ifmap, weights))


def _stranded_after_thaw() -> int:
    """What a full collection finds once everything parked is given
    back: objects that were garbage when parked, or died parked."""
    permanent.settle()
    gc.collect()
    gc.unfreeze()
    return gc.collect()


def _scenario_points():
    """Every registered scenario's default config and one grid point,
    plus all four stages of the lowering pipeline."""
    from repro.generators.pipeline import STAGES
    from repro.scenarios import scenario_names

    draw = np.random.default_rng(2022)
    for name in scenario_names():
        scenario = get_scenario(name)
        yield scenario, scenario.configure()
        grid = scenario.grid_points()
        yield scenario, grid[int(draw.integers(len(grid)))]
    pipeline = get_scenario("pipeline")
    for stage in STAGES:
        yield pipeline, pipeline.configure(stage=stage)


class TestNothingLeaks:
    """Garbage is collected, never parked — and a program is frozen
    straight from its build, so whatever cyclic garbage the build left
    would be parked with it: the stranded counts below are exact."""

    def test_garbage_is_collected_not_parked(self):
        """A cycle dropped just before a fill must die at the hand-off.
        Automatic collection is off, so only the hand-off's own collect
        can kill it — freezing without collecting would keep it."""
        cache = CompileCache()
        sentinels = []
        gc.disable()
        try:
            for cfg in sweep_style_points()[:6]:
                sentinels.append(_drop_a_cycle())
                assert sentinels[-1]() is not None
                _fill(cache, cfg)
            permanent.settle()  # the last fill's hand-off
        finally:
            gc.enable()
        assert [ref() for ref in sentinels] == [None] * 6
        cache.clear()

    def test_a_result_read_and_dropped_is_not_stranded(self):
        """The caller still holds each result when ``simulate`` returns,
        and a result keeps its whole engine — a cyclic graph — alive:
        parking on the way *out* would freeze that graph and strand it
        once dropped.  The hand-off waits for the next cached simulation
        instead, so thawing must find nothing to collect.  (A result
        kept *across* the next cached simulation is parked with it and
        waits for ``clear()`` — the documented residue.)"""
        cache = CompileCache()
        for cfg in sweep_style_points()[:6]:
            assert _fill(cache, cfg).cycles > 0
        permanent.settle()
        assert gc.get_freeze_count() > 0
        gc.collect()
        gc.unfreeze()
        assert gc.collect() == 0
        cache.clear()

    def test_clear_gives_everything_back(self):
        points = sweep_style_points()
        cache = CompileCache()
        _fill(cache, points[0])  # lazy imports and memo tables settle
        cache.clear()
        gc.collect()
        baseline = len(gc.get_objects())
        for cfg in points:
            _fill(cache, cfg)
        assert gc.get_freeze_count() > baseline
        cache.clear()
        gc.collect()
        assert gc.get_freeze_count() == 0
        assert len(gc.get_objects()) == pytest.approx(baseline, rel=0.01)

    def test_clearing_an_unparked_cache_leaves_others_parked(self):
        parked, idle = CompileCache(), CompileCache()
        _fill(parked, sweep_style_points()[0])
        permanent.settle()
        # A program that reached the cache some other way than lookup()
        # and never ran: nothing of it was parked.
        idle.entries["by-hand"] = CachedProgram(
            build_systolic_program(sweep_style_points()[1]).module, PlanCache()
        )
        idle.clear()
        assert gc.get_freeze_count() > 0
        parked.clear()
        assert gc.get_freeze_count() == 0

    def test_a_program_built_and_never_simulated_is_given_back(self):
        """lookup() parks the IR it builds, so the entry counts as
        parked from then on: clearing must thaw, or the module — cyclic,
        frozen — would never be reclaimed."""
        cache = CompileCache()
        entry = _lookup(cache, sweep_style_points()[1])
        assert entry.parked and not entry.warmed
        assert gc.get_freeze_count() > 0
        module = weakref.ref(entry.module)
        del entry
        cache.clear()
        assert gc.get_freeze_count() == 0
        gc.collect()
        assert module() is None

    def test_dropping_a_cache_without_clear_still_thaws(self):
        cache = CompileCache()
        _fill(cache, sweep_style_points()[0])
        permanent.settle()
        assert gc.get_freeze_count() > 0
        del cache
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize(
        "scenario, cfg",
        [
            pytest.param(scenario, cfg, id=f"{scenario.name}-{index}")
            for index, (scenario, cfg) in enumerate(_scenario_points())
        ],
    )
    def test_build_run_settle_thaw_finds_nothing(self, scenario, cfg):
        from repro.scenarios.sweep import simulate_scenario

        result, _ = simulate_scenario(scenario, cfg)
        assert result.cycles > 0
        del result
        assert gc.get_freeze_count() > 0
        assert _stranded_after_thaw() == 0

    def test_a_systolic_sweep_slice_strands_nothing(self):
        spec = SweepSpec(
            dataflows=("WS",),
            array_heights=(4,),
            total_pes=16,
            image_sizes=(4,),
            filter_sizes=(2,),
            channels=(1, 2),
            filter_counts=(1, 2, 4, 8, 16, 32),
        )
        points = run_sweep(spec, use_des=True, jobs=1, compile_cache=True)
        assert len(points) == 12 and all(point.simulated for point in points)
        del points
        assert len(process_compile_cache().entries) > 1
        assert _stranded_after_thaw() == 0

    def test_an_erased_op_is_a_tree(self):
        """What the lowering passes leave behind: an erased op — nested
        regions, results and all — is freed by reference counting."""
        from repro import ir
        from repro.dialects import affine, arith

        block = ir.Block()
        builder = ir.Builder(ir.InsertionPoint.at_end(block))
        bound = arith.constant(builder, 3, ir.index)
        loop = affine.for_loop(
            builder, 0, 4,
            body=lambda b, i: arith.addi(b, arith.addi(b, i, bound), i),
        )
        probes = [weakref.ref(loop), weakref.ref(loop.body.ops[0])]
        gc.disable()
        try:
            loop.erase()
            del loop
            assert [probe() for probe in probes] == [None, None]
        finally:
            gc.enable()
        assert not bound.has_uses and block.ops == [bound.owner]


class TestCollectorStateIsRestored:
    """``under_construction`` / ``paused`` hold automatic collection off;
    every way out leaves ``gc.isenabled()`` as it was found."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_after_a_sweep(self, enabled):
        spec = SweepSpec(
            array_heights=(2,), total_pes=4, image_sizes=(3,),
            filter_sizes=(1, 2), channels=(1,), filter_counts=(1, 2),
        )
        (gc.enable if enabled else gc.disable)()
        try:
            run_sweep(spec, use_des=True, jobs=1, compile_cache=True)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_after_an_exception_inside_a_build(self):
        cache = CompileCache()

        def build():
            assert not gc.isenabled()  # held off while building
            raise RuntimeError("generator bug")

        with pytest.raises(RuntimeError, match="generator bug"):
            cache.lookup(("broken",), build)
        assert gc.isenabled()
        assert not cache.entries and gc.get_freeze_count() == 0

    def test_after_an_exception_inside_the_first_simulation(self):
        cache = CompileCache()
        cfg = sweep_style_points()[0]
        entry = _lookup(cache, cfg)
        with pytest.raises(Exception, match="does not match any buffer"):
            entry.simulate({"no_such_buffer": np.zeros(1, np.int32)})
        assert gc.isenabled() and not entry.warmed
        cache.clear()

    def test_with_two_threads_interleaving_misses(self):
        import threading

        cache = CompileCache()
        points = sweep_style_points()[:6]
        inside = threading.Barrier(2, timeout=60)
        failures = []

        def fill(cfgs, rendezvous):
            try:
                for cfg in cfgs:
                    def build(cfg=cfg):
                        if rendezvous:  # both threads mid-build at once
                            inside.wait()
                        return build_systolic_program(cfg).module

                    ifmap, weights = deterministic_conv_inputs(cfg.dims, 0)
                    entry = cache.lookup(
                        structural_signature(cfg) + (rendezvous,), build
                    )
                    entry.simulate(_prepared(entry, cfg, ifmap, weights))
                    rendezvous = False
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(error)

        threads = [
            threading.Thread(target=fill, args=(points[i::2], True))
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures
        assert gc.isenabled() and permanent._pauses == 0
        cache.clear()


class TestForkWindow:
    def test_restores_an_unparked_heap(self):
        assert gc.get_freeze_count() == 0
        with permanent.frozen_for_fork():
            assert gc.get_freeze_count() > 0
        assert gc.get_freeze_count() == 0

    def test_pooled_sweep_keeps_a_warm_cache_parked(self):
        """``jobs>1`` used to end with an unconditional ``gc.unfreeze()``
        that thawed every cached program of the parent."""
        spec = SweepSpec(
            array_heights=(2,),
            total_pes=8,
            image_sizes=(3,),
            filter_sizes=(1, 2),
            channels=(1,),
            filter_counts=(1, 2),
        )
        run_sweep(spec, use_des=True, jobs=1, compile_cache=True)
        assert process_compile_cache().entries
        permanent.settle()
        before = gc.get_freeze_count()
        assert before > 0
        pooled = run_sweep(spec, use_des=True, jobs=2)
        assert all(point.simulated for point in pooled)
        # The window re-parks whatever was alive when it opened, so the
        # count may grow by the sweep's own few live objects — never
        # fall to zero, never double.
        assert gc.get_freeze_count() == pytest.approx(before, rel=0.01)
        clear_sweep_caches()
        assert gc.get_freeze_count() == 0


class TestServiceThread:
    def test_worker_thread_fill_parks_and_matches_a_cold_run(self, tmp_path):
        """The scenario cache fills on the scheduler's worker thread;
        the record it serves equals a direct build-and-simulate."""
        scheduler = JobScheduler(store=ResultStore(tmp_path))
        scheduler.start()
        try:
            job = scheduler.submit(JobRequest.make("gemm", check=False))
            assert job.wait(timeout=120)
            record = job.result()
            built = gc.get_freeze_count()
            assert built > 0 and permanent._deferred  # IR parked, plans owed
            # The next first-seen structure settles gemm's hand-off.
            assert scheduler.submit(JobRequest.make("fir")).wait(timeout=120)
        finally:
            scheduler.stop()
        assert gc.get_freeze_count() > built
        scenario = get_scenario("gemm")
        cfg = scenario.configure()
        cold = simulate(
            scenario.build(cfg),
            EngineOptions(verify_module=False),
            inputs=scenario.make_inputs(cfg, 0),
        )
        expected = result_record(cold)
        assert record["cycles"] == expected["cycles"]
        for summary in (record["summary"], expected["summary"]):
            del summary["execution_time_s"]  # host wall clock
        assert record["summary"] == expected["summary"]
        clear_scenario_caches()
        assert gc.get_freeze_count() == 0
