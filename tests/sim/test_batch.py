"""Tests for the batch-simulation subsystem (repro.sim.batch):
SweepRunner sharding/determinism and the cross-simulation compile cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.sim import batch, plan
from repro.sim.batch import deterministic_conv_inputs
from repro.sim.plan import PlanCache
from tests.differential import HOST_FIELDS


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


def _inputs(entry, cfg, seed=0):
    ifmap, weights = deterministic_conv_inputs(cfg.dims, seed)
    return SystolicProgram(entry.module, cfg).prepare_inputs(ifmap, weights)


def _seen(result):
    """Cycles, events, buffers and every stat of the simulated machine
    (the summary but for what the host did)."""
    summary = result.summary.to_dict()
    return (
        result.cycles,
        result.summary.scheduler_events,
        {n: b.array.tolist() for n, b in result.buffers.items()},
        {k: v for k, v in summary.items() if k not in HOST_FIELDS},
    )


def _cold(cfg, seed=0):
    program = build_systolic_program(cfg)
    ifmap, weights = deterministic_conv_inputs(cfg.dims, seed)
    return _seen(
        simulate(program.module, inputs=program.prepare_inputs(ifmap, weights))
    )


class TestOnePlanCachePerCompileCache:
    """Every program of a :class:`CompileCache` compiles into the
    cache's one ``PlanCache``: shapes cross programs, a lock keeps the
    simulations apart, and each engine configuration has its table."""

    FAMILY = (
        _ws_config(n=2, c=4, h=5, w=5, fh=1, fw=1),
        _ws_config(n=4, c=2, h=4, w=4, fh=2, fw=2),
        SystolicConfig("OS", 4, 4, ConvDims(n=3, c=2, h=4, w=4, fh=2, fw=2)),
    )

    def test_a_family_compiles_each_shape_once(self):
        """Two WS programs of different stream lengths (other buffer
        dimensions, one set of nine body shapes) and an OS one."""
        cache = CompileCache()
        summaries = []
        for cfg in self.FAMILY:
            entry = _lookup(cache, cfg)
            assert entry.plan_cache is cache.plans
            result = entry.simulate(_inputs(entry, cfg))
            assert _seen(result) == _cold(cfg)
            summaries.append(result.summary)
        first, second, third = summaries
        assert (first.plan_shapes, first.plans_shared) == (9, 7)
        assert (second.plan_shapes, second.plans_shared) == (0, 16)
        # Only the kernel's own blocks are the second program's to compile.
        assert second.plans_compiled == first.plans_compiled - 9 * 5
        assert (third.plan_shapes, third.plans_shared) == (9, 7)
        cache.clear()
        assert not cache.plans.shapes and not cache.plans.plans

    def test_traced_and_untraced_requests_each_keep_what_they_compiled(self):
        cache = CompileCache()
        cfg = self.FAMILY[0]
        entry = _lookup(cache, cfg)
        quiet = EngineOptions(verify_module=False)
        traced = EngineOptions(
            verify_module=False, trace=True, detailed_trace=True
        )
        rounds = [
            [
                entry.simulate(_inputs(entry, cfg), options)
                for options in (quiet, traced)
            ]
            for _ in range(2)
        ]
        assert all(r.summary.plans_compiled > 0 for r in rounds[0])
        for result in rounds[1]:
            assert result.summary.plans_compiled == 0
            assert result.summary.plan_shapes == 0
            assert result.summary.plan_share_declined == {}
        assert len(rounds[1][1].trace.records) == len(
            rounds[0][1].trace.records
        ) > len(rounds[1][0].trace.records)
        cold = _cold(cfg)
        assert all(_seen(r) == cold for rs in rounds for r in rs)
        cache.clear()

    def test_two_threads_on_two_programs_stay_bit_identical(self):
        """The plan cache serves one engine at a time; the compile
        cache's lock is what makes two service threads take turns."""
        import sys
        import threading

        cache = CompileCache()
        references = [_cold(cfg, seed=3) for cfg in self.FAMILY[:2]]
        seen = [[], []]
        failures = []

        def worker(which):
            cfg = self.FAMILY[which]
            try:
                for _ in range(4):
                    entry = _lookup(cache, cfg)
                    seen[which].append(
                        _seen(
                            entry.simulate(_inputs(entry, cfg, seed=3))
                        )
                    )
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(error)

        threads = [
            threading.Thread(target=worker, args=(which,)) for which in (0, 1)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        for which in (0, 1):
            assert seen[which] == [references[which]] * 4
        cache.clear()


class TestBoundedProgramCache:
    """A compile cache keeps ``PROGRAM_CACHE_ENTRIES`` programs, least
    recently used first out; an evicted program's plans are forgotten
    and its IR broken, so nothing of it can answer for a block that
    reuses its ``id`` — and a program a caller still holds simulates
    as before until it lets go."""

    #: Five structures of one family (the WS bodies share shapes; the
    #: ifmap height sets the stream length) and an OS one.
    STRUCTURES = tuple(
        _ws_config(n=2, c=2, h=h, w=4, fh=2, fw=2) for h in (3, 4, 5, 6, 7)
    ) + (SystolicConfig("OS", 4, 4, ConvDims(n=3, c=2, h=4, w=4, fh=2, fw=2)),)

    @pytest.fixture(autouse=True)
    def _two_entries(self, monkeypatch):
        monkeypatch.setattr(batch, "PROGRAM_CACHE_ENTRIES", 2)

    @staticmethod
    def _run(cache, cfg, seed=0):
        entry = _lookup(cache, cfg)
        return _seen(entry.simulate(_inputs(entry, cfg, seed)))

    @staticmethod
    def _table_keys(cache):
        """The block ``id``s the plan cache answers for: plans, sites
        and access memo cells."""
        keys = set()
        for plans, _, sites, memos in cache.plans._tables.values():
            keys.update(plans, sites, (id(memo[2]) for memo in memos))
        return keys

    def test_filling_past_the_bound_keeps_the_newest(self):
        cache = CompileCache()
        for cfg in self.STRUCTURES:
            assert self._run(cache, cfg) == _cold(cfg)
        assert list(cache.entries) == [
            structural_signature(cfg) for cfg in self.STRUCTURES[-2:]
        ]
        assert cache.stats.programs_built == len(self.STRUCTURES)
        assert cache.stats.programs_evicted == len(self.STRUCTURES) - 2
        assert not cache.evicted  # nobody held one: all torn down
        live = set().union(
            *(batch._blocks(entry.module) for entry in cache.entries.values())
        )
        assert self._table_keys(cache) <= live
        cache.clear()
        assert cache.stats.programs_evicted == 0

    def test_a_hit_refreshes_the_order(self):
        a, b, c = self.STRUCTURES[:3]
        cache = CompileCache()
        for cfg in (a, b, a, c):
            _lookup(cache, cfg)
        assert list(cache.entries) == [
            structural_signature(a), structural_signature(c)
        ]
        assert cache.stats.programs_evicted == 1
        cache.clear()

    def test_a_shape_goes_with_its_representative(self):
        """The second program binds to the first one's shapes; when the
        first goes, so do those shapes and the second's plans: the
        third compiles the shapes anew and the second, on its next
        simulation, its own blocks again."""
        first, second, third = self.STRUCTURES[:3]
        cache = CompileCache()
        self._run(cache, first)
        entry = _lookup(cache, second)
        shared = entry.simulate(_inputs(entry, second)).summary
        assert (shared.plan_shapes, shared.plans_shared) == (0, 16)
        rep = _lookup(cache, third)  # evicts the first: the representative
        assert not entry.warmed and not cache.plans.plans
        assert rep.simulate(_inputs(rep, third)).summary.plan_shapes == 9
        again = entry.simulate(_inputs(entry, second))
        assert again.summary.plans_compiled == shared.plans_compiled
        assert (again.summary.plan_shapes, again.summary.plans_shared) == (0, 16)
        assert entry.warmed and _seen(again) == _cold(second)
        cache.clear()

    def test_a_block_id_of_an_evicted_program_is_reused_cleanly(self):
        """The memory of a torn-down program is handed to the next
        build, so its blocks' ``id``s come back on new blocks: none of
        the plan cache's tables may still answer for one."""
        cache = CompileCache()
        self._run(cache, self.STRUCTURES[0])
        self._run(cache, self.STRUCTURES[1])
        gone, reused = set(), set()
        for cfg in self.STRUCTURES[2:]:
            oldest = batch._blocks(next(iter(cache.entries.values())).module)
            entry = _lookup(cache, cfg)  # builds, then evicts the oldest
            gone |= oldest
            fresh = batch._blocks(entry.module)
            reused |= gone & fresh
            gone -= fresh
            assert not gone & self._table_keys(cache)
            assert _seen(entry.simulate(_inputs(entry, cfg))) == _cold(cfg)
        assert reused  # the case this test is for did happen
        cache.clear()

    def test_a_program_evicted_in_flight_simulates_bit_identically(self):
        """One thread is handed a program; another thread's miss evicts
        it before it simulates (a replaced wedged service worker makes
        two).  It is torn down only once its holder lets go."""
        import threading

        held, *others = self.STRUCTURES[:4]
        cache = CompileCache()
        self._run(cache, held)
        entry = _lookup(cache, held)
        ids = batch._blocks(entry.module)
        miss = threading.Thread(
            target=lambda: [self._run(cache, cfg) for cfg in others]
        )
        miss.start()
        miss.join(timeout=120)
        assert structural_signature(held) not in cache.entries
        assert len(cache.evicted) == 1
        assert _seen(entry.simulate(_inputs(entry, held, seed=1))) == _cold(
            held, seed=1
        )
        del entry
        _lookup(cache, self.STRUCTURES[4])  # the next miss tears it down
        assert not cache.evicted
        assert not ids & self._table_keys(cache)
        cache.clear()

    def test_a_program_held_across_clear_is_torn_down_once_let_go(self):
        """``clear()`` keeps a held program among the evicted: the plans
        it compiles when simulated afterwards are forgotten at the first
        teardown after its holder lets go, not pinned until the next
        ``clear()``."""
        held, other = self.STRUCTURES[:2]
        cache = CompileCache()
        entry = _lookup(cache, held)
        cache.clear()
        assert len(cache.evicted) == 1
        assert _seen(entry.simulate(_inputs(entry, held))) == _cold(held)
        ids = batch._blocks(entry.module)
        assert ids & self._table_keys(cache)
        del entry
        self._run(cache, other)  # a miss: the teardown
        assert not cache.evicted
        assert not ids & self._table_keys(cache)
        cache.clear()

    def test_three_threads_evicting_each_other_stay_bit_identical(self):
        """More threads than cores over more structures than entries,
        switching often: every result equals a cold run, no lookup goes
        uncounted, and once all let go one miss leaves nothing evicted
        behind."""
        import sys
        import threading

        structures = self.STRUCTURES[:4]
        cold = [_cold(cfg, seed=2) for cfg in structures]
        cache = CompileCache()
        failures = []

        def worker(offset):
            try:
                for step in range(6):
                    which = (offset + step) % len(structures)
                    if self._run(cache, structures[which], 2) != cold[which]:
                        failures.append(structures[which])
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        stats = cache.stats
        assert stats.programs_built + stats.program_hits == 18
        assert len(cache.entries) <= 2
        self._run(cache, self.STRUCTURES[5])
        assert not cache.evicted
        live = set().union(
            *(batch._blocks(entry.module) for entry in cache.entries.values())
        )
        assert self._table_keys(cache) <= live
        cache.clear()


def _pe_bodies(module):
    """Every PE launch body, in module order."""
    return [
        op.body
        for op in module.walk()
        if op.name == "equeue.launch" and op.get_attr("label").startswith("pe_")
    ]


def _tree(block):
    """A body's blocks in the order its shape key walks them."""
    yield block
    for op in block.ops:
        for region in op.regions:
            for nested in region.blocks:
                yield from _tree(nested)


def _binding(plans, body):
    """What a launch body was bound to: its shape, the arguments its
    captures bind to, its constants, and the shape plan each of its
    blocks answers with (by position in the walk) — a view of its own."""
    _, arguments, site = plans.sites[id(body)]
    views = [
        (position, plans.plans[id(block)][1])
        for position, block in enumerate(_tree(body))
        if id(block) in plans.plans
    ]
    assert all(view.site is site for _, view in views)
    return site.shape, arguments, site.consts, views


class TestStampsBindByClass:
    """A stamped PE body binds to the shape its class representative
    keyed to, its constants read in a lockstep walk beside the
    representative — no key walk.  The reference is the same program
    with its stamp relation patched away, so every body is keyed; both
    bind into one plan cache."""

    def _class_bound_equals_key_walked(self, cfg):
        cache = CompileCache()
        signature = structural_signature(cfg)
        bound, walked = (
            cache.lookup((side,) + signature, lambda: build_systolic_program(cfg))
            for side in ("class", "key")
        )
        stamps = len(bound.stamps)
        assert stamps == len(walked.stamps)
        bodies = _pe_bodies(bound.module)
        keyed = []
        shape_key = plan._shape_key
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                plan, "_shape_key",
                lambda block: keyed.append(block) or shape_key(block),
            )
            result = bound.simulate(_inputs(bound, cfg))
            # The kernel's body (declined: it awaits) and the
            # representatives; the relation is spent.
            assert len(keyed) == 1 + len(bodies) - stamps
            assert not bound.stamps
            patch.setattr(walked, "stamps", {})
            del keyed[:]
            walked.simulate(_inputs(walked, cfg))
            assert len(keyed) == 1 + len(bodies)
        assert _seen(result) == _cold(cfg)
        for body, reference in zip(bodies, _pe_bodies(walked.module)):
            shape, arguments, consts, views = _binding(cache.plans, body)
            expected = _binding(cache.plans, reference)
            assert shape is expected[0] and arguments is expected[1]
            assert consts == expected[2]
            assert [p for p, _ in views] == [p for p, _ in expected[3]]
            assert all(
                mine.shape is theirs.shape
                for (_, mine), (_, theirs) in zip(views, expected[3])
            )
        cache.clear()

    @pytest.mark.parametrize("dataflow", ["WS", "IS", "OS"])
    def test_stamps_of_an_8x8_array_bind_as_keyed(self, dataflow):
        dims = ConvDims(n=2, c=2, h=4, w=4, fh=2, fw=2)
        self._class_bound_equals_key_walked(SystolicConfig(dataflow, 8, 8, dims))

    @settings(max_examples=15, deadline=None)
    @given(
        dataflow=st.sampled_from(["WS", "IS", "OS"]),
        ah=st.integers(1, 6),
        aw=st.integers(1, 6),
    )
    def test_stamps_bind_as_keyed_where_classes_collapse(self, dataflow, ah, aw):
        dims = ConvDims(n=2, c=2, h=4, w=4, fh=2, fw=2)
        self._class_bound_equals_key_walked(
            SystolicConfig(dataflow, ah, aw, dims)
        )


class TestPlanCacheReuse:
    def test_attach_selects_the_table_of_the_engines_configuration(self):
        cfg = STRUCTURAL_TWINS[0]
        program = build_systolic_program(cfg)
        inputs = program.prepare_inputs(
            np.zeros((cfg.dims.c, cfg.dims.h, cfg.dims.w), np.int32),
            np.zeros(
                (cfg.dims.n, cfg.dims.c, cfg.dims.fh, cfg.dims.fw), np.int32
            ),
        )
        shared = PlanCache()

        def run(**options):
            return simulate(
                program.module, EngineOptions(**options), inputs=inputs,
                plan_cache=shared,
            )

        run()
        codegen_plans = shared.plans
        assert codegen_plans
        # Same plan-relevant options: plans survive.
        assert run().summary.plans_compiled == 0
        assert shared.plans is codegen_plans
        # Another execution mode: a table of its own, compiled afresh —
        # a plan-mode artifact never serves a codegen run or vice versa.
        result = run(mode="plan")
        assert result.summary.plans_compiled > 0
        assert result.cycles == cfg.expected_cycles
        assert shared.plans and shared.plans is not codegen_plans
        assert codegen_plans.keys() == shared.plans.keys()
        assert all(
            plan.compiled is None and plan.tier is None
            for _, plan in shared.plans.values()
        )
        # ... and back: what the first mode compiled is still there.
        assert run().summary.plans_compiled == 0
        assert shared.plans is codegen_plans
        shared.clear()
        assert not shared.plans
        assert run().summary.plans_compiled > 0

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

    def test_the_start_method_follows_the_platform(self, monkeypatch):
        # No variable picks it: an unknown method name once raised out
        # of every pooled map.
        monkeypatch.setenv("EQUEUE_MP_CONTEXT", "bogus")
        runner = SweepRunner(jobs=2)
        assert runner.map(abs, [-1, -2, -3, -4]) == [1, 2, 3, 4]
        assert not runner.fell_back

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
