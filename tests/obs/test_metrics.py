"""Unit tests for the metrics registry and its Prometheus exposition."""

from __future__ import annotations

import math

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    parse_metrics,
    prometheus_name,
    render_prometheus,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestInstruments:
    def test_counter_increments(self, registry):
        c = registry.counter("test.hits", "help text")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self, registry):
        with pytest.raises(ValueError, match="only go up"):
            registry.counter("test.hits").inc(-1)

    def test_gauge_moves_both_ways(self, registry):
        g = registry.gauge("test.depth")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value == 3.0

    def test_factory_returns_same_instrument(self, registry):
        assert registry.counter("test.hits") is registry.counter("test.hits")

    def test_kind_mismatch_rejected(self, registry):
        registry.counter("test.hits")
        with pytest.raises(TypeError, match="already registered as counter"):
            registry.gauge("test.hits")

    def test_bad_names_rejected(self, registry):
        for bad in ("Upper.case", "1leading", "with space", ""):
            with pytest.raises(ValueError, match="bad metric name"):
                registry.counter(bad)

    def test_histogram_bucket_placement(self, registry):
        h = registry.histogram("test.seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.1, 0.5, 20.0):
            h.observe(value)
        assert h.count == 4
        assert h.sum == pytest.approx(20.65)
        # Cumulative le semantics: 0.1 catches 0.05 and the boundary hit.
        assert h.cumulative() == [(0.1, 2), (1.0, 3), (10.0, 3), (math.inf, 4)]

    def test_histogram_buckets_must_increase(self, registry):
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("test.bad", buckets=(1.0, 1.0))

    def test_default_time_buckets_span_expected_range(self):
        assert DEFAULT_TIME_BUCKETS[0] == pytest.approx(1e-4)
        assert DEFAULT_TIME_BUCKETS[-1] == pytest.approx(100.0)
        assert all(
            b > a
            for a, b in zip(DEFAULT_TIME_BUCKETS, DEFAULT_TIME_BUCKETS[1:])
        )


class TestCollectors:
    def test_snapshot_merges_instruments_and_collectors(self, registry):
        registry.counter("test.hits").inc(2)
        registry.register_collector(
            "stats", lambda: {"store.hits": 7, "store.misses": 1}
        )
        snap = registry.snapshot()
        assert snap["test.hits"] == 2.0
        assert snap["store.hits"] == 7.0
        assert snap["store.misses"] == 1.0

    def test_collector_replaced_by_name(self, registry):
        registry.register_collector("stats", lambda: {"v": 1})
        registry.register_collector("stats", lambda: {"v": 2})
        assert registry.snapshot() == {"v": 2.0}

    def test_collector_unregistered(self, registry):
        registry.register_collector("stats", lambda: {"v": 1})
        registry.unregister_collector("stats")
        assert registry.snapshot() == {}

    def test_failing_collector_contributes_nothing(self, registry):
        def boom():
            raise RuntimeError("half-initialized")

        registry.register_collector("sick", boom)
        registry.register_collector("healthy", lambda: {"ok": 1})
        assert registry.snapshot() == {"ok": 1.0}

    def test_non_numeric_and_bool_values_dropped(self, registry):
        registry.register_collector(
            "stats",
            lambda: {"num": 3, "flag": True, "text": "nope", "none": None},
        )
        assert registry.snapshot() == {"num": 3.0}


class TestPrometheusRendering:
    def test_every_sample_line_parses(self, registry):
        registry.counter("engine.runs", "engine runs").inc()
        registry.gauge("queue.depth").set(3)
        registry.histogram("run.seconds").observe(0.02)
        registry.register_collector("stats", lambda: {"store.hits": 5})
        body = render_prometheus(registry)
        samples = parse_metrics(body)  # raises on any malformed line
        assert samples["equeue_engine_runs"] == 1.0
        assert samples["equeue_queue_depth"] == 3.0
        assert samples["equeue_store_hits"] == 5.0
        assert samples["equeue_run_seconds_count"] == 1.0

    def test_help_and_type_lines(self, registry):
        registry.counter("engine.runs", "completed engine runs").inc()
        body = render_prometheus(registry)
        assert "# HELP equeue_engine_runs completed engine runs" in body
        assert "# TYPE equeue_engine_runs counter" in body

    def test_collector_values_typed_as_gauges(self, registry):
        registry.register_collector("stats", lambda: {"store.hits": 5})
        body = render_prometheus(registry)
        assert "# TYPE equeue_store_hits gauge" in body

    def test_histogram_expands_to_cumulative_buckets(self, registry):
        h = registry.histogram("run.seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        body = render_prometheus(registry)
        samples = parse_metrics(body)
        assert samples['equeue_run_seconds_bucket{le="0.1"}'] == 1.0
        assert samples['equeue_run_seconds_bucket{le="1"}'] == 1.0
        assert samples['equeue_run_seconds_bucket{le="+Inf"}'] == 2.0
        assert samples["equeue_run_seconds_count"] == 2.0
        assert samples["equeue_run_seconds_sum"] == pytest.approx(5.05)

    def test_instrument_shadows_collector_duplicate(self, registry):
        registry.counter("store.hits").inc(9)
        registry.register_collector("stats", lambda: {"store.hits": 5})
        body = render_prometheus(registry)
        # One sample, the typed instrument's — never a double emission.
        lines = [
            line
            for line in body.splitlines()
            if line.startswith("equeue_store_hits ")
        ]
        assert lines == ["equeue_store_hits 9"]

    def test_name_mapping(self):
        assert prometheus_name("store.hits") == "equeue_store_hits"
        assert (
            prometheus_name("scheduler.sub-mode.x")
            == "equeue_scheduler_sub_mode_x"
        )


class TestProcessSwitch:
    def test_disabled_by_default_here(self):
        assert obs_metrics.METRICS is None
        assert not obs_metrics.metrics_enabled()

    def test_enable_points_at_process_registry(self):
        reg = obs_metrics.enable_metrics()
        assert obs_metrics.METRICS is reg
        assert reg is obs_metrics.get_registry()
        assert obs_metrics.metrics_enabled()
        obs_metrics.disable_metrics()
        assert obs_metrics.METRICS is None
        # The registry object survives disable: counters keep history.
        assert obs_metrics.get_registry() is reg


GOLDEN_ENGINE_METRICS = (
    "engine.runs",
    "engine.cycles",
    "engine.scheduler_events",
    "engine.launches",
    "engine.plans_compiled",
    "engine.plan_cache_hits",
    "engine.plan_shapes",
    "engine.plans_shared",
    "engine.blocks_codegenned",
    "engine.codegen_code_shared",
    "engine.codegen_tiered_up",
    "engine.codegen_typed",
    "engine.codegen_suspending",
    "engine.trace_records_dropped",
    "engine.run_seconds.count",
    "engine.run_seconds.sum",
)


class TestEngineGoldenKeys:
    def test_engine_run_populates_golden_names(self):
        """The documented engine metric names exist and move on a run."""
        from repro.scenarios import simulate_scenario

        before = obs_metrics.get_registry().snapshot()
        obs_metrics.enable_metrics()
        try:
            result, _ = simulate_scenario("fir")
        finally:
            obs_metrics.disable_metrics()
        after = obs_metrics.get_registry().snapshot()
        for name in GOLDEN_ENGINE_METRICS:
            assert name in after, f"missing golden metric {name}"
        assert after["engine.runs"] == before.get("engine.runs", 0.0) + 1
        assert (
            after["engine.cycles"]
            == before.get("engine.cycles", 0.0) + result.cycles
        )

    def test_codegen_fallbacks_carry_their_reason(self):
        """A cold run's fallbacks land in one counter per cause — the
        first step of a plan that the emitter cannot express: an op the
        plan compiler has no description of, run by its handler — with
        the reason spelled as a metric-name suffix.  (``await`` and
        returned values are no cause: FIR declines nothing.)"""
        from repro.scenarios import simulate_scenario
        from tests.differential import (
            ExtendedEngine,
            extension_op_program,
        )

        assert simulate_scenario("fir")[0].summary.codegen_fallbacks == 0
        module, inputs = extension_op_program()
        before = obs_metrics.get_registry().snapshot()
        obs_metrics.enable_metrics()
        try:
            summary = ExtendedEngine(module, inputs=inputs).run().summary
        finally:
            obs_metrics.disable_metrics()
        after = obs_metrics.get_registry().snapshot()
        assert summary.codegen_fallback_reasons == {"K_ANY:ext.tick": 2}
        assert summary.codegen_fallbacks == 2
        name = "engine.codegen_fallbacks.k_any.ext.tick"
        assert after[name] == before.get(name, 0.0) + 2
        assert "2 fallbacks (2 K_ANY:ext.tick)" in summary.format()

    def test_declined_shape_sharing_carries_its_reason(self):
        """Launch bodies compiled once per shape are counted; one kept
        out of a shape lands in a counter named after the op in the way
        (the ``codegen_fallbacks`` convention)."""
        from repro.scenarios import get_scenario
        from repro.sim import simulate

        scenario = get_scenario("systolic")
        cfg = scenario.configure(array_height=2, array_width=2)
        before = obs_metrics.get_registry().snapshot()
        obs_metrics.enable_metrics()
        try:
            summary = simulate(
                scenario.build(cfg), inputs=scenario.make_inputs(cfg, 0)
            ).summary
        finally:
            obs_metrics.disable_metrics()
        after = obs_metrics.get_registry().snapshot()
        # Four PEs, four corners: every body is a shape of its own, and
        # the kernel body awaits.
        assert (summary.plan_shapes, summary.plans_shared) == (4, 0)
        assert summary.plan_share_declined == {"K_GEN:equeue.await": 1}
        for name, count in (
            ("engine.plan_shapes", 4),
            ("engine.plans_shared", 0),
            ("engine.plan_share_declined.k_gen.equeue.await", 1),
        ):
            assert after[name] == before.get(name, 0.0) + count
        assert (
            "4 body shapes (0 bodies shared one, 1 declined: "
            "1 K_GEN:equeue.await)" in summary.format()
        )


GOLDEN_GC_METRICS = (
    "gc.collections.gen0",
    "gc.collections.gen1",
    "gc.collections.gen2",
    "gc.pause_seconds.gen0",
    "gc.pause_seconds.gen1",
    "gc.pause_seconds.gen2",
    "gc.frozen_objects",
)


class TestCollectorAsALayer:
    def test_counts_collections_only_while_enabled(self):
        import gc

        registry = obs_metrics.enable_metrics()
        try:
            before = registry.snapshot()
            gc.collect()
            gc.collect(0)
            during = registry.snapshot()
        finally:
            obs_metrics.disable_metrics()
        for name in GOLDEN_GC_METRICS:
            assert name in during, f"missing golden metric {name}"
        assert (
            during["gc.collections.gen2"]
            == before["gc.collections.gen2"] + 1
        )
        assert during["gc.collections.gen0"] > before["gc.collections.gen0"]
        assert during["gc.pause_seconds.gen2"] > before["gc.pause_seconds.gen2"]
        # Off means off: the hook is gone, so nothing is counted.
        assert not any(
            isinstance(hook, type(obs_metrics._GC_WATCH)) for hook in gc.callbacks
        )
        gc.collect()
        assert registry.snapshot()["gc.collections.gen2"] == (
            during["gc.collections.gen2"]
        )

    def test_frozen_gauge_follows_the_permanent_generation(self):
        import gc

        from repro.sim import permanent

        registry = obs_metrics.enable_metrics()
        try:
            permanent.hand_off()
            parked = registry.snapshot()["gc.frozen_objects"]
            assert parked == gc.get_freeze_count() > 0
            permanent.release()
            assert registry.snapshot()["gc.frozen_objects"] == 0
        finally:
            obs_metrics.disable_metrics()
            gc.unfreeze()

    def test_rendered_for_prometheus(self):
        registry = obs_metrics.enable_metrics()
        try:
            body = render_prometheus(registry)
        finally:
            obs_metrics.disable_metrics()
        assert "equeue_gc_collections_gen2 " in body
        assert "equeue_gc_pause_seconds_gen2 " in body
        assert "equeue_gc_frozen_objects " in body
