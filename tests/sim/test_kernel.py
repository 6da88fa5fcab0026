"""Tests for the discrete-event simulation kernel.

The scheduler-shaped tests are parameterized over both backends — the
tiered event wheel (:class:`Simulator`) and the binary-heap reference
(:class:`HeapSimulator`) — so the two cannot drift apart; the
``kind`` fixture below provides the backend name.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import (
    WHEEL_SIZE,
    AllOf,
    AnyOf,
    HeapSimulator,
    ScheduleQueue,
    SimulationError,
    Simulator,
    all_of,
    any_of,
    make_simulator,
)


@pytest.fixture(params=["wheel", "heap"])
def kind(request):
    return request.param


class TestScheduling:
    def test_time_advances_in_order(self):
        sim = Simulator()
        log = []
        sim.schedule(5, lambda: log.append(("a", sim.now)))
        sim.schedule(2, lambda: log.append(("b", sim.now)))
        sim.schedule(9, lambda: log.append(("c", sim.now)))
        sim.run()
        assert log == [("b", 2), ("a", 5), ("c", 9)]

    def test_fifo_within_same_time(self):
        sim = Simulator()
        log = []
        sim.schedule(3, lambda: log.append("first"))
        sim.schedule(3, lambda: log.append("second"))
        sim.run()
        assert log == ["first", "second"]

    def test_run_until(self):
        sim = Simulator()
        log = []
        sim.schedule(1, lambda: log.append(1))
        sim.schedule(100, lambda: log.append(100))
        sim.run(until=10)
        assert log == [1]
        assert sim.now == 10

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule(5, lambda: sim.schedule_at(2, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_processed_event_count(self):
        sim = Simulator()
        for _ in range(7):
            sim.schedule(1, lambda: None)
        sim.run()
        assert sim.processed_events == 7


class TestEvents:
    def test_trigger_fires_callbacks(self):
        sim = Simulator()
        event = sim.event("e")
        seen = []
        event.on_trigger(lambda e: seen.append(e.value))
        event.trigger(42)
        assert seen == [42]
        assert event.time == 0

    def test_callback_after_trigger_fires_immediately(self):
        sim = Simulator()
        event = sim.event()
        event.trigger("x")
        seen = []
        event.on_trigger(lambda e: seen.append(e.value))
        assert seen == ["x"]

    def test_double_trigger_raises(self):
        sim = Simulator()
        event = sim.event("dup")
        event.trigger()
        with pytest.raises(SimulationError, match="twice"):
            event.trigger()

    def test_all_of_waits_for_every_event(self):
        sim = Simulator()
        events = [sim.event() for _ in range(3)]
        joined = all_of(sim, events)
        events[0].trigger(1)
        events[1].trigger(2)
        assert not joined.triggered
        events[2].trigger(3)
        assert joined.triggered
        assert joined.value == [1, 2, 3]

    def test_all_of_empty_is_immediate(self):
        sim = Simulator()
        assert all_of(sim, []).triggered

    def test_any_of_fires_on_first(self):
        sim = Simulator()
        events = [sim.event() for _ in range(3)]
        either = any_of(sim, events)
        events[1].trigger("winner")
        assert either.triggered
        assert either.value == "winner"
        events[0].trigger("late")  # must not double-trigger
        assert either.value == "winner"


class TestProcesses:
    def test_delays_accumulate(self):
        sim = Simulator()
        trace = []

        def worker():
            yield 3
            trace.append(sim.now)
            yield 4
            trace.append(sim.now)
            return "done"

        process = sim.process(worker())
        sim.run()
        assert trace == [3, 7]
        assert process.done.triggered
        assert process.done.value == "done"

    def test_wait_on_event(self):
        sim = Simulator()
        gate = sim.event("gate")
        log = []

        def waiter():
            value = yield gate
            log.append((sim.now, value))

        sim.process(waiter())
        sim.schedule(10, lambda: gate.trigger("go"))
        sim.run()
        assert log == [(10, "go")]

    def test_wait_on_process(self):
        sim = Simulator()

        def child():
            yield 5
            return 99

        def parent():
            result = yield sim.process(child())
            return result + 1

        parent_process = sim.process(parent())
        sim.run()
        assert parent_process.done.value == 100

    def test_all_of_request(self):
        sim = Simulator()
        a, b = sim.event(), sim.event()
        log = []

        def waiter():
            values = yield AllOf([a, b])
            log.append((sim.now, values))

        sim.process(waiter())
        sim.schedule(2, lambda: a.trigger("A"))
        sim.schedule(7, lambda: b.trigger("B"))
        sim.run()
        assert log == [(7, ["A", "B"])]

    def test_any_of_request(self):
        sim = Simulator()
        a, b = sim.event(), sim.event()
        log = []

        def waiter():
            value = yield AnyOf([a, b])
            log.append((sim.now, value))

        sim.process(waiter())
        sim.schedule(4, lambda: b.trigger("B"))
        sim.schedule(9, lambda: a.trigger("A"))
        sim.run()
        assert log == [(4, "B")]

    def test_negative_delay_rejected(self):
        sim = Simulator()

        def worker():
            yield -1

        sim.process(worker())
        with pytest.raises(SimulationError, match="negative"):
            sim.run()

    def test_bad_request_rejected(self):
        sim = Simulator()

        def worker():
            yield "nonsense"

        sim.process(worker())
        with pytest.raises(SimulationError, match="unsupported"):
            sim.run()


class TestScheduleQueue:
    def test_single_server_serializes(self):
        sim = Simulator()
        queue = ScheduleQueue(sim, servers=1)
        assert queue.book(4) == (0, 4)
        assert queue.book(4) == (4, 8)
        assert queue.busy_cycles == 8
        assert queue.last_end == 8

    def test_multi_server_parallelism(self):
        sim = Simulator()
        queue = ScheduleQueue(sim, servers=2)
        assert queue.book(4) == (0, 4)
        assert queue.book(4) == (0, 4)
        assert queue.book(4) == (4, 8)

    def test_book_respects_at(self):
        sim = Simulator()
        queue = ScheduleQueue(sim, servers=1)
        assert queue.book(2, at=10) == (10, 12)

    def test_zero_duration(self):
        sim = Simulator()
        queue = ScheduleQueue(sim, servers=1)
        assert queue.book(0) == (0, 0)

    def test_invalid_args(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            ScheduleQueue(sim, servers=0)
        queue = ScheduleQueue(sim, servers=1)
        with pytest.raises(SimulationError):
            queue.book(-1)


class TestSchedulerBackends:
    """Behavior locked across both scheduler implementations."""

    def test_make_simulator(self):
        assert make_simulator("wheel").kind == "wheel"
        assert make_simulator("heap").kind == "heap"
        assert isinstance(make_simulator("wheel"), Simulator)
        assert isinstance(make_simulator("heap"), HeapSimulator)
        with pytest.raises(SimulationError, match="unknown scheduler"):
            make_simulator("fancy")

    def test_time_order_and_fifo(self, kind):
        sim = make_simulator(kind)
        log = []
        sim.schedule(5, lambda: log.append("a"))
        sim.schedule(2, lambda: log.append("b"))
        sim.schedule(5, lambda: log.append("c"))
        sim.schedule(0, lambda: log.append("now"))
        sim.run()
        assert log == ["now", "b", "a", "c"]
        assert sim.processed_events == 4

    def test_heap_overflow_delays(self, kind):
        """Delays beyond the wheel horizon stay time-ordered and FIFO."""
        sim = make_simulator(kind)
        log = []
        far = WHEEL_SIZE * 3 + 5
        sim.schedule(far, lambda: log.append(("far", sim.now)))
        sim.schedule(far, lambda: log.append(("far2", sim.now)))
        sim.schedule(3, lambda: log.append(("near", sim.now)))
        sim.schedule_at(far, lambda: log.append(("at", sim.now)))
        sim.run()
        assert log == [
            ("near", 3), ("far", far), ("far2", far), ("at", far)
        ]

    def test_overflow_then_short_delay_same_time_keeps_schedule_order(
        self, kind
    ):
        """An event scheduled long in advance for time T runs before one
        scheduled for T later on (seq order), even though they arrive
        through different tiers of the wheel scheduler."""
        sim = make_simulator(kind)
        target = WHEEL_SIZE + 10
        log = []
        sim.schedule(target, lambda: log.append("early-scheduled"))

        def near_target():
            # now == target - 5: the same absolute time now lands in the
            # wheel (short delay), behind the overflow entry.
            sim.schedule(5, lambda: log.append("late-scheduled"))

        sim.schedule(target - 5, near_target)
        sim.run()
        assert log == ["early-scheduled", "late-scheduled"]

    def test_zero_delay_during_drain_runs_after_queued_work(self, kind):
        """schedule(0, ...) issued *while* time T drains runs after the
        callbacks already queued for T — the heap's seq semantics."""
        sim = make_simulator(kind)
        log = []

        def first():
            log.append("first")
            sim.schedule(0, lambda: log.append("spawned"))

        sim.schedule(3, first)
        sim.schedule(3, lambda: log.append("second"))
        sim.run()
        assert log == ["first", "second", "spawned"]

    def test_schedule_in_past_rejected(self, kind):
        sim = make_simulator(kind)
        sim.schedule(5, lambda: sim.schedule_at(2, lambda: None))
        with pytest.raises(SimulationError, match="before current time"):
            sim.run()
        with pytest.raises(SimulationError, match="before current time"):
            sim.schedule(-1, lambda: None)

    def test_run_until_boundary_event_executes(self, kind):
        """Events exactly at ``until`` run; only strictly-later ones wait."""
        sim = make_simulator(kind)
        log = []
        sim.schedule(10, lambda: log.append("at-until"))
        sim.schedule(11, lambda: log.append("beyond"))
        sim.run(until=10)
        assert log == ["at-until"]
        assert sim.now == 10

    def test_run_until_clamps_only_with_pending_work(self, kind):
        """``now`` lands on ``until`` when later work is pending, but
        stays at the last executed event when the queues drain first."""
        sim = make_simulator(kind)
        sim.schedule(2, lambda: None)
        sim.schedule(50, lambda: None)
        assert sim.run(until=10) == 10  # clamped: event at 50 pending
        sim2 = make_simulator(kind)
        sim2.schedule(2, lambda: None)
        assert sim2.run(until=10) == 2  # drained: stays at last event

    def test_run_until_is_resumable(self, kind):
        """A second run picks up pending wheel and overflow work."""
        sim = make_simulator(kind)
        log = []
        sim.schedule(8, lambda: log.append(8))
        sim.schedule(WHEEL_SIZE + 9, lambda: log.append("far"))
        sim.run(until=4)
        assert log == [] and sim.now == 4
        sim.run()
        assert log == [8, "far"]
        assert sim.now == WHEEL_SIZE + 9

    def test_tier_counters_partition_processed_events(self):
        sim = make_simulator("wheel")
        for delay in (0, 1, 2, WHEEL_SIZE, WHEEL_SIZE * 2):
            sim.schedule(delay, lambda: None)
        sim.run()
        assert sim.processed_events == 5
        assert sim.microtask_events == 1
        assert sim.wheel_events == 2
        assert sim.heap_events == 2
        heap_sim = make_simulator("heap")
        for delay in (0, 1, WHEEL_SIZE):
            heap_sim.schedule(delay, lambda: None)
        heap_sim.run()
        assert heap_sim.processed_events == 3
        assert heap_sim.heap_events == 3
        assert heap_sim.microtask_events == 0
        assert heap_sim.wheel_events == 0

    def test_schedule_soon_matches_zero_delay(self, kind):
        sim = make_simulator(kind)
        log = []
        sim.schedule_soon(lambda: log.append(("soon", sim.now)))
        sim.schedule(1, lambda: sim.schedule_soon(
            lambda: log.append(("later", sim.now))
        ))
        sim.run()
        assert log == [("soon", 0), ("later", 1)]

    def test_schedule_bucket_positive_delays(self, kind):
        sim = make_simulator(kind)
        log = []
        sim.schedule_bucket(WHEEL_SIZE + 3, lambda: log.append(sim.now))
        sim.schedule_bucket(2, lambda: log.append(sim.now))
        sim.run()
        assert log == [2, WHEEL_SIZE + 3]

    def test_schedule_bucket_non_positive_delays_match_backends(self, kind):
        """A buggy caller passing delay <= 0 fails (or degrades)
        identically on both backends: 0 runs at the current cycle, a
        negative delay raises — never a silent one-revolution-late slot."""
        sim = make_simulator(kind)
        log = []
        sim.schedule_bucket(0, lambda: log.append(sim.now))
        sim.run()
        assert log == [0]
        with pytest.raises(SimulationError, match="before current time"):
            sim.schedule_bucket(-1, lambda: None)


class TestEventCallbacks:
    def test_detach_unregistered_is_noop(self, kind):
        sim = make_simulator(kind)
        event = sim.event()
        event.detach(lambda e: None)  # nothing registered: no error
        event.on_trigger(lambda e: None)
        event.detach(lambda e: None)  # different callback: no error


class TestCompositeEdgeCases:
    """AllOf/AnyOf with empty and already-triggered children."""

    def test_all_of_empty_triggers_immediately(self, kind):
        sim = make_simulator(kind)
        done = all_of(sim, [])
        assert done.triggered and done.value == []

    def test_any_of_empty_triggers_immediately(self, kind):
        sim = make_simulator(kind)
        done = any_of(sim, [])
        assert done.triggered and done.value is None

    def test_all_of_already_triggered_children(self, kind):
        sim = make_simulator(kind)
        events = [sim.event() for _ in range(3)]
        for i, event in enumerate(events):
            event.trigger(i)
        done = all_of(sim, events)
        assert done.triggered
        assert done.value == [0, 1, 2]

    def test_all_of_mixed_triggered_and_pending(self, kind):
        sim = make_simulator(kind)
        first, second = sim.event(), sim.event()
        first.trigger("early")
        done = all_of(sim, [first, second])
        assert not done.triggered
        second.trigger("late")
        assert done.value == ["early", "late"]

    def test_any_of_already_triggered_child_wins_immediately(self, kind):
        sim = make_simulator(kind)
        winner, loser = sim.event(), sim.event()
        winner.trigger("won")
        done = any_of(sim, [winner, loser])
        assert done.triggered and done.value == "won"
        # The loser was never attached (registration stops on a win) or
        # was detached; triggering it later must not double-fire.
        loser.trigger("late")
        assert done.value == "won"

    def test_any_of_request_with_triggered_child_resumes(self, kind):
        sim = make_simulator(kind)
        a, b = sim.event(), sim.event()
        a.trigger("ready")
        log = []

        def waiter():
            value = yield AnyOf([a, b])
            log.append((sim.now, value))

        sim.process(waiter())
        sim.run()
        assert log == [(0, "ready")]

    def test_all_of_request_empty_resumes_immediately(self, kind):
        sim = make_simulator(kind)
        log = []

        def waiter():
            values = yield AllOf([])
            log.append((sim.now, values))

        sim.process(waiter())
        sim.run()
        assert log == [(0, [])]


class TestAnyOfLeak:
    """The losers of an any_of must not retain the composite result."""

    def test_losing_events_release_result(self, kind):
        sim = make_simulator(kind)
        winner = sim.event("winner")
        losers = [sim.event(f"loser{i}") for i in range(3)]
        result = any_of(sim, [winner] + losers)
        ref = weakref.ref(result)
        winner.trigger("won")
        assert result.value == "won"
        del result
        gc.collect()
        # The losing events live on (the component holds them), but they
        # no longer reach the any_of result through their callbacks.
        assert ref() is None
        assert all(not loser.triggered for loser in losers)

    def test_pending_any_of_still_reachable(self, kind):
        """Before anything fires, callbacks must of course keep the
        result alive through the child events."""
        sim = make_simulator(kind)
        events = [sim.event() for _ in range(2)]
        ref = weakref.ref(any_of(sim, events))
        gc.collect()
        assert ref() is not None  # held via the children's callbacks
        events[1].trigger("go")
        gc.collect()
        assert ref() is None  # fired and dropped everywhere

    def test_late_loser_trigger_after_win_is_safe(self, kind):
        sim = make_simulator(kind)
        a, b = sim.event(), sim.event()
        result = any_of(sim, [a, b])
        a.trigger(1)
        b.trigger(2)  # must neither raise nor re-fire
        assert result.value == 1


# -- property tests -----------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 10)), max_size=30))
def test_callbacks_fire_in_nondecreasing_time(jobs):
    sim = Simulator()
    times = []
    for delay, _ in jobs:
        sim.schedule(delay, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=20),
       st.integers(1, 4))
def test_schedule_queue_conservation(durations, servers):
    """Total busy time equals the sum of durations, and no server overlap:
    makespan >= total/servers."""
    sim = Simulator()
    queue = ScheduleQueue(sim, servers=servers)
    ends = [queue.book(d)[1] for d in durations]
    assert queue.busy_cycles == sum(durations)
    assert max(ends) >= sum(durations) / servers


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=10))
def test_process_total_time_is_sum_of_delays(delays):
    sim = Simulator()

    def worker():
        for delay in delays:
            yield delay

    process = sim.process(worker())
    sim.run()
    assert process.done.triggered
    assert sim.now == sum(delays)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.integers(0, WHEEL_SIZE * 2 + 10), min_size=1, max_size=25
    ),
    st.lists(st.integers(0, WHEEL_SIZE + 5), max_size=5),
)
def test_wheel_and_heap_execute_identically(delays, nested):
    """The wheel scheduler's execution order is bit-identical to the
    heap's for arbitrary delay mixes spanning all three tiers (zero-delay
    ring, wheel buckets, overflow heap), including callbacks that
    schedule more work while running."""
    logs = []
    for backend in ("wheel", "heap"):
        sim = make_simulator(backend)
        log = []

        def spawn(job, s=sim, out=log):
            out.append((job, s.now))
            for extra, nested_delay in enumerate(nested):
                s.schedule(
                    nested_delay,
                    lambda j=(job, extra), s=s, out=out: out.append(
                        (j, s.now)
                    ),
                )

        for job, delay in enumerate(delays):
            sim.schedule(delay, lambda j=job: spawn(j))
        sim.run()
        logs.append(log)
        assert sim.processed_events == len(delays) * (1 + len(nested))
    assert logs[0] == logs[1]
