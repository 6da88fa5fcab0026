"""A small process-based discrete-event simulation kernel.

This is the substrate under the EQueue simulation engine (§IV of the
paper).  It provides:

* :class:`Simulator` — the default *event-wheel* scheduler: a tiered
  time-ordered event loop measured in cycles (see below).
* :class:`HeapSimulator` — the classic binary-heap scheduler, kept as the
  reference implementation and escape hatch (``--scheduler heap``).
* :class:`SimEvent` — one-shot events with callbacks (the runtime
  counterpart of EQueue dependency values).
* :class:`Process` — generator-based concurrent processes; the engine's
  per-processor dispatcher is one, driving whichever launch body or
  memcpy of its processor has suspended.
* :class:`AllOf` / :class:`AnyOf` — composite waits backing
  ``equeue.control_and`` / ``equeue.control_or``.
* :class:`ScheduleQueue` — the paper's per-component "schedule queue": a
  k-server FIFO that serializes contending operations and records busy time
  for bandwidth/utilization statistics.

Processes yield *requests*:

=====================  =====================================================
``yield n`` (int)      advance local time by ``n`` cycles
``yield event``        resume when the event triggers (receives its value)
``yield AllOf(evs)``   resume when all trigger (receives list of values)
``yield AnyOf(evs)``   resume when the first triggers (receives its value)
=====================  =====================================================

The event-wheel scheduler
=========================

A heap scheduler pays a push/pop, a 3-tuple allocation, and a sequence
tie-break for *every* callback — including the dominant zero-delay resume
path (an event wakes a process "now").  The wheel scheduler splits the
work into three tiers by delay, preserving the heap's exact
FIFO-within-timestamp execution order:

* **Microtask ring** — a plain ``deque`` of callbacks due at the current
  cycle.  ``schedule(0, ...)`` and :meth:`Simulator.schedule_soon` are a
  single ``deque.append``; the run loop drains the ring before advancing
  time.  No allocation, no ordering key.
* **Calendar wheel** — ``WHEEL_SIZE`` per-cycle FIFO buckets covering the
  next ``WHEEL_SIZE - 1`` cycles (the common 1–64 cycle latencies of
  reads, writes and launches).  A schedule is one list append plus one
  bit set in an occupancy bitmask; finding the next populated cycle is a
  constant-time bit rotation, not a heap sift.
* **Overflow heap** — delays at or beyond the wheel horizon fall back to
  the classic ``(time, seq, callback)`` heap.  When simulated time
  reaches a heap entry's cycle, it drains *before* that cycle's wheel
  bucket: every heap entry was scheduled strictly earlier (it had to be
  ≥ ``WHEEL_SIZE`` cycles out), so seq order is preserved.

Determinism: within one timestamp the heap executes callbacks in schedule
(seq) order.  The tiers reproduce that exactly — bucket entries for cycle
``T`` are appended in schedule order while ``now < T``; zero-delay
callbacks scheduled *at* ``T`` append behind them on the very deque being
drained; and heap overflow entries for ``T`` predate every bucket entry.
The differential harness (``tests/differential.py``, run over its whole
corpus by ``tests/sim/test_backend_matrix.py``) proves both schedulers
produce bit-identical simulations.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

#: Wheel horizon in cycles.  Delays in ``[1, WHEEL_SIZE)`` go to a wheel
#: bucket; ``>= WHEEL_SIZE`` overflow to the heap.  128 covers the 1–64
#: cycle latencies of the component library with headroom, while keeping
#: the occupancy bitmask a cheap machine-word-scale integer.
WHEEL_SIZE = 128
_WHEEL_INDEX_MASK = WHEEL_SIZE - 1
_WHEEL_FULL_MASK = (1 << WHEEL_SIZE) - 1


class SimulationError(Exception):
    """Raised for kernel misuse (double trigger, negative delay, ...)."""


class SimEvent:
    """A one-shot event: untriggered until :meth:`trigger` fires it once."""

    __slots__ = (
        "sim", "triggered", "value", "time", "_callbacks", "label",
        "__weakref__",
    )

    def __init__(self, sim: "Simulator", label: str = ""):
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        #: Simulation time at which the event triggered (None before).
        self.time: Optional[int] = None
        #: Pending callbacks; ``None`` until the first registration, so
        #: the many events that trigger unobserved (or with one waiter
        #: registered later) never allocate a list.
        self._callbacks: Optional[List[Callable[["SimEvent"], None]]] = None
        self.label = label

    def trigger(self, value: Any = None) -> None:
        if self.triggered:
            raise SimulationError(f"event {self.label!r} triggered twice")
        self.triggered = True
        self.value = value
        self.time = self.sim.now
        # Detach the list before invoking anything: a callback may
        # register on this event again, and must not disturb iteration.
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            for callback in callbacks:
                callback(self)

    def on_trigger(self, callback: Callable[["SimEvent"], None]) -> None:
        """Invoke ``callback(event)`` when triggered (immediately if already)."""
        if self.triggered:
            callback(self)
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def detach(self, callback: Callable[["SimEvent"], None]) -> None:
        """Remove a pending callback registered with :meth:`on_trigger`.

        Composite waits use this to drop themselves from events that can
        no longer affect the outcome (e.g. the losers of an ``any_of``),
        so an event that never fires cannot retain the composite — and,
        transitively, its result event — forever.  Removing a callback
        that is not registered is a no-op.
        """
        callbacks = self._callbacks
        if callbacks is not None:
            try:
                callbacks.remove(callback)
            except ValueError:
                pass

    def __repr__(self) -> str:
        state = f"done@{self.time}" if self.triggered else "pending"
        return f"<SimEvent {self.label or hex(id(self))} {state}>"


class AllOf:
    """Composite wait satisfied when every child event has triggered."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[SimEvent]):
        self.events = list(events)


class AnyOf:
    """Composite wait satisfied when any child event has triggered."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[SimEvent]):
        self.events = list(events)


class _AllOfWait:
    """Countdown callback behind :func:`all_of`.

    One slotted object per composite (instead of a closure with cell
    variables); it fires the result event when the last child triggers.
    """

    __slots__ = ("result", "events", "remaining")

    def __init__(self, result: SimEvent, events: List[SimEvent]):
        self.result = result
        self.events = events
        self.remaining = len(events)

    def __call__(self, _event: SimEvent) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            result, self.result = self.result, None
            result.trigger([e.value for e in self.events])


class _AnyOfWait:
    """First-one-wins callback behind :func:`any_of`.

    When the first child fires it triggers the result, then *detaches*
    itself from every still-pending child and drops all references: a
    losing event that never triggers must not retain this object (and,
    transitively, the result event) forever.
    """

    __slots__ = ("result", "events")

    def __init__(self, result: SimEvent, events: List[SimEvent]):
        self.result = result
        self.events = events

    def __call__(self, event: SimEvent) -> None:
        result = self.result
        if result is None:
            return  # a sibling already won
        self.result = None
        events, self.events = self.events, ()
        result.trigger(event.value)
        for other in events:
            if other is not event and not other.triggered:
                other.detach(self)


def all_of(sim: "Simulator", events: Iterable[SimEvent], label: str = "") -> SimEvent:
    """An event that triggers when all of ``events`` have (control_and)."""
    events = list(events)
    result = SimEvent(sim, label or "all_of")
    if not events:
        result.trigger([])
        return result
    waiter = _AllOfWait(result, events)
    for event in events:
        event.on_trigger(waiter)
    return result


def any_of(sim: "Simulator", events: Iterable[SimEvent], label: str = "") -> SimEvent:
    """An event that triggers when the first of ``events`` does (control_or)."""
    events = list(events)
    result = SimEvent(sim, label or "any_of")
    if not events:
        result.trigger(None)
        return result
    waiter = _AnyOfWait(result, events)
    for event in events:
        if waiter.result is None:
            break  # already won during registration; don't attach to losers
        event.on_trigger(waiter)
    return result


class Process:
    """A generator-driven concurrent process.

    The wrapped generator yields requests (see module docstring); the
    process itself exposes :attr:`done` — an event triggered with the
    generator's return value when it finishes.

    A subclass that drives one generator after another (the engine's
    per-processor dispatcher) assigns :attr:`generator`, passes the
    first request to :meth:`_handle`, and overrides :meth:`_finished`
    to take the return value instead of triggering :attr:`done`.
    """

    __slots__ = (
        "sim", "generator", "done", "name", "_value", "_tick", "_wakeup",
        "_soon",
    )

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        self.sim = sim
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.done = SimEvent(sim, f"{self.name}.done")
        self._value: Any = None
        # A process waits on exactly one request at a time, so one bound
        # resume callback (and one event callback) can be allocated here
        # once and reused for every step — the engine resumes processes
        # millions of times, and per-resume lambda allocation was
        # measurable churn.  The zero-delay resume entry point is also
        # prebound: it is the single hottest call in a simulation.
        self._tick = self._resume_pending
        self._wakeup = self._event_fired
        self._soon = sim.schedule_soon

    def _resume_pending(self) -> None:
        # One frame per resume: the send, and the request a body that
        # waits on a memory makes over and over — a positive duration —
        # without the calls to ``_step``/``_handle`` in between.
        value, self._value = self._value, None
        try:
            request = self.generator.send(value)
        except StopIteration as stop:
            self._finished(stop.value)
            return
        if type(request) is int and request > 0:
            self.sim.schedule_bucket(request, self._tick)
        else:
            self._handle(request)

    def _event_fired(self, event: SimEvent) -> None:
        # Resume via the scheduler's microtask ring (delay 0) so that the
        # waking process runs in deterministic event order rather than
        # inside the trigger call.
        self._value = event.value
        self._soon(self._tick)

    def _finished(self, value: Any) -> None:
        self.done.trigger(value)

    def _handle(self, request: Any) -> None:
        # Exact type checks first: requests are overwhelmingly plain ints
        # (durations) and SimEvents; isinstance chains cover subclasses.
        cls = type(request)
        if cls is int:
            if request > 0:
                self.sim.schedule_bucket(request, self._tick)
            elif request == 0:
                self._soon(self._tick)  # _value is already None
            else:
                raise SimulationError(f"negative delay {request}")
        elif cls is SimEvent:
            request.on_trigger(self._wakeup)
        elif isinstance(request, int):
            self._handle(int(request))  # bool and int subclasses
        elif isinstance(request, SimEvent):
            request.on_trigger(self._wakeup)
        elif isinstance(request, Process):
            request.done.on_trigger(self._wakeup)
        elif isinstance(request, AllOf):
            all_of(self.sim, request.events).on_trigger(self._wakeup)
        elif isinstance(request, AnyOf):
            any_of(self.sim, request.events).on_trigger(self._wakeup)
        else:
            raise SimulationError(f"process yielded unsupported request {request!r}")


class _SimulatorBase:
    """Event/process plumbing shared by both scheduler implementations."""

    def __init__(self):
        self.now: int = 0
        self._event_count = 0

    # -- events ----------------------------------------------------------------

    def event(self, label: str = "") -> SimEvent:
        return SimEvent(self, label)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register a new process; it starts at the current time."""
        process = Process(self, generator, name)
        self.schedule_soon(process._tick)  # _value is None: starts fresh
        return process

    # -- statistics ------------------------------------------------------------

    @property
    def processed_events(self) -> int:
        """Number of scheduler callbacks executed (engine-speed metric)."""
        return self._event_count


class Simulator(_SimulatorBase):
    """The tiered event-wheel scheduler (ring + calendar wheel + heap).

    See the module docstring for the design; :class:`HeapSimulator` is
    the reference implementation both must match observably.
    """

    kind = "wheel"

    def __init__(self):
        super().__init__()
        #: Callbacks due at the current cycle, in execution order.
        self._ring: deque = deque()
        #: The zero-delay fast path: a bare ``deque.append``.  The ring
        #: deque is never replaced, so this bound method stays valid for
        #: the simulator's lifetime.
        self.schedule_soon = self._ring.append
        #: ``WHEEL_SIZE`` per-cycle FIFO buckets; bucket ``t % WHEEL_SIZE``
        #: holds the callbacks for cycle ``t`` (unique while the horizon
        #: invariant ``now < t < now + WHEEL_SIZE`` holds).
        self._wheel: List[list] = [[] for _ in range(WHEEL_SIZE)]
        #: Bitmask of occupied wheel slots (bit ``s`` = bucket ``s``).
        self._occupied = 0
        #: Overflow for times at/beyond the wheel horizon.
        self._heap: List[Tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        self._wheel_events = 0
        self._heap_events = 0

    # -- scheduling ----------------------------------------------------------

    def schedule_bucket(self, delay: int, callback: Callable[[], None]) -> None:
        """The canonical delay dispatch: wheel bucket, overflow heap,
        microtask ring (``delay == 0``), or error (negative).

        Named for its hot case — the process resume path and compiled
        plan steps yield short positive durations that land in a wheel
        bucket.  ``schedule``/``schedule_at`` delegate here, and the
        non-positive handling means a buggy caller fails identically on
        both scheduler backends instead of silently landing a callback
        one wheel revolution late.
        """
        if 0 < delay < WHEEL_SIZE:
            slot = (self.now + delay) & _WHEEL_INDEX_MASK
            self._wheel[slot].append(callback)
            self._occupied |= 1 << slot
        elif delay >= WHEEL_SIZE:
            heapq.heappush(
                self._heap, (self.now + delay, self._seq, callback)
            )
            self._seq += 1
        elif delay == 0:
            self._ring.append(callback)
        else:
            raise SimulationError(
                f"cannot schedule at {self.now + delay} before current "
                f"time {self.now}"
            )

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        self.schedule_bucket(delay, callback)

    def schedule_at(self, time: int, callback: Callable[[], None]) -> None:
        self.schedule_bucket(time - self.now, callback)

    # -- execution -------------------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Run until all queues drain (or simulated time exceeds ``until``).

        Returns the final simulation time.
        """
        ring = self._ring
        popleft = ring.popleft
        wheel = self._wheel
        heap = self._heap
        count = 0
        try:
            while True:
                # Tier 1: drain the current cycle's microtask ring.  New
                # zero-delay work appends behind the cursor and runs in
                # this same pass, preserving FIFO order.
                while ring:
                    callback = popleft()
                    count += 1
                    callback()
                # Advance: the earliest populated wheel cycle (one bit
                # rotation) versus the heap top.
                occupied = self._occupied
                if occupied:
                    base = (self.now + 1) & _WHEEL_INDEX_MASK
                    rotated = (
                        (occupied >> base)
                        | (occupied << (WHEEL_SIZE - base))
                    ) & _WHEEL_FULL_MASK
                    next_time = self.now + 1 + (
                        (rotated & -rotated).bit_length() - 1
                    )
                    if heap and heap[0][0] < next_time:
                        next_time = heap[0][0]
                elif heap:
                    next_time = heap[0][0]
                else:
                    break
                if until is not None and next_time > until:
                    self.now = until
                    break
                self.now = next_time
                # Heap overflow entries drain first: they were scheduled
                # strictly earlier than any bucket entry for this cycle
                # (they had to be >= WHEEL_SIZE cycles out at the time).
                while heap and heap[0][0] == next_time:
                    ring.append(heapq.heappop(heap)[2])
                    self._heap_events += 1
                bucket = wheel[next_time & _WHEEL_INDEX_MASK]
                if bucket:
                    ring.extend(bucket)
                    self._wheel_events += len(bucket)
                    bucket.clear()
                    self._occupied ^= 1 << (next_time & _WHEEL_INDEX_MASK)
        finally:
            self._event_count += count
        return self.now

    # -- statistics ------------------------------------------------------------

    @property
    def microtask_events(self) -> int:
        """Callbacks that ran straight off the zero-delay microtask ring."""
        return self._event_count - self._wheel_events - self._heap_events

    @property
    def wheel_events(self) -> int:
        """Callbacks that arrived through a calendar-wheel bucket."""
        return self._wheel_events

    @property
    def heap_events(self) -> int:
        """Callbacks that arrived through the far-future overflow heap."""
        return self._heap_events


class HeapSimulator(_SimulatorBase):
    """The classic binary-heap scheduler: a heap of (time, seq, callback).

    The reference semantics for :class:`Simulator` and the runtime escape
    hatch (``EngineOptions.scheduler = "heap"`` / ``--scheduler heap``).
    Every callback — including zero-delay resumes — pays a heap push/pop
    and a tuple allocation, which is exactly what the event wheel avoids.
    """

    kind = "heap"

    def __init__(self):
        super().__init__()
        self._heap: List[Tuple[int, int, Callable[[], None]]] = []
        self._seq = 0

    # -- scheduling ----------------------------------------------------------

    def schedule_at(self, time: int, callback: Callable[[], None]) -> None:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        heapq.heappush(self._heap, (time, self._seq, callback))
        self._seq += 1

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        self.schedule_at(self.now + delay, callback)

    def schedule_soon(self, callback: Callable[[], None]) -> None:
        self.schedule_at(self.now, callback)

    def schedule_bucket(self, delay: int, callback: Callable[[], None]) -> None:
        self.schedule_at(self.now + delay, callback)

    # -- execution -------------------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Run until the heap drains (or simulated time exceeds ``until``).

        Returns the final simulation time.
        """
        heap = self._heap
        pop = heapq.heappop
        count = 0
        try:
            while heap:
                time, _, callback = heap[0]
                if until is not None and time > until:
                    self.now = until
                    break
                pop(heap)
                self.now = time
                count += 1
                callback()
        finally:
            self._event_count += count
        return self.now

    # -- statistics ------------------------------------------------------------

    @property
    def microtask_events(self) -> int:
        return 0

    @property
    def wheel_events(self) -> int:
        return 0

    @property
    def heap_events(self) -> int:
        return self._event_count


_SCHEDULERS = {"wheel": Simulator, "heap": HeapSimulator}


def make_simulator(kind: str = "wheel") -> _SimulatorBase:
    """Instantiate a scheduler backend by name (``"wheel"`` | ``"heap"``)."""
    try:
        factory = _SCHEDULERS[kind]
    except KeyError:
        raise SimulationError(
            f"unknown scheduler {kind!r}; choose from "
            f"{sorted(_SCHEDULERS)}"
        ) from None
    return factory()


class ScheduleQueue:
    """A k-server FIFO service queue with busy-time accounting.

    This is the paper's per-component "schedule queue" (§IV-C): concurrent
    operations contending for a component are serialized in arrival order
    over ``servers`` parallel servers (memory ports, connection channels),
    and the queue records busy intervals so profiling can report average
    bandwidth, peak bandwidth, and the max-bandwidth time fraction.
    """

    __slots__ = (
        "sim", "servers", "_free_at", "busy_cycles", "posted_busy_cycles",
        "_last_end",
    )

    def __init__(self, sim: Simulator, servers: int = 1):
        if servers < 1:
            raise SimulationError(f"need at least one server, got {servers}")
        self.sim = sim
        self.servers = servers
        self._free_at = [0] * servers
        #: Total server-cycles spent busy on booked (blocking) requests.
        self.busy_cycles = 0
        #: Service time charged by posted (fire-and-forget) accesses; kept
        #: separate because posted work is not placed on a specific server
        #: and may therefore exceed the nominal capacity accounting.
        self.posted_busy_cycles = 0
        self._last_end = 0

    @property
    def total_busy_cycles(self) -> int:
        return self.busy_cycles + self.posted_busy_cycles

    def book(self, duration: int, at: Optional[int] = None) -> Tuple[int, int]:
        """Reserve a server for ``duration`` cycles; returns (start, end).

        The request is served by the earliest-free server, no earlier than
        ``at`` (default: now).  Because the global event loop processes
        requests in time order, this models FIFO contention without
        per-request processes.
        """
        if duration < 0:
            raise SimulationError(f"negative duration {duration}")
        time = self.sim.now if at is None else at
        free_at = self._free_at
        best = 0
        start = free_at[0]
        if self.servers > 1:
            # Single-server queues (most memory ports) skip the scan —
            # and its range allocation — entirely.
            for index in range(1, self.servers):
                candidate = free_at[index]
                if candidate < start:
                    start = candidate
                    best = index
        if start < time:
            start = time
        end = start + duration
        free_at[best] = end
        self.busy_cycles += duration
        if end > self._last_end:
            self._last_end = end
        return start, end

    @property
    def last_end(self) -> int:
        """Latest completion time booked so far."""
        return self._last_end
