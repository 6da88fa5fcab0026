"""The component library (§III-A, §IV-D): processors, memories, DMAs,
connections, and hierarchical groups.

Component *kinds* are looked up in extensible registries: the paper's
"simulator library".  Users add custom components (the §IV-D cache example)
by registering a spec or subclass — no engine changes required.

Timing constants (the concrete model documented in DESIGN.md):

=============  =========================  =================================
Kind           cycles/access              intent
=============  =========================  =================================
``Register``   0 (combinational)          PE-local register files
``Stream``     0                          AXI-stream endpoints (sin/sout)
``SRAM``       1 per access, ``ports``    on-chip scratchpads
``DRAM``       10 per access              off-chip memory
``Cache``      1 hit / 10 miss            §IV-D extension example
=============  =========================  =================================
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .kernel import ScheduleQueue, SimEvent, Simulator


class ComponentError(Exception):
    """Raised for invalid component configuration or use."""


# ---------------------------------------------------------------------------
# Kind registries (the extensible simulator library)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemorySpec:
    """Timing/behaviour parameters for a memory kind."""

    cycles_per_access: int
    #: Component class to instantiate (subclass hook, §IV-D).
    factory: Optional[Callable[..., "MemoryModel"]] = None


@dataclass(frozen=True)
class ProcessorSpec:
    """Timing parameters for a processor kind."""

    #: Cycles charged per arithmetic op on data (non-index) values.
    arith_cycles: int = 1


_MEMORY_KINDS: Dict[str, MemorySpec] = {}
_PROCESSOR_KINDS: Dict[str, ProcessorSpec] = {}


def register_memory_kind(kind: str, spec: MemorySpec) -> None:
    _MEMORY_KINDS[kind] = spec


def register_processor_kind(kind: str, spec: ProcessorSpec) -> None:
    _PROCESSOR_KINDS[kind] = spec


def memory_spec(kind: str) -> MemorySpec:
    try:
        return _MEMORY_KINDS[kind]
    except KeyError:
        raise ComponentError(
            f"unknown memory kind {kind!r}; register it with register_memory_kind"
        ) from None


def processor_spec(kind: str) -> ProcessorSpec:
    try:
        return _PROCESSOR_KINDS[kind]
    except KeyError:
        raise ComponentError(
            f"unknown processor kind {kind!r}; register it with "
            "register_processor_kind"
        ) from None


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------


class Component:
    """Base class: everything placeable in an accelerator hierarchy."""

    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind
        self.parent: Optional["ComponentGroup"] = None

    @property
    def path(self) -> str:
        if self.parent is None or not self.parent.name:
            return self.name
        return f"{self.parent.path}.{self.name}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} ({self.kind})>"


class ComponentGroup(Component):
    """``create_comp`` result: a named hierarchy of subcomponents."""

    def __init__(self, name: str, kind: str = "Comp"):
        super().__init__(name, kind)
        self.children: Dict[str, Component] = {}

    def add(self, name: str, component: Component) -> None:
        if name in self.children:
            raise ComponentError(f"duplicate subcomponent name {name!r}")
        self.children[name] = component
        component.parent = self
        # The hierarchy name becomes the component's canonical name, as in
        # the paper's create_comp("Memory Kernel DMA", ...) convention.
        component.name = name

    def lookup(self, path: str) -> Component:
        """Resolve a dotted path such as ``"PE0.Reg"``."""
        component: Component = self
        for part in path.split("."):
            if not isinstance(component, ComponentGroup):
                raise ComponentError(
                    f"{component.name!r} has no subcomponents (looking up {path!r})"
                )
            try:
                component = component.children[part]
            except KeyError:
                raise ComponentError(
                    f"no subcomponent {part!r} in {component.name!r}"
                ) from None
        return component


@dataclass(slots=True)
class EventEntry:
    """One queued event on a processor: the paper's operation entry.

    A launch issued onto an idle processor whose dependency has
    triggered never becomes one: the issue hands it to the processor's
    dispatcher (:attr:`ProcessorModel.wake`).  A queued entry is a launch
    that waits — on a busy processor or an untriggered dependency — a
    memcpy, or the top block.
    """

    kind: str                      # "launch" | "memcpy"
    dep: SimEvent
    done: SimEvent                 # a fork–join step's: one shared countdown
    payload: object                # engine-specific (op + captured values)
    label: str = ""


class ProcessorModel(Component):
    """A processor: executes one queued event at a time (§III-D)."""

    def __init__(self, name: str, kind: str):
        super().__init__(name, kind)
        self.spec = processor_spec(kind)
        #: FIFO of EventEntry (head-checked by the engine).  A deque: the
        #: engine pops the head once per executed entry, and launch-heavy
        #: programs keep hundreds of entries queued per processor.
        self.queue: deque = deque()
        #: While the processor idles on an empty queue: its dispatcher,
        #: which a call schedules (a zero-delay callback) and to which the
        #: engine's launch issue hands a launch whose dependency has
        #: triggered, with no entry.  ``None`` while a dispatch is
        #: scheduled, waiting on the head entry's dependency or running
        #: something — it looks at the queue again by itself.
        self.wake: Optional[Callable[[], None]] = None
        self.busy_cycles = 0
        self.executed_events = 0

    def enqueue(self, entry: EventEntry) -> None:
        self.queue.append(entry)
        wake = self.wake
        if wake is not None:
            self.wake = None
            wake()


class DMAModel(ProcessorModel):
    """A DMA engine: a processor specialized for data movement."""

    def __init__(self, name: str):
        super().__init__(name, "DMA")


class MemoryModel(Component):
    """A memory with banked, ported access timing and traffic statistics."""

    def __init__(
        self,
        name: str,
        kind: str,
        size: int,
        data_bits: int,
        banks: int = 1,
        ports: int = 1,
    ):
        super().__init__(name, kind)
        self.spec = memory_spec(kind)
        self.size = size
        self.data_bits = data_bits
        self.banks = banks
        self.ports = ports
        self.allocated_elements = 0
        self.queue: Optional[ScheduleQueue] = None  # bound when sim attaches
        # Traffic statistics.
        self.bytes_read = 0
        self.bytes_written = 0
        self.reads = 0
        self.writes = 0

    def attach(self, sim: Simulator) -> None:
        self.queue = ScheduleQueue(sim, servers=self.ports)

    # -- timing ----------------------------------------------------------------

    def access_cycles(self, num_elements: int, is_write: bool, address: int = 0) -> int:
        """Service time for ``num_elements`` accesses on one port.

        Ports provide parallel servers via the schedule queue, so this
        returns the per-port duration for a request of ``num_elements``
        contiguous elements spread across ports.
        """
        cpa = self.get_read_or_write_cycles(is_write, address)
        if cpa == 0:
            return 0
        per_port = math.ceil(num_elements / self.ports)
        return per_port * cpa

    def get_read_or_write_cycles(self, is_write: bool, address: int = 0) -> int:
        """Cycles for one access; subclasses override (§IV-D cache hook)."""
        return self.spec.cycles_per_access

    # -- accounting --------------------------------------------------------------

    def record_read(self, nbytes: int) -> None:
        self.bytes_read += nbytes
        self.reads += 1

    def record_write(self, nbytes: int) -> None:
        self.bytes_written += nbytes
        self.writes += 1

    def allocate(self, num_elements: int, strict: bool = False) -> None:
        self.allocated_elements += num_elements
        if strict and self.allocated_elements > self.size:
            raise ComponentError(
                f"memory {self.name!r} over capacity: "
                f"{self.allocated_elements} > {self.size} elements"
            )

    def deallocate(self, num_elements: int) -> None:
        self.allocated_elements = max(0, self.allocated_elements - num_elements)


class CacheModel(MemoryModel):
    """The §IV-D extension example: a direct-mapped cache.

    Only :meth:`get_read_or_write_cycles` is overridden, exactly as the
    paper describes extending the component library.
    """

    def __init__(
        self,
        name: str,
        size: int,
        data_bits: int,
        banks: int = 1,
        ports: int = 1,
        line_elements: int = 8,
        lines: int = 64,
        hit_cycles: int = 1,
        miss_cycles: int = 10,
    ):
        super().__init__(name, "Cache", size, data_bits, banks, ports)
        self.line_elements = line_elements
        self.lines = lines
        self.hit_cycles = hit_cycles
        self.miss_cycles = miss_cycles
        self._tags = [-1] * lines
        self.hits = 0
        self.misses = 0

    def get_read_or_write_cycles(self, is_write: bool, address: int = 0) -> int:
        line = (address // self.line_elements) % self.lines
        tag = address // (self.line_elements * self.lines)
        if self._tags[line] == tag:
            self.hits += 1
            return self.hit_cycles
        self._tags[line] = tag
        self.misses += 1
        return self.miss_cycles


class ConnectionModel(Component):
    """A bandwidth-constrained link (§III-A).

    ``Streaming`` connections have independent read and write channels;
    ``Window`` connections share one exclusively-locked channel.  A
    ``bandwidth`` of 0 models an unconstrained link that still collects
    traffic statistics.
    """

    def __init__(self, name: str, kind: str, bandwidth: int):
        super().__init__(name, kind)
        if kind not in ("Streaming", "Window"):
            raise ComponentError(f"unknown connection kind {kind!r}")
        self.bandwidth = bandwidth
        self.read_queue: Optional[ScheduleQueue] = None
        self.write_queue: Optional[ScheduleQueue] = None
        self.bytes_read = 0
        self.bytes_written = 0
        self.transfers = 0
        #: (duration, nbytes) samples for peak-bandwidth statistics.
        self._samples: list = []

    def attach(self, sim: Simulator) -> None:
        self.read_queue = ScheduleQueue(sim, servers=1)
        if self.kind == "Streaming":
            self.write_queue = ScheduleQueue(sim, servers=1)
        else:
            self.write_queue = self.read_queue  # exclusive lock

    def transfer_cycles(self, nbytes: int) -> int:
        if self.bandwidth <= 0:
            return 0
        return math.ceil(nbytes / self.bandwidth)

    def record(self, nbytes: int, duration: int, is_write: bool) -> None:
        if is_write:
            self.bytes_written += nbytes
        else:
            self.bytes_read += nbytes
        self.transfers += 1
        self._samples.append((duration, nbytes))

    @property
    def peak_bandwidth(self) -> float:
        """The highest observed per-cycle transfer rate."""
        best = 0.0
        for duration, nbytes in self._samples:
            if duration > 0:
                best = max(best, nbytes / duration)
            elif nbytes:
                best = max(best, float(nbytes))
        return best


class Buffer:
    """A runtime buffer bound to a memory component (``equeue.alloc``)."""

    __slots__ = (
        "name", "memory", "array", "element_bits", "base_address",
        "element_strides",
    )

    def __init__(
        self,
        name: str,
        memory: MemoryModel,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        element_bits: int,
        base_address: int = 0,
    ):
        self.name = name
        self.memory = memory
        self.array = np.zeros(shape, dtype=dtype)
        self.element_bits = element_bits
        self.base_address = base_address
        # Row-major element strides for fast address computation.
        strides = []
        acc = 1
        for dim in reversed(shape):
            strides.append(acc)
            acc *= dim
        self.element_strides = tuple(reversed(strides))

    @property
    def num_elements(self) -> int:
        return int(self.array.size)

    @property
    def nbytes(self) -> int:
        return self.num_elements * self.element_bits // 8

    def __repr__(self) -> str:
        return (
            f"<Buffer {self.name} {self.array.shape} on {self.memory.name}>"
        )


def _register_default_kinds() -> None:
    register_memory_kind("Register", MemorySpec(cycles_per_access=0))
    register_memory_kind("Stream", MemorySpec(cycles_per_access=0))
    register_memory_kind("SRAM", MemorySpec(cycles_per_access=1))
    register_memory_kind("DRAM", MemorySpec(cycles_per_access=10))
    register_memory_kind(
        "Cache",
        MemorySpec(
            cycles_per_access=1,
            factory=lambda name, size, data_bits, banks, ports: CacheModel(
                name, size, data_bits, banks, ports
            ),
        ),
    )
    for kind in ("ARMr5", "ARMr6", "MAC", "AIEngine", "Generic", "Host", "DMA"):
        register_processor_kind(kind, ProcessorSpec(arith_cycles=1))


_register_default_kinds()
