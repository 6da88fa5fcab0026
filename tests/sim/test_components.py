"""Tests for the component library."""

import numpy as np
import pytest

from repro.sim.components import (
    Buffer,
    CacheModel,
    ComponentError,
    ComponentGroup,
    ConnectionModel,
    DMAModel,
    MemoryModel,
    MemorySpec,
    ProcessorModel,
    memory_spec,
    processor_spec,
    register_memory_kind,
)
from repro.sim.kernel import Simulator


class TestRegistries:
    def test_builtin_memory_kinds(self):
        assert memory_spec("Register").cycles_per_access == 0
        assert memory_spec("SRAM").cycles_per_access == 1
        assert memory_spec("DRAM").cycles_per_access == 10
        assert memory_spec("Stream").cycles_per_access == 0

    def test_unknown_kind_raises(self):
        with pytest.raises(ComponentError, match="register_memory_kind"):
            memory_spec("Hologram")
        with pytest.raises(ComponentError):
            processor_spec("Quantum")

    def test_custom_kind_registration(self):
        register_memory_kind("TestScratch", MemorySpec(cycles_per_access=3))
        assert memory_spec("TestScratch").cycles_per_access == 3


class TestHierarchy:
    def test_paths(self):
        group = ComponentGroup("accel")
        pe = ProcessorModel("pe0", "MAC")
        group.add("PE0", pe)
        assert pe.path == "accel.PE0"

    def test_nested_lookup(self):
        top = ComponentGroup("accel")
        sub = ComponentGroup("cluster")
        pe = ProcessorModel("pe", "MAC")
        sub.add("PE", pe)
        top.add("Cluster", sub)
        assert top.lookup("Cluster.PE") is pe

    def test_duplicate_name_rejected(self):
        group = ComponentGroup("g")
        group.add("A", ProcessorModel("a", "MAC"))
        with pytest.raises(ComponentError, match="duplicate"):
            group.add("A", ProcessorModel("b", "MAC"))

    def test_missing_lookup_raises(self):
        group = ComponentGroup("g")
        with pytest.raises(ComponentError, match="no subcomponent"):
            group.lookup("Nope")


class TestMemoryTiming:
    def _mem(self, kind="SRAM", ports=1):
        sim = Simulator()
        mem = MemoryModel("m", kind, size=1024, data_bits=32, ports=ports)
        mem.attach(sim)
        return mem

    def test_register_access_free(self):
        mem = self._mem("Register")
        assert mem.access_cycles(100, is_write=False) == 0

    def test_sram_scales_with_elements_and_ports(self):
        assert self._mem("SRAM", ports=1).access_cycles(8, False) == 8
        assert self._mem("SRAM", ports=2).access_cycles(8, False) == 4
        assert self._mem("SRAM", ports=4).access_cycles(3, False) == 1

    def test_dram_latency(self):
        assert self._mem("DRAM").access_cycles(1, False) == 10

    def test_traffic_accounting(self):
        mem = self._mem()
        mem.record_read(64)
        mem.record_write(32)
        assert mem.bytes_read == 64
        assert mem.bytes_written == 32
        assert mem.reads == 1 and mem.writes == 1

    def test_capacity_strict(self):
        mem = self._mem()
        mem.allocate(1000)
        with pytest.raises(ComponentError, match="capacity"):
            mem.allocate(100, strict=True)
        mem.deallocate(2000)
        assert mem.allocated_elements == 0


class TestCache:
    def test_miss_then_hit(self):
        sim = Simulator()
        cache = CacheModel("c", size=1024, data_bits=32, line_elements=8,
                           lines=4, hit_cycles=1, miss_cycles=10)
        cache.attach(sim)
        assert cache.get_read_or_write_cycles(False, address=0) == 10  # miss
        assert cache.get_read_or_write_cycles(False, address=3) == 1   # hit
        assert cache.hits == 1 and cache.misses == 1

    def test_conflict_eviction(self):
        sim = Simulator()
        cache = CacheModel("c", size=1024, data_bits=32, line_elements=1,
                           lines=2, hit_cycles=1, miss_cycles=10)
        cache.attach(sim)
        assert cache.get_read_or_write_cycles(False, 0) == 10
        assert cache.get_read_or_write_cycles(False, 2) == 10  # maps to line 0
        assert cache.get_read_or_write_cycles(False, 0) == 10  # evicted


class TestConnection:
    def test_transfer_cycles(self):
        conn = ConnectionModel("c", "Streaming", bandwidth=4)
        assert conn.transfer_cycles(16) == 4
        assert conn.transfer_cycles(1) == 1
        assert conn.transfer_cycles(17) == 5

    def test_infinite_bandwidth(self):
        conn = ConnectionModel("c", "Streaming", bandwidth=0)
        assert conn.transfer_cycles(10_000) == 0

    def test_streaming_has_independent_channels(self):
        sim = Simulator()
        conn = ConnectionModel("c", "Streaming", bandwidth=4)
        conn.attach(sim)
        assert conn.read_queue is not conn.write_queue

    def test_window_shares_channel(self):
        sim = Simulator()
        conn = ConnectionModel("c", "Window", bandwidth=4)
        conn.attach(sim)
        assert conn.read_queue is conn.write_queue

    def test_bad_kind(self):
        with pytest.raises(ComponentError):
            ConnectionModel("c", "Fancy", bandwidth=4)

    def test_peak_bandwidth(self):
        conn = ConnectionModel("c", "Streaming", bandwidth=4)
        conn.record(16, 4, is_write=True)
        conn.record(8, 4, is_write=False)
        assert conn.peak_bandwidth == 4.0
        assert conn.bytes_written == 16
        assert conn.bytes_read == 8


class TestBufferAndDMA:
    def test_buffer_shape_and_bytes(self):
        sim = Simulator()
        mem = MemoryModel("m", "SRAM", 1024, 32)
        mem.attach(sim)
        buf = Buffer("b", mem, (4, 4), np.dtype(np.int32), 32)
        assert buf.num_elements == 16
        assert buf.nbytes == 64
        assert buf.array.shape == (4, 4)
        assert not buf.array.any()

    def test_dma_is_processor(self):
        dma = DMAModel("d")
        assert isinstance(dma, ProcessorModel)
        assert dma.kind == "DMA"

    def test_enqueue_wakes(self):
        """An idle processor holds what schedules its dispatcher: the
        first enqueue calls it, once, and takes it — a second enqueue
        before the dispatch has run schedules nothing."""
        from repro.sim.components import EventEntry

        sim = Simulator()
        proc = ProcessorModel("p", "MAC")
        scheduled = []
        proc.wake = lambda: scheduled.append(sim.now)

        def entry():
            return EventEntry(
                kind="launch", dep=sim.event(), done=sim.event(), payload=None
            )

        first, second = entry(), entry()
        proc.enqueue(first)
        assert scheduled == [0] and proc.wake is None
        proc.enqueue(second)
        assert scheduled == [0]
        assert list(proc.queue) == [first, second]

    def test_enqueue_on_an_idle_processor_schedules_one_dispatch(self):
        """The same through an engine: one microtask for two launches
        issued back to back onto one idle processor."""
        from repro import ir
        from repro.dialects.equeue import EQueueBuilder
        from repro.sim import Engine

        module = ir.create_module()
        eq = EQueueBuilder(ir.Builder(ir.InsertionPoint.at_end(module.body)))
        pe = eq.create_proc("MAC", name="pe")
        start = eq.control_start()
        done = [eq.launch(start, pe, body=lambda b: None)[0] for _ in range(2)]
        eq.await_(eq.control_and(done))
        engine = Engine(module)
        result = engine.run()
        # pe start + host start, one wake of pe for both launches, one
        # resume of the host's await.
        assert result.summary.scheduler_events == 4
        assert engine.processors[0].executed_events == 2
        assert engine.processors[0].wake is not None  # idle again
