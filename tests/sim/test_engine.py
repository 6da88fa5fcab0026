"""Engine behaviour tests: timing semantics, events, memory, connections."""

import numpy as np
import pytest

from repro import ir
from repro.dialects import affine, arith, scf
from repro.dialects.equeue import EQueueBuilder
from repro.sim import EngineError, EngineOptions, simulate


def make_program():
    module = ir.create_module()
    builder = ir.Builder(ir.InsertionPoint.at_end(module.body))
    return module, builder, EQueueBuilder(builder)


class TestBasicTiming:
    def test_empty_launch_takes_zero_cycles(self):
        module, _, eq = make_program()
        kernel = eq.create_proc("ARMr5")
        start = eq.control_start()
        done, = eq.launch(start, kernel, body=lambda b: None)
        eq.await_(done)
        assert simulate(module).cycles == 0

    def test_mac_costs_one_cycle(self):
        module, _, eq = make_program()
        kernel = eq.create_proc("MAC")
        mem = eq.create_mem("Register", 16, ir.i32)
        buf = eq.alloc(mem, [4], ir.i32)
        start = eq.control_start()

        def body(b, buf_arg):
            inner = EQueueBuilder(b)
            data = inner.read(buf_arg)
            inner.op("mac", [data, data, data], [data.type])

        done, = eq.launch(start, kernel, args=[buf], body=body)
        eq.await_(done)
        assert simulate(module).cycles == 1

    def test_sequential_ops_accumulate(self):
        module, _, eq = make_program()
        kernel = eq.create_proc("MAC")
        mem = eq.create_mem("Register", 16, ir.i32)
        buf = eq.alloc(mem, [4], ir.i32)
        start = eq.control_start()

        def body(b, buf_arg):
            inner = EQueueBuilder(b)
            data = inner.read(buf_arg)
            for _ in range(5):
                data = inner.op("mac", [data, data, data], [data.type])[0]

        done, = eq.launch(start, kernel, args=[buf], body=body)
        eq.await_(done)
        assert simulate(module).cycles == 5

    def test_arith_on_data_costs_index_free(self):
        module, _, eq = make_program()
        kernel = eq.create_proc("ARMr5")
        start = eq.control_start()

        def body(b):
            a = arith.constant(b, 1, ir.i32)
            c = arith.addi(b, a, a)       # 1 cycle (data)
            arith.muli(b, c, c)           # 1 cycle (data)
            i = arith.constant(b, 1, ir.index)
            arith.addi(b, i, i)           # free (index)
            return None

        done, = eq.launch(start, kernel, body=body)
        eq.await_(done)
        assert simulate(module).cycles == 2

    def test_interpreted_loop_cost(self):
        module, _, eq = make_program()
        kernel = eq.create_proc("MAC")
        mem = eq.create_mem("Register", 16, ir.i32)
        buf = eq.alloc(mem, [4], ir.i32)
        start = eq.control_start()

        def body(b, buf_arg):
            inner = EQueueBuilder(b)

            def loop(b2, iv):
                data = EQueueBuilder(b2).read(buf_arg)
                EQueueBuilder(b2).op("mac", [data, data, data], [data.type])

            affine.for_loop(b, 0, 10, body=loop)

        done, = eq.launch(start, kernel, args=[buf], body=body)
        eq.await_(done)
        assert simulate(module).cycles == 10


class TestEventSemantics:
    def test_parallel_launches_overlap(self):
        module, _, eq = make_program()
        mem = eq.create_mem("Register", 16, ir.i32)
        buf = eq.alloc(mem, [4], ir.i32)
        pes = [eq.create_proc("MAC") for _ in range(3)]
        start = eq.control_start()
        dones = []
        for pe in pes:
            def body(b, buf_arg):
                inner = EQueueBuilder(b)
                data = inner.read(buf_arg)
                inner.op("mac", [data, data, data], [data.type])
            dones.append(eq.launch(start, pe, args=[buf], body=body)[0])
        eq.await_(eq.control_and(dones))
        # Three PEs run concurrently: total is 1, not 3.
        assert simulate(module).cycles == 1

    def test_same_processor_serializes(self):
        module, _, eq = make_program()
        mem = eq.create_mem("Register", 16, ir.i32)
        buf = eq.alloc(mem, [4], ir.i32)
        pe = eq.create_proc("MAC")
        start = eq.control_start()
        dones = []
        for _ in range(3):
            def body(b, buf_arg):
                inner = EQueueBuilder(b)
                data = inner.read(buf_arg)
                inner.op("mac", [data, data, data], [data.type])
            dones.append(eq.launch(start, pe, args=[buf], body=body)[0])
        eq.await_(eq.control_and(dones))
        # One processor executes one event at a time.
        assert simulate(module).cycles == 3

    def test_dependency_chains_serialize(self):
        module, _, eq = make_program()
        mem = eq.create_mem("Register", 16, ir.i32)
        buf = eq.alloc(mem, [4], ir.i32)
        pes = [eq.create_proc("MAC") for _ in range(3)]
        start = eq.control_start()
        dep = start
        for pe in pes:
            def body(b, buf_arg):
                inner = EQueueBuilder(b)
                data = inner.read(buf_arg)
                inner.op("mac", [data, data, data], [data.type])
            dep = eq.launch(dep, pe, args=[buf], body=body)[0]
        eq.await_(dep)
        # Chained deps: 3 sequential cycles despite 3 processors.
        assert simulate(module).cycles == 3

    def test_launch_return_values_via_future(self):
        module, builder, eq = make_program()
        kernel = eq.create_proc("ARMr5")
        start = eq.control_start()

        def body(b):
            value = arith.constant(b, 41, ir.i32)
            one = arith.constant(b, 1, ir.i32)
            return [arith.addi(b, value, one)]

        done, out = eq.launch(start, kernel, body=body)
        eq.await_(done)
        result = simulate(module)
        assert result.value_of(out) == 42

    def test_use_of_unresolved_future_errors(self):
        module, _, eq = make_program()
        producer = eq.create_proc("ARMr5")
        consumer = eq.create_proc("ARMr5")
        start = eq.control_start()

        def produce(b):
            value = arith.constant(b, 1, ir.i32)
            # Take a few cycles so the consumer (which wrongly does not
            # depend on us) starts first.
            value = arith.addi(b, value, value)
            value = arith.addi(b, value, value)
            return [value]

        done, out = eq.launch(start, producer, body=produce)
        # Consumer does NOT depend on the producer's done event.
        def consume(b, value):
            one = arith.constant(b, 1, ir.i32)
            arith.addi(b, value, one)

        bad, = eq.launch(start, consumer, args=[out], body=consume)
        eq.await_(bad)
        with pytest.raises(EngineError, match="before the launch finished"):
            simulate(module)


class TestMemoryTiming:
    def _sram_program(self, ports, elements):
        module, _, eq = make_program()
        kernel = eq.create_proc("ARMr5")
        mem = eq.create_mem("SRAM", 4096, ir.i32, ports=ports)
        buf = eq.alloc(mem, [elements], ir.i32)
        start = eq.control_start()

        def body(b, buf_arg):
            EQueueBuilder(b).read(buf_arg)

        done, = eq.launch(start, kernel, args=[buf], body=body)
        eq.await_(done)
        return module

    def test_sram_whole_read_time(self):
        assert simulate(self._sram_program(1, 16)).cycles == 16
        assert simulate(self._sram_program(4, 16)).cycles == 4

    def test_dram_slower_than_sram(self):
        module, _, eq = make_program()
        kernel = eq.create_proc("ARMr5")
        dram = eq.create_mem("DRAM", 4096, ir.i32)
        buf = eq.alloc(dram, [4], ir.i32)
        start = eq.control_start()
        done, = eq.launch(
            start, kernel, args=[buf],
            body=lambda b, buf_arg: EQueueBuilder(b).read(buf_arg) and None,
        )
        eq.await_(done)
        assert simulate(module).cycles == 40

    def test_memory_contention_between_processors(self):
        module, _, eq = make_program()
        mem = eq.create_mem("SRAM", 64, ir.i32, ports=1)
        buf = eq.alloc(mem, [8], ir.i32)
        pes = [eq.create_proc("MAC") for _ in range(2)]
        start = eq.control_start()
        dones = [
            eq.launch(
                start, pe, args=[buf],
                body=lambda b, buf_arg: EQueueBuilder(b).read(buf_arg) and None,
            )[0]
            for pe in pes
        ]
        eq.await_(eq.control_and(dones))
        # Two 8-element reads on one port contend: 16 cycles, not 8.
        assert simulate(module).cycles == 16

    def test_memcpy_duration_and_function(self, rng):
        module, _, eq = make_program()
        sram = eq.create_mem("SRAM", 256, ir.i32, ports=1)
        regs = eq.create_mem("Register", 256, ir.i32)
        src = eq.alloc(sram, [32], ir.i32, name="src")
        dst = eq.alloc(regs, [32], ir.i32, name="dst")
        dma = eq.create_dma()
        start = eq.control_start()
        done = eq.memcpy(start, src, dst, dma)
        eq.await_(done)
        data = rng.integers(0, 100, 32).astype(np.int32)
        result = simulate(module, inputs={"src": data})
        assert result.cycles == 32  # SRAM side dominates
        assert np.array_equal(result.buffer("dst"), data)

    def test_strided_memcpy(self, rng):
        module, builder, eq = make_program()
        sram = eq.create_mem("SRAM", 256, ir.i32, ports=1)
        src = eq.alloc(sram, [32], ir.i32, name="src")
        dst = eq.alloc(sram, [8], ir.i32, name="dst")
        dma = eq.create_dma()
        start = eq.control_start()
        off = arith.constant(builder, 16, ir.index)
        zero = arith.constant(builder, 0, ir.index)
        done = eq.memcpy(start, src, dst, dma, offsets=[off, zero], count=8)
        eq.await_(done)
        data = np.arange(32, dtype=np.int32)
        result = simulate(module, inputs={"src": data})
        assert result.cycles == 8 + 8  # read 8 + write 8 on the same SRAM
        assert list(result.buffer("dst")) == list(range(16, 24))

    def test_strict_capacity(self):
        module, _, eq = make_program()
        mem = eq.create_mem("SRAM", 4, ir.i32)
        eq.alloc(mem, [8], ir.i32)
        with pytest.raises(Exception, match="capacity"):
            simulate(module, EngineOptions(strict_capacity=True))


class TestConnections:
    def _conn_program(self, bandwidth, nbytes_elements, kind="Streaming"):
        module, _, eq = make_program()
        kernel = eq.create_proc("ARMr5")
        mem = eq.create_mem("Register", 4096, ir.i32)
        buf = eq.alloc(mem, [nbytes_elements], ir.i32)
        conn = eq.create_connection(kind, bandwidth)
        start = eq.control_start()

        def body(b, buf_arg, conn_arg):
            EQueueBuilder(b).read(buf_arg, conn=conn_arg)

        done, = eq.launch(start, kernel, args=[buf, conn], body=body)
        eq.await_(done)
        return module

    def test_bandwidth_limits_transfer(self):
        # 16 elements x 4 bytes = 64 bytes at 8 B/cyc = 8 cycles.
        assert simulate(self._conn_program(8, 16)).cycles == 8

    def test_infinite_bandwidth_free_but_counted(self):
        result = simulate(self._conn_program(0, 16))
        assert result.cycles == 0
        conn_report = next(iter(result.summary.connections.values()))
        assert conn_report.bytes_read == 64

    def test_window_serializes_read_and_write(self):
        module, _, eq = make_program()
        kernel = eq.create_proc("ARMr5")
        mem = eq.create_mem("Register", 64, ir.i32)
        buf = eq.alloc(mem, [8], ir.i32)
        conn = eq.create_connection("Window", 4)
        start = eq.control_start()

        def body(b, buf_arg, conn_arg):
            inner = EQueueBuilder(b)
            data = inner.read(buf_arg, conn=conn_arg)
            inner.write(data, buf_arg, conn=conn_arg)

        done, = eq.launch(start, kernel, args=[buf, conn], body=body)
        eq.await_(done)
        # 32 bytes at 4 B/cyc each way over a locked channel: 8 + 8.
        assert simulate(module).cycles == 16

    def test_streaming_bandwidth_portion(self):
        result = simulate(self._conn_program(8, 16))
        report = next(iter(result.summary.connections.values()))
        assert report.max_bandwidth_portion_read == 1.0
        assert report.avg_read_bandwidth == pytest.approx(8.0)


class TestConditionals:
    def test_scf_if_taken_branch_costs(self):
        module, _, eq = make_program()
        kernel = eq.create_proc("MAC")
        mem = eq.create_mem("Register", 16, ir.i32)
        buf = eq.alloc(mem, [4], ir.i32)
        start = eq.control_start()

        def body(b, buf_arg):
            one = arith.constant(b, 1, ir.index)
            taken = arith.cmpi(b, "eq", one, one)

            def then(b2):
                inner = EQueueBuilder(b2)
                data = inner.read(buf_arg)
                inner.op("mac", [data, data, data], [data.type])

            scf.if_op(b, taken, then)
            not_taken = arith.cmpi(b, "ne", one, one)
            scf.if_op(b, not_taken, then)

        done, = eq.launch(start, kernel, args=[buf], body=body)
        eq.await_(done)
        assert simulate(module).cycles == 1  # only the taken branch

    def test_else_branch(self):
        module, _, eq = make_program()
        kernel = eq.create_proc("MAC")
        mem = eq.create_mem("Register", 16, ir.i32)
        buf = eq.alloc(mem, [4], ir.i32, name="flag")
        start = eq.control_start()

        def body(b, buf_arg):
            one = arith.constant(b, 1, ir.index)
            cond = arith.cmpi(b, "ne", one, one)  # false

            def then(b2):
                val = arith.constant(b2, 111, ir.i32)
                EQueueBuilder(b2).write(val, buf_arg)

            def otherwise(b2):
                val = arith.constant(b2, 222, ir.i32)
                EQueueBuilder(b2).write(val, buf_arg)

            scf.if_op(b, cond, then, otherwise)

        done, = eq.launch(start, kernel, args=[buf], body=body)
        eq.await_(done)
        result = simulate(module)
        assert result.buffer("flag")[0] == 222


class TestErrorsAndEdges:
    def test_empty_control_and_triggers_immediately(self):
        module, _, eq = make_program()
        kernel = eq.create_proc("ARMr5")
        d1, = eq.launch(eq.control_and([]), kernel, body=lambda b: None)
        eq.await_(d1)
        assert simulate(module).cycles == 0

    def test_self_queue_deadlock_detected(self):
        # A launch body that awaits a sub-launch on its *own* processor:
        # the sub-launch sits in the queue while the processor is busy
        # executing the awaiting block — a classic user bug the engine
        # must report rather than hang on.
        module, _, eq = make_program()
        kernel = eq.create_proc("ARMr5")
        start = eq.control_start()

        def body(b, kernel_arg):
            inner = EQueueBuilder(b)
            cs = inner.control_start()
            sub, = inner.launch(cs, kernel_arg, body=lambda bb: None)
            inner.await_(sub)

        done, = eq.launch(start, kernel, args=[kernel], body=body)
        eq.await_(done)
        with pytest.raises(EngineError, match="deadlock"):
            simulate(module)

    def test_unknown_buffer_input(self):
        module, _, eq = make_program()
        eq.create_proc("ARMr5")
        with pytest.raises(EngineError, match="does not match any buffer"):
            simulate(module, inputs={"ghost": np.zeros(4)})

    def test_structure_op_inside_launch_rejected(self):
        module, builder, eq = make_program()
        kernel = eq.create_proc("ARMr5")
        start = eq.control_start()

        def body(b):
            EQueueBuilder(b).create_proc("MAC")

        done, = eq.launch(start, kernel, body=body)
        eq.await_(done)
        with pytest.raises(EngineError, match="top level"):
            simulate(module)

    def test_max_cycles_stops_early(self):
        module, _, eq = make_program()
        kernel = eq.create_proc("MAC")
        mem = eq.create_mem("Register", 16, ir.i32)
        buf = eq.alloc(mem, [4], ir.i32)
        start = eq.control_start()

        def body(b, buf_arg):
            inner = EQueueBuilder(b)

            def loop(b2, iv):
                data = EQueueBuilder(b2).read(buf_arg)
                EQueueBuilder(b2).op("mac", [data, data, data], [data.type])

            affine.for_loop(b, 0, 1000, body=loop)

        done, = eq.launch(start, kernel, args=[buf], body=body)
        eq.await_(done)
        result = simulate(module, EngineOptions(max_cycles=10))
        assert result.truncated
        assert result.cycles == 10


class TestTraceOutput:
    def test_trace_records_and_json(self, tmp_path):
        module, _, eq = make_program()
        kernel = eq.create_proc("MAC", name="pe")
        mem = eq.create_mem("Register", 16, ir.i32)
        buf = eq.alloc(mem, [4], ir.i32)
        start = eq.control_start()

        def body(b, buf_arg):
            inner = EQueueBuilder(b)
            data = inner.read(buf_arg)
            inner.op("mac", [data, data, data], [data.type])

        done, = eq.launch(start, kernel, args=[buf], body=body, label="step")
        eq.await_(done)
        result = simulate(module, EngineOptions(trace=True, detailed_trace=True))
        names = [r.name for r in result.trace.records]
        assert "step" in names
        assert "mac" in names

        import json

        path = tmp_path / "trace.json"
        result.trace.to_json(str(path))
        events = json.loads(path.read_text())
        assert events, "trace JSON must not be empty"
        for event in events:
            assert event["ph"] in ("B", "E")
            assert {"name", "cat", "ts", "pid", "tid"} <= set(event)
        # B/E pairs balance per tid.
        begins = sum(1 for e in events if e["ph"] == "B")
        ends = sum(1 for e in events if e["ph"] == "E")
        assert begins == ends
