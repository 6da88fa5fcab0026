"""Additional engine coverage: cache components, DRAM, hierarchy lookup at
runtime, memref ops, fill/matmul handlers, posted
access accounting, window memcpy."""

import numpy as np
import pytest

from repro import ir
from repro.dialects import affine, arith, linalg, memref
from repro.dialects.equeue import EQueueBuilder
from repro.dialects.equeue import types as eqt
from repro.sim import simulate


def make_program():
    module = ir.create_module()
    builder = ir.Builder(ir.InsertionPoint.at_end(module.body))
    return module, builder, EQueueBuilder(builder)


class TestCacheThroughEngine:
    def test_cache_hits_cheaper_than_misses(self):
        """Sequential walk over a Cache-kind memory: first touch of each
        line misses (10 cycles), the rest hit (1 cycle)."""
        module, builder, eq = make_program()
        kernel = eq.create_proc("ARMr5")
        cache = eq.create_mem("Cache", 4096, ir.i32)
        buf = eq.alloc(cache, [32], ir.i32)
        start = eq.control_start()

        def body(b, buf_arg):
            def walk(b2, iv):
                EQueueBuilder(b2).read_element(buf_arg, [iv])

            affine.for_loop(b, 0, 32, body=walk)

        done, = eq.launch(start, kernel, args=[buf], body=body)
        eq.await_(done)
        result = simulate(module)
        # 32 sequential reads over 8-element lines: 4 misses + 28 hits.
        assert result.cycles == 4 * 10 + 28 * 1

    def test_cache_random_strided_access_thrashes(self):
        module, builder, eq = make_program()
        kernel = eq.create_proc("ARMr5")
        cache = eq.create_mem("Cache", 4096, ir.i32)
        buf = eq.alloc(cache, [4096], ir.i32)
        start = eq.control_start()

        def body(b, buf_arg):
            def walk(b2, iv):
                inner = EQueueBuilder(b2)
                stride = arith.constant(b2, 512, ir.index)
                address = arith.muli(b2, iv, stride)
                inner.read_element(buf_arg, [address])

            affine.for_loop(b, 0, 8, body=walk)

        done, = eq.launch(start, kernel, args=[buf], body=body)
        eq.await_(done)
        # Every 512-element stride lands on a new line: all misses.
        assert simulate(module).cycles == 8 * 10


class TestHierarchyAtRuntime:
    def test_get_comp_inside_launch(self):
        module, builder, eq = make_program()
        kernel = eq.create_proc("ARMr5", name="kernel")
        pe = eq.create_proc("MAC", name="worker")
        grid = eq.create_comp("worker", [pe])
        regs = eq.create_mem("Register", 16, ir.i32)
        buf = eq.alloc(regs, [4], ir.i32, name="buf")
        start = eq.control_start()

        def body(b, grid_arg, buf_arg):
            inner = EQueueBuilder(b)
            worker = inner.get_comp(grid_arg, "worker", eqt.proc)
            sub, = inner.launch(
                inner.control_start(), worker, args=[buf_arg],
                body=lambda bb, arg: _mac_once(bb, arg),
            )
            inner.await_(sub)

        done, = eq.launch(start, kernel, args=[grid, buf], body=body)
        eq.await_(done)
        assert simulate(module).cycles == 1

    def test_template_resolved_at_runtime(self):
        module, builder, eq = make_program()
        kernel = eq.create_proc("ARMr5", name="kernel")
        pes = [eq.create_proc("MAC", name=f"pe_{i}") for i in range(3)]
        grid = eq.create_comp("pe_0 pe_1 pe_2", pes)
        regs = eq.create_mem("Register", 16, ir.i32)
        buf = eq.alloc(regs, [4], ir.i32)
        start = eq.control_start()

        def body(b, grid_arg, buf_arg):
            inner = EQueueBuilder(b)
            dones = []

            def sweep(b2, iv):
                nested = EQueueBuilder(b2)
                proc = b2.create(
                    "equeue.get_comp", [grid_arg, iv], [eqt.proc],
                    {"name_template": "pe_{0}"},
                ).result()
                done, = nested.launch(
                    nested.control_start(), proc, args=[buf_arg],
                    body=lambda bb, arg: _mac_once(bb, arg),
                )
                dones.append(done)

            affine.for_loop(b, 0, 3, body=sweep)

        done, = eq.launch(start, kernel, args=[grid, buf], body=body)
        eq.await_(done)
        # Three distinct PEs, all launched at ~t0: concurrent.
        assert simulate(module).cycles == 1


def _mac_once(b, buf_arg):
    inner = EQueueBuilder(b)
    data = inner.read(buf_arg)
    inner.op("mac", [data, data, data], [data.type])


class TestForeignOps:
    def test_memref_copy_and_fill(self):
        module, builder, eq = make_program()
        kernel = eq.create_proc("ARMr5")
        a = memref.alloc(builder, [8], ir.i32)
        a.name_hint = "a"
        b_buf = memref.alloc(builder, [8], ir.i32)
        b_buf.name_hint = "b"
        seven = arith.constant(builder, 7, ir.i32)
        linalg.fill(builder, seven, a)
        memref.copy(builder, a, b_buf)
        start = eq.control_start()
        done, = eq.launch(start, kernel, body=lambda bb: None)
        eq.await_(done)
        result = simulate(module)
        assert list(result.buffer("b")) == [7] * 8

    def test_matmul_handler_cost_and_function(self, rng):
        module, builder, eq = make_program()
        kernel = eq.create_proc("ARMr5", name="kernel")
        sram = eq.create_mem("SRAM", 4096, ir.i32, name="sram")
        a = eq.alloc(sram, [3, 4], ir.i32, name="a")
        b_buf = eq.alloc(sram, [4, 5], ir.i32, name="b")
        c = eq.alloc(sram, [3, 5], ir.i32, name="c")
        start = eq.control_start()

        def body(bb, a_arg, b_arg, c_arg):
            linalg.matmul(bb, a_arg, b_arg, c_arg)

        done, = eq.launch(start, kernel, args=[a, b_buf, c], body=body)
        eq.await_(done)
        am = rng.integers(-4, 5, (3, 4)).astype(np.int32)
        bm = rng.integers(-4, 5, (4, 5)).astype(np.int32)
        result = simulate(module, inputs={"a": am, "b": bm})
        assert np.array_equal(result.buffer("c"), am @ bm)
        assert result.cycles == 3 * 4 * 5 * 7  # macs * linalg_mac_cycles

    def test_dram_backed_loop(self):
        module, builder, eq = make_program()
        kernel = eq.create_proc("ARMr5")
        dram = eq.create_mem("DRAM", 1024, ir.i32)
        buf = eq.alloc(dram, [4], ir.i32)
        start = eq.control_start()

        def body(b, buf_arg):
            def step(b2, iv):
                EQueueBuilder(b2).read_element(buf_arg, [iv])

            affine.for_loop(b, 0, 4, body=step)

        done, = eq.launch(start, kernel, args=[buf], body=body)
        eq.await_(done)
        assert simulate(module).cycles == 40


class TestPostedAccounting:
    def test_posted_read_charges_stats_not_time(self):
        module, builder, eq = make_program()
        kernel = eq.create_proc("ARMr5")
        sram = eq.create_mem("SRAM", 1024, ir.i32, name="sram")
        conn = eq.create_connection("Streaming", 4)
        buf = eq.alloc(sram, [16], ir.i32)
        start = eq.control_start()

        def body(b, buf_arg, conn_arg):
            EQueueBuilder(b).read(buf_arg, conn=conn_arg, posted=True)

        done, = eq.launch(start, kernel, args=[buf, conn], body=body)
        eq.await_(done)
        result = simulate(module)
        assert result.cycles == 0  # no stall
        report = next(iter(result.summary.connections.values()))
        assert report.bytes_read == 64  # statistics still collected
        assert report.busy_read_cycles == 16  # 64 bytes at 4 B/cyc
        memory = result.summary.memory_named("sram")
        assert memory.bytes_read == 64


class TestWindowMemcpy:
    def test_window_connection_serializes_two_dmas(self):
        module, builder, eq = make_program()
        sram = eq.create_mem("Register", 1024, ir.i32)
        conn = eq.create_connection("Window", 4)
        a = eq.alloc(sram, [16], ir.i32)
        b_buf = eq.alloc(sram, [16], ir.i32)
        c = eq.alloc(sram, [16], ir.i32)
        d = eq.alloc(sram, [16], ir.i32)
        dma0 = eq.create_dma()
        dma1 = eq.create_dma()
        start = eq.control_start()
        done0 = eq.memcpy(start, a, b_buf, dma0, conn=conn)
        done1 = eq.memcpy(start, c, d, dma1, conn=conn)
        eq.await_(eq.control_and([done0, done1]))
        # Two 64-byte transfers over one locked 4 B/cyc channel: 32 cycles.
        assert simulate(module).cycles == 32

    def test_streaming_parallel_dmas_on_separate_conns(self):
        module, builder, eq = make_program()
        regs = eq.create_mem("Register", 1024, ir.i32)
        conn0 = eq.create_connection("Streaming", 4)
        conn1 = eq.create_connection("Streaming", 4)
        a = eq.alloc(regs, [16], ir.i32)
        b_buf = eq.alloc(regs, [16], ir.i32)
        c = eq.alloc(regs, [16], ir.i32)
        d = eq.alloc(regs, [16], ir.i32)
        dma0 = eq.create_dma()
        dma1 = eq.create_dma()
        start = eq.control_start()
        done0 = eq.memcpy(start, a, b_buf, dma0, conn=conn0)
        done1 = eq.memcpy(start, c, d, dma1, conn=conn1)
        eq.await_(eq.control_and([done0, done1]))
        # Independent links: both 16-cycle transfers overlap.
        assert simulate(module).cycles == 16


pytest  # noqa: B018
