"""Tests for the ten §V lowering passes, each on a focused example."""

import numpy as np
import pytest

from repro import ir
from repro.dialects import affine, arith, linalg, memref
from repro.dialects.equeue import EQueueBuilder
from repro.ir import verify
from repro.passes import PassManager, split_launch
from repro.passes.equeue_passes import find_buffer, find_launch
from repro.sim import simulate


def conv_program():
    """Structure + buffers + linalg.conv2d, the pipeline's starting point."""
    module = ir.create_module()
    builder = ir.Builder(ir.InsertionPoint.at_end(module.body))
    eq = EQueueBuilder(builder)
    eq.create_proc("ARMr5", name="kernel")
    eq.create_dma(name="dma")
    eq.create_mem("SRAM", 8192, ir.i32, ports=2, name="sram")
    eq.create_mem("Register", 8192, ir.i32, name="regfile")
    ifmap = memref.alloc(builder, [2, 5, 5], ir.i32)
    ifmap.name_hint = "ifmap"
    weight = memref.alloc(builder, [2, 2, 2, 2], ir.i32)
    weight.name_hint = "weight"
    ofmap = memref.alloc(builder, [2, 4, 4], ir.i32)
    ofmap.name_hint = "ofmap"
    linalg.conv2d(builder, ifmap, weight, ofmap)
    return module


class TestLinalgToAffine:
    def test_six_loop_nest(self):
        module = conv_program()
        PassManager.parse("convert-linalg-to-affine-loops").run(module)
        loops = [op for op in module.walk() if op.name == "affine.for"]
        assert len(loops) == 6
        assert not any(op.name == "linalg.conv2d" for op in module.walk())

    def test_flattened_three_loops(self):
        module = conv_program()
        manager = PassManager()
        manager.add("convert-linalg-to-affine-loops", flatten=True)
        manager.run(module)
        loops = [op for op in module.walk() if op.name == "affine.for"]
        assert len(loops) == 3
        # Flattening introduces div/rem index recovery.
        assert any(op.name == "arith.divsi" for op in module.walk())

    def test_functional_equivalence(self, rng):
        from tests.conftest import conv2d_reference

        for flatten in (False, True):
            module = conv_program()
            manager = PassManager()
            manager.add("convert-linalg-to-affine-loops", flatten=flatten)
            manager.add("equeue-read-write")
            manager.add("allocate-buffer", memory="sram")
            manager.add("launch", proc="kernel", label="conv")
            manager.run(module)
            ifmap = rng.integers(-4, 5, (2, 5, 5)).astype(np.int32)
            weight = rng.integers(-4, 5, (2, 2, 2, 2)).astype(np.int32)
            result = simulate(module, inputs={"ifmap": ifmap, "weight": weight})
            expected = conv2d_reference(ifmap, weight)
            assert np.array_equal(result.buffer("ofmap"), expected), (
                f"flatten={flatten}"
            )

    def test_matmul_and_fill_lowering(self, rng):
        module = ir.create_module()
        builder = ir.Builder(ir.InsertionPoint.at_end(module.body))
        eq = EQueueBuilder(builder)
        eq.create_proc("ARMr5", name="kernel")
        eq.create_mem("SRAM", 8192, ir.i32, name="sram")
        a = memref.alloc(builder, [3, 4], ir.i32); a.name_hint = "a"
        b = memref.alloc(builder, [4, 5], ir.i32); b.name_hint = "b"
        c = memref.alloc(builder, [3, 5], ir.i32); c.name_hint = "c"
        linalg.matmul(builder, a, b, c)
        PassManager.parse(
            "convert-linalg-to-affine-loops,equeue-read-write,"
            "allocate-buffer{memory=sram},launch{proc=kernel}"
        ).run(module)
        am = rng.integers(-5, 6, (3, 4)).astype(np.int32)
        bm = rng.integers(-5, 6, (4, 5)).astype(np.int32)
        result = simulate(module, inputs={"a": am, "b": bm})
        assert np.array_equal(result.buffer("c"), am @ bm)


class TestEqueueReadWrite:
    def test_rewrites_loads_and_stores(self, module_and_builder):
        module, builder = module_and_builder
        buf = memref.alloc(builder, [4], ir.i32)
        i = arith.constant(builder, 1, ir.index)
        value = affine.load(builder, buf, [i])
        affine.store(builder, value, buf, [i])
        PassManager.parse("equeue-read-write").run(module)
        names = [op.name for op in module.walk()]
        assert "equeue.read" in names and "equeue.write" in names
        assert "affine.load" not in names and "affine.store" not in names


class TestAllocateBuffer:
    def test_moves_allocs_to_memory(self):
        module = conv_program()
        PassManager.parse("allocate-buffer{memory=sram}").run(module)
        allocs = [op for op in module.walk() if op.name == "equeue.alloc"]
        assert len(allocs) == 3
        assert not any(op.name == "memref.alloc" for op in module.walk())

    def test_prefix_filter(self):
        module = conv_program()
        PassManager.parse("allocate-buffer{memory=sram,prefix=if}").run(module)
        equeue_allocs = [
            op for op in module.walk() if op.name == "equeue.alloc"
        ]
        memref_allocs = [
            op for op in module.walk() if op.name == "memref.alloc"
        ]
        assert len(equeue_allocs) == 1
        assert len(memref_allocs) == 2

    def test_unknown_memory_errors(self):
        module = conv_program()
        from repro.ir import PassError

        with pytest.raises(PassError, match="no value named"):
            PassManager.parse("allocate-buffer{memory=ghost}").run(module)


class TestLaunchPass:
    def test_outlines_with_captures(self):
        module = conv_program()
        PassManager.parse(
            "convert-linalg-to-affine-loops,allocate-buffer{memory=sram},"
            "launch{proc=kernel,label=work}"
        ).run(module)
        launch = find_launch(module, "work")
        # Captures the three buffers used by the loop nest.
        assert len(launch.captured) == 3
        # Followed by an await on its event.
        parent = launch.parent
        assert parent.ops[parent.index_of(launch) + 1].name == "equeue.await"
        verify(module)

    def test_nothing_to_outline_errors(self, module_and_builder):
        module, builder = module_and_builder
        EQueueBuilder(builder).create_proc("ARMr5", name="kernel")
        from repro.ir import PassError

        with pytest.raises(PassError, match="no top-level computation"):
            PassManager.parse("launch{proc=kernel}").run(module)


class TestMemcpyPasses:
    def _staged_module(self):
        module = ir.create_module()
        builder = ir.Builder(ir.InsertionPoint.at_end(module.body))
        eq = EQueueBuilder(builder)
        kernel = eq.create_proc("ARMr5", name="kernel")
        eq.create_dma(name="dma")
        sram = eq.create_mem("SRAM", 1024, ir.i32, name="sram")
        regs = eq.create_mem("Register", 1024, ir.i32, name="regfile")
        eq.alloc(sram, [8], ir.i32, name="src")
        dst = eq.alloc(regs, [8], ir.i32, name="dst")
        start = eq.control_start()

        def body(b, dst_arg):
            inner = EQueueBuilder(b)
            data = inner.read(dst_arg)
            inner.op("mac", [data, data, data], [data.type])

        done, = eq.launch(start, kernel, args=[dst], body=body, label="use")
        eq.await_(done)
        return module

    def test_memcpy_pass_inserts_and_chains(self):
        module = self._staged_module()
        PassManager.parse("memcpy{src=src,dst=dst,dma=dma}").run(module)
        memcpys = [op for op in module.walk() if op.name == "equeue.memcpy"]
        assert len(memcpys) == 1
        launch = find_launch(module, "use")
        # The launch dep is now a control_and involving the copy.
        dep_owner = launch.operand(0).owner
        assert dep_owner.name == "equeue.control_and"
        verify(module)
        # Functionally: dst receives src contents before the launch runs.
        data = np.arange(8, dtype=np.int32)
        result = simulate(module, inputs={"src": data})
        assert np.array_equal(result.buffer("dst"), data)
        assert result.cycles == 8 + 1  # 8-cycle copy + 1-cycle mac

    def test_memcpy_to_launch(self):
        module = self._staged_module()
        PassManager.parse(
            "memcpy{src=src,dst=dst,dma=dma},memcpy-to-launch"
        ).run(module)
        assert not any(op.name == "equeue.memcpy" for op in module.walk())
        launches = [op for op in module.walk() if op.name == "equeue.launch"]
        assert len(launches) == 2
        data = np.arange(8, dtype=np.int32)
        result = simulate(module, inputs={"src": data})
        assert np.array_equal(result.buffer("dst"), data)

    def test_merge_memcpy_launch(self):
        module = self._staged_module()
        PassManager.parse(
            "memcpy{src=src,dst=dst,dma=dma},merge-memcpy-launch{launch=use}"
        ).run(module)
        assert not any(op.name == "equeue.memcpy" for op in module.walk())
        launch = find_launch(module, "use")
        body_names = [op.name for op in launch.regions[0].entry_block.ops]
        # The copy became a read+write prologue inside the launch.
        assert body_names[0] == "equeue.read"
        assert body_names[1] == "equeue.write"
        verify(module)
        data = np.arange(8, dtype=np.int32)
        result = simulate(module, inputs={"src": data})
        assert np.array_equal(result.buffer("dst"), data)


class TestSplitLaunch:
    def test_split_routes_values(self):
        module = ir.create_module()
        builder = ir.Builder(ir.InsertionPoint.at_end(module.body))
        eq = EQueueBuilder(builder)
        kernel = eq.create_proc("ARMr5", name="kernel")
        regs = eq.create_mem("Register", 64, ir.i32, name="regfile")
        buf = eq.alloc(regs, [4], ir.i32, name="buf")
        start = eq.control_start()

        def body(b, buf_arg):
            inner = EQueueBuilder(b)
            data = inner.read(buf_arg)
            doubled = inner.op("mac", [data, data, data], [data.type])[0]
            inner.write(doubled, buf_arg)
            return [doubled]

        done, out = eq.launch(start, kernel, args=[buf], body=body, label="work")
        eq.await_(done)
        PassManager.parse("split-launch{launch=work,at=2}").run(module)
        labels = [
            op.get_attr("label")
            for op in module.walk()
            if op.name == "equeue.launch"
        ]
        assert "work_0" in labels and "work_1" in labels
        verify(module)
        data = np.array([1, 2, 3, 4], np.int32)
        result = simulate(module, inputs={"buf": data})
        assert np.array_equal(result.buffer("buf"), data * data + data)

    def test_split_out_of_range(self):
        module = self_module = ir.create_module()
        builder = ir.Builder(ir.InsertionPoint.at_end(self_module.body))
        eq = EQueueBuilder(builder)
        kernel = eq.create_proc("ARMr5", name="kernel")
        start = eq.control_start()
        done, = eq.launch(start, kernel, body=lambda b: None, label="w")
        eq.await_(done)
        from repro.ir import PassError

        with pytest.raises(PassError, match="out of range"):
            split_launch(find_launch(module, "w"), 0)


class TestReassignBuffer:
    def test_replaces_uses(self):
        module = ir.create_module()
        builder = ir.Builder(ir.InsertionPoint.at_end(module.body))
        eq = EQueueBuilder(builder)
        kernel = eq.create_proc("ARMr5", name="kernel")
        sram = eq.create_mem("SRAM", 64, ir.i32, name="sram")
        regs = eq.create_mem("Register", 64, ir.i32, name="regfile")
        slow = eq.alloc(sram, [4], ir.i32, name="slow")
        eq.alloc(regs, [4], ir.i32, name="fast")
        start = eq.control_start()
        done, = eq.launch(
            start, kernel, args=[slow],
            body=lambda b, arg: EQueueBuilder(b).read(arg) and None,
            label="work",
        )
        eq.await_(done)
        before = simulate(module.clone()).cycles
        PassManager.parse("reassign-buffer{from=slow,to=fast}").run(module)
        launch = find_launch(module, "work")
        assert launch.captured[0] is find_buffer(module, "fast")
        after = simulate(module).cycles
        assert before == 4 and after == 0  # SRAM read -> register read

    def test_type_mismatch_rejected(self):
        module = ir.create_module()
        builder = ir.Builder(ir.InsertionPoint.at_end(module.body))
        eq = EQueueBuilder(builder)
        sram = eq.create_mem("SRAM", 64, ir.i32, name="sram")
        eq.alloc(sram, [4], ir.i32, name="a")
        eq.alloc(sram, [8], ir.i32, name="b")
        from repro.ir import PassError

        with pytest.raises(PassError, match="types differ"):
            PassManager.parse("reassign-buffer{from=a,to=b}").run(module)


class TestParallelToEqueueAndLowerExtraction:
    def _parallel_module(self):
        module = ir.create_module()
        builder = ir.Builder(ir.InsertionPoint.at_end(module.body))
        eq = EQueueBuilder(builder)
        pes = [eq.create_proc("MAC", name=f"pe_{i}") for i in range(4)]
        comp = eq.create_comp(
            " ".join(f"pe_{i}" for i in range(4)), pes
        )
        comp.name_hint = "grid"
        regs = eq.create_mem("Register", 64, ir.i32, name="regfile")
        buf = eq.alloc(regs, [8], ir.i32, name="buf")

        def body(b, iv):
            inner = EQueueBuilder(b)
            data = inner.read_element(buf, [iv])
            doubled = arith.addi(b, data, data)
            inner.write_element(doubled, buf, [iv])

        affine.parallel(builder, [0], [4], body=body)
        return module

    def test_parallel_unrolls_to_launches(self):
        module = self._parallel_module()
        PassManager.parse(
            "parallel-to-equeue{comp=grid,proc_template=pe_{0}}"
        ).run(module)
        launches = [op for op in module.walk() if op.name == "equeue.launch"]
        assert len(launches) == 4
        assert not any(op.name == "affine.parallel" for op in module.walk())
        verify(module)
        data = np.arange(8, dtype=np.int32)
        result = simulate(module, inputs={"buf": data})
        expected = data.copy()
        expected[:4] *= 2
        assert np.array_equal(result.buffer("buf"), expected)
        # Concurrent PEs: one cycle total, not four.
        assert result.cycles == 1

    def test_unrolled_copies_of_a_named_value_go_unnamed(self):
        """A name hint names one value, and the engine names a buffer
        after its ``alloc``'s: four copies of a body that allocates
        ``%scratch`` are four buffers, none of them ``scratch``."""
        module = self._parallel_module()
        loop, = [op for op in module.walk() if op.name == "affine.parallel"]
        body = ir.Builder(ir.InsertionPoint.at_begin(loop.body))
        memref.alloc(body, [1], ir.i32).name_hint = "scratch"
        loop.body.ops[2].result().name_hint = "doubled"
        assert "%scratch" in ir.print_op(module)
        PassManager.parse(
            "parallel-to-equeue{comp=grid,proc_template=pe_{0}}"
        ).run(module)
        verify(module)
        text = ir.print_op(module)
        assert "%scratch" not in text and "%doubled" not in text
        assert ir.print_op(ir.parse_module(text)) == text
        result = simulate(module, inputs={"buf": np.arange(8, dtype=np.int32)})
        scratch = [name for name in result.buffers if name != "buf"]
        assert len(scratch) == len(set(scratch)) == 4

    def test_lower_extraction_folds_templates(self, module_and_builder):
        module, builder = module_and_builder
        eq = EQueueBuilder(builder)
        pe = eq.create_proc("MAC", name="pe_2")
        comp = eq.create_comp("pe_2", [pe])
        from repro.dialects.equeue import types as eqt

        i = arith.constant(builder, 2, ir.index)
        builder.create(
            "equeue.get_comp", [comp, i], [eqt.proc],
            {"name_template": "pe_{0}"},
        )
        PassManager.parse("lower-extraction").run(module)
        get_comps = [
            op for op in module.walk() if op.name == "equeue.get_comp"
        ]
        assert len(get_comps) == 1
        assert get_comps[0].get_attr("name") == "pe_2"
        assert not get_comps[0].has_attr("name_template")

    def test_lower_extraction_folds_nested_paths(self, module_and_builder):
        module, builder = module_and_builder
        eq = EQueueBuilder(builder)
        pe = eq.create_proc("MAC", name="pe")
        inner_comp = eq.create_comp("PE", [pe])
        outer_comp = eq.create_comp("Cluster", [inner_comp])
        from repro.dialects.equeue import types as eqt

        level1 = builder.create(
            "equeue.get_comp", [outer_comp], [eqt.comp], {"name": "Cluster"}
        )
        builder.create(
            "equeue.get_comp", [level1.result()], [eqt.proc], {"name": "PE"}
        )
        PassManager.parse("lower-extraction").run(module)
        names = [
            op.get_attr("name")
            for op in module.walk()
            if op.name == "equeue.get_comp" and op.result().has_uses is False
        ]
        assert "Cluster.PE" in names
