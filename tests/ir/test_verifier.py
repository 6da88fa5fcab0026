"""Verifier tests: dominance, isolation, traits, per-op checks."""

import pytest

from repro import ir
from repro.dialects import arith
from repro.dialects.equeue import EQueueBuilder, types as eqt
from repro.ir import (
    Block,
    Operation,
    Region,
    VerificationError,
    verify,
    verify_value_integrity,
)


class TestDominance:
    def test_use_before_def_rejected(self, module_and_builder):
        module, builder = module_and_builder
        producer = builder.create("test.p", [], [ir.i32])
        consumer = builder.create("test.c", [producer.result()], [])
        # Move the consumer before the producer.
        consumer.detach()
        module.body.insert(0, consumer)
        with pytest.raises(VerificationError, match="dominate"):
            verify(module)

    def test_straightline_ok(self, module_and_builder):
        module, builder = module_and_builder
        a = arith.constant(builder, 1, ir.i32)
        arith.addi(builder, a, a)
        verify(module)

    def test_nested_region_sees_outer_values(self, module_and_builder):
        module, builder = module_and_builder
        value = arith.constant(builder, 1, ir.index)
        from repro.dialects import affine

        affine.for_loop(
            builder, 0, 4,
            body=lambda b, iv: b.create("test.use", [value], []),
        )
        verify(module)  # affine.for is not isolated: capture is legal


class TestIsolation:
    def test_launch_cannot_capture_implicitly(self, module_and_builder):
        module, builder = module_and_builder
        eq = EQueueBuilder(builder)
        kernel = eq.create_proc("ARMr5")
        leaked = arith.constant(builder, 7, ir.i32)
        start = eq.control_start()

        block = Block()
        inner = ir.Builder(ir.InsertionPoint.at_end(block))
        inner.create("test.use", [leaked], [])  # illegal implicit capture
        inner.create("equeue.return_values", [], [])
        builder.create(
            "equeue.launch", [start, kernel], [eqt.event], {}, [Region([block])]
        )
        with pytest.raises(VerificationError, match="dominate"):
            verify(module)

    def test_launch_with_explicit_capture_ok(self, module_and_builder):
        module, builder = module_and_builder
        eq = EQueueBuilder(builder)
        kernel = eq.create_proc("ARMr5")
        value = arith.constant(builder, 7, ir.i32)
        start = eq.control_start()
        eq.launch(
            start, kernel, args=[value],
            body=lambda b, v: b.create("test.use", [v], []) and None,
        )
        verify(module)


class TestTraits:
    def test_terminator_must_be_last(self, module_and_builder):
        module, builder = module_and_builder
        eq = EQueueBuilder(builder)
        kernel = eq.create_proc("ARMr5")
        start = eq.control_start()
        done, = eq.launch(start, kernel, body=lambda b: None)
        # Sneak an op after the terminator.
        launch = done.owner
        launch.regions[0].entry_block.append(Operation.create("test.late"))
        with pytest.raises(VerificationError):
            verify(module)

    def test_module_single_block(self):
        module = ir.create_module()
        module.regions[0].append(Block())
        with pytest.raises(VerificationError, match="single-block"):
            verify(module)


class TestPerOpVerifiers:
    def test_launch_arg_count_mismatch(self, module_and_builder):
        module, builder = module_and_builder
        eq = EQueueBuilder(builder)
        kernel = eq.create_proc("ARMr5")
        value = arith.constant(builder, 1, ir.i32)
        start = eq.control_start()
        block = Block()  # no block args despite one capture
        ir.Builder(ir.InsertionPoint.at_end(block)).create(
            "equeue.return_values", [], []
        )
        builder.create(
            "equeue.launch", [start, kernel, value], [eqt.event], {},
            [Region([block])],
        )
        with pytest.raises(VerificationError, match="captured"):
            verify(module)

    def test_cmpi_bad_predicate(self, module_and_builder):
        module, builder = module_and_builder
        a = arith.constant(builder, 1, ir.i32)
        builder.create(
            "arith.cmpi", [a, a], [ir.i1], {"predicate": "bogus"}
        )
        with pytest.raises(VerificationError, match="predicate"):
            verify(module)

    def test_addi_type_mismatch(self, module_and_builder):
        module, builder = module_and_builder
        a = arith.constant(builder, 1, ir.i32)
        b = arith.constant(builder, 1, ir.i64)
        builder.create("arith.addi", [a, b], [ir.i32])
        with pytest.raises(VerificationError, match="differ"):
            verify(module)

    def test_memcpy_offsets_require_count(self, module_and_builder):
        module, builder = module_and_builder
        eq = EQueueBuilder(builder)
        dma = eq.create_dma()
        mem = eq.create_mem("SRAM", 64, ir.i32)
        a = eq.alloc(mem, [8], ir.i32)
        b = eq.alloc(mem, [8], ir.i32)
        start = eq.control_start()
        zero = arith.constant(builder, 0, ir.index)
        builder.create(
            "equeue.memcpy", [start, a, b, dma, zero, zero], [eqt.event],
            {"connected": False, "offset_operands": True},
        )
        with pytest.raises(VerificationError, match="count"):
            verify(module)


class TestValueIntegrity:
    def test_intact_module_passes(self, module_and_builder):
        module, builder = module_and_builder
        a = arith.constant(builder, 1, ir.i32)
        arith.addi(builder, a, a)
        verify_value_integrity(module)


class TestScopedVisibility:
    """One visible-set serves the whole walk: a block's definitions join it
    on entry and leave it on exit, and an isolated op starts a fresh one."""

    PRELUDE = (
        "builtin.module() ({\n"
        '  %kernel = equeue.create_proc() {kind = "ARMr5"} : () -> !equeue.proc\n'
        "  %start = equeue.control_start() : () -> !equeue.event\n"
        "  %outer = test.p() : () -> i32\n"
        "  test.wrap() ({\n"
        "    %sibling = test.p() : () -> i32\n"
        "  }) : () -> ()\n"
        "  test.wrap() ({\n"
        "    %mid = test.p() : () -> i32\n"
    )
    POSTLUDE = (
        "    test.use(%mid) : (i32) -> ()\n"
        "  }) : () -> ()\n"
        "  test.use(%outer) : (i32) -> ()\n"
        "}) : () -> ()\n"
    )

    def test_use_dominated_only_through_enclosing_regions_passes(self):
        """%outer reaches the use through two non-isolated regions, after
        a sibling region was entered and left."""
        verify(ir.parse_module(
            self.PRELUDE
            + "    test.wrap() ({\n"
            "      test.use(%outer, %mid) : (i32, i32) -> ()\n"
            "    }) : () -> ()\n"
            + self.POSTLUDE
        ))

    def test_same_use_across_a_launch_boundary_fails(self):
        module = ir.parse_module(
            self.PRELUDE
            + "    %done = equeue.launch(%start, %kernel) ({\n"
            "      test.use(%outer, %mid) : (i32, i32) -> ()\n"
            "      equeue.return_values() : () -> ()\n"
            "    }) : (!equeue.event, !equeue.proc) -> !equeue.event\n"
            + self.POSTLUDE
        )
        with pytest.raises(VerificationError) as excinfo:
            verify(module)
        assert str(excinfo.value) == (
            "operand #0 does not dominate its use "
            "(value <OpResult %outer: i32>)\n  in operation: test.use"
        )

    def test_definitions_leave_scope_with_their_block(self, module_and_builder):
        module, builder = module_and_builder
        first, second = Block(), Block()
        inner = ir.Builder(ir.InsertionPoint.at_end(first)).create(
            "test.p", [], [ir.i32]
        )
        builder.create("test.wrap", [], [], {}, [Region([first, second])])
        verify(module)
        # Not visible in the sibling block ...
        leak = Operation.create("test.use", [inner.result()])
        second.append(leak)
        with pytest.raises(VerificationError, match="dominate"):
            verify(module)
        # ... nor after the region that defined it.
        leak.detach()
        module.body.append(leak)
        with pytest.raises(VerificationError, match="dominate"):
            verify(module)
