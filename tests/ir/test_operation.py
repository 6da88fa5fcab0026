"""Unit tests for Operation construction, mutation, and cloning."""

from pathlib import Path

import numpy as np
import pytest

from repro.ir import (
    Block,
    IRError,
    Operation,
    Region,
    i32,
    lookup_op_class,
    parse_module,
    print_op,
    registered_ops,
    verify,
    verify_value_integrity,
)

PROGRAMS = sorted(
    (Path(__file__).resolve().parents[2] / "examples" / "programs").glob("*.mlir")
)


def _named_modules():
    """Modules whose values carry name hints: the textual examples,
    every registered scenario's default program and the four stages of
    the lowering pipeline."""
    from repro.generators.pipeline import STAGES
    from repro.scenarios import get_scenario, scenario_names

    for path in PROGRAMS:
        yield path.name, lambda path=path: parse_module(path.read_text())
    for name in scenario_names():
        scenario = get_scenario(name)
        yield name, lambda s=scenario: s.build(s.configure())
    pipeline = get_scenario("pipeline")
    for stage in STAGES:
        yield f"pipeline-{stage}", lambda stage=stage: pipeline.build(
            pipeline.configure(stage=stage)
        )


class TestCreation:
    def test_registered_class_dispatch(self):
        op = Operation.create("equeue.launch", result_types=[])
        assert type(op).__name__ == "LaunchOp"

    def test_unregistered_name_gives_generic(self):
        op = Operation.create("test.unknown")
        assert type(op) is Operation
        assert op.name == "test.unknown"

    def test_attribute_conversion(self):
        op = Operation.create("test.x", attributes={"k": 5, "s": "hi"})
        assert op.get_attr("k") == 5
        assert op.get_attr("s") == "hi"
        assert op.get_attr("missing", "d") == "d"

    def test_registry_contains_core_ops(self):
        names = registered_ops()
        for expected in (
            "builtin.module", "equeue.launch", "equeue.memcpy",
            "affine.for", "arith.addi", "linalg.conv2d", "scf.if",
        ):
            assert expected in names
        assert lookup_op_class("equeue.read") is not None


class TestOperandMutation:
    def test_insert_and_erase_operand_reindexes(self):
        a = Operation.create("test.p", [], [i32])
        b = Operation.create("test.p", [], [i32])
        consumer = Operation.create("test.c", [a.result()], [])
        consumer.append_operand(b.result())
        assert [o.index for o in consumer.operands] == [0, 1]
        consumer.erase_operand(0)
        assert a.result().num_uses == 0
        assert consumer.operands[0].index == 0
        assert consumer.operand(0) is b.result()

    def test_set_operand(self):
        a = Operation.create("test.p", [], [i32])
        b = Operation.create("test.p", [], [i32])
        consumer = Operation.create("test.c", [a.result()], [])
        consumer.set_operand(0, b.result())
        assert consumer.operand(0) is b.result()


class TestEraseAndDetach:
    def test_erase_refuses_with_live_uses(self):
        producer = Operation.create("test.p", [], [i32])
        Operation.create("test.c", [producer.result()], [])
        with pytest.raises(IRError):
            producer.erase()

    def test_erase_removes_from_block(self):
        block = Block()
        op = Operation.create("test.p", [], [i32])
        block.append(op)
        op.erase()
        assert block.empty
        assert op.parent is None

    def test_erase_drops_nested_references(self):
        producer = Operation.create("test.p", [], [i32])
        inner_block = Block()
        inner = Operation.create("test.use", [producer.result()], [])
        inner_block.append(inner)
        outer = Operation.create(
            "test.region_op", [], [], regions=[Region([inner_block])]
        )
        outer.erase()
        assert producer.result().num_uses == 0

    def test_detach_keeps_references(self):
        block = Block()
        producer = Operation.create("test.p", [], [i32])
        consumer = Operation.create("test.c", [producer.result()], [])
        block.append(producer)
        block.append(consumer)
        consumer.detach()
        assert consumer.parent is None
        assert producer.result().num_uses == 1


class TestClone:
    def test_clone_remaps_internal_values(self):
        block = Block()
        producer = Operation.create("test.p", [], [i32])
        consumer = Operation.create("test.c", [producer.result()], [i32])
        inner = Block()
        inner.append(producer)
        inner.append(consumer)
        outer = Operation.create("test.wrap", [], [], regions=[Region([inner])])
        block.append(outer)

        clone = outer.clone()
        cloned_ops = clone.regions[0].entry_block.ops
        assert cloned_ops[1].operand(0) is cloned_ops[0].result()
        # Original untouched.
        assert consumer.operand(0) is producer.result()

    def test_clone_keeps_external_operands(self):
        external = Operation.create("test.p", [], [i32])
        user = Operation.create("test.c", [external.result()], [])
        clone = user.clone()
        assert clone.operand(0) is external.result()
        assert external.result().num_uses == 2

    def test_clone_with_value_map(self):
        old = Operation.create("test.p", [], [i32])
        new = Operation.create("test.p", [], [i32])
        user = Operation.create("test.c", [old.result()], [])
        clone = user.clone({old.result(): new.result()})
        assert clone.operand(0) is new.result()

    def test_clone_copies_attributes(self):
        op = Operation.create("test.x", attributes={"k": 3})
        clone = op.clone()
        assert clone.get_attr("k") == 3
        clone.set_attr("k", 4)
        assert op.get_attr("k") == 3

    def test_clone_keeps_classes_name_hints_and_labels(self):
        block = Block(arg_types=[i32], label="entry")
        block.arguments[0].name_hint = "x"
        produced = block.append(Operation.create("arith.constant", [], [i32]))
        produced.result().name_hint = "kernel"
        outer = Operation.create("equeue.launch", regions=[Region([block])])
        clone = outer.clone()
        assert type(clone) is type(outer) is lookup_op_class("equeue.launch")
        assert clone.parent is None and clone.body.parent.parent is clone
        assert clone.body.label == "entry"
        assert clone.body.arguments[0].name_hint == "x"
        assert clone.body.arguments[0].owner is clone.body
        copied = clone.body.ops[0]
        assert type(copied) is type(produced) and copied.parent is clone.body
        assert copied.result().name_hint == "kernel"
        assert copied.result().owner is copied
        assert print_op(clone) == print_op(outer)

    @pytest.mark.parametrize(
        "build", [pytest.param(b, id=n) for n, b in _named_modules()]
    )
    def test_a_clone_prints_as_its_original(self, build):
        module = build()
        clone = module.clone()
        assert print_op(clone) == print_op(module)
        verify(clone)
        verify_value_integrity(clone)
        verify_value_integrity(module)  # and took no use of the original's

    def test_a_cloned_module_simulates_to_the_same_buffers_by_name(self):
        """``equeue.alloc`` names its buffer after its result's hint: a
        clone that dropped hints had no ``sram_buf`` to hand inputs to."""
        from repro.sim import simulate

        toy, = [p for p in PROGRAMS if p.name == "toy_accelerator.mlir"]
        module = parse_module(toy.read_text())
        inputs = {"sram_buf": np.array([1, 2, 3, 4], np.int32)}
        original = simulate(module, inputs=inputs)
        cloned = simulate(module.clone(), inputs=inputs)
        assert cloned.cycles == original.cycles
        assert sorted(cloned.buffers) == sorted(original.buffers)
        for name in original.buffers:
            assert (cloned.buffer(name) == original.buffer(name)).all(), name
        assert cloned.buffer("buf0").tolist() == [2, 6, 12, 20]


class TestWalk:
    def test_walk_preorder(self):
        inner_block = Block()
        inner_block.append(Operation.create("test.leaf"))
        outer = Operation.create(
            "test.wrap", [], [], regions=[Region([inner_block])]
        )
        names = [op.name for op in outer.walk()]
        assert names == ["test.wrap", "test.leaf"]

    def test_parent_op(self):
        inner_block = Block()
        leaf = Operation.create("test.leaf")
        inner_block.append(leaf)
        outer = Operation.create(
            "test.wrap", [], [], regions=[Region([inner_block])]
        )
        assert leaf.parent_op is outer
        assert outer.parent_op is None
