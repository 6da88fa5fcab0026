"""Tests for the pass manager, pipeline parsing, and rewrite infra."""

import pytest

from repro import ir
from repro.dialects import arith
from repro.ir import PassError
from repro.passes import (
    Pass,
    PassManager,
    RewritePattern,
    apply_patterns,
    lookup_pass,
    parse_pipeline,
)


class TestPipelineParsing:
    def test_simple_names(self):
        assert parse_pipeline("a,b,c") == [("a", {}), ("b", {}), ("c", {})]

    def test_options(self):
        parsed = parse_pipeline("allocate-buffer{memory=sram, n=4, flag=true}")
        assert parsed == [
            ("allocate-buffer", {"memory": "sram", "n": 4, "flag": True})
        ]

    def test_mixed(self):
        parsed = parse_pipeline("x,y{k=v},z")
        assert [name for name, _ in parsed] == ["x", "y", "z"]

    def test_malformed_option(self):
        with pytest.raises(PassError, match="option"):
            parse_pipeline("x{oops}")

    def test_malformed_pipeline(self):
        with pytest.raises(PassError):
            parse_pipeline("x y")


class TestRegistry:
    def test_lookup_unknown(self):
        with pytest.raises(PassError, match="unknown pass"):
            lookup_pass("fold-everything")

    def test_require_option(self):
        cls = lookup_pass("allocate-buffer")
        instance = cls()
        with pytest.raises(PassError, match="requires option"):
            instance.require_option("memory")


class TestPassManagerExecution:
    def test_verifies_after_each_pass(self, module_and_builder):
        module, builder = module_and_builder
        arith.constant(builder, 1, ir.i32)

        class BreakerPass(Pass):
            pass_name = "test-breaker"

            def run(self, target):
                # Introduce a use-before-def: consume the constant from an
                # op inserted before it.
                from repro.ir import Operation

                use = Operation.create(
                    "test.use", [target.body.ops[0].result()], []
                )
                target.body.insert(0, use)

        manager = PassManager()
        # Not registered: every registered pass has a PASS_CONTRACTS row.
        manager.add(BreakerPass)
        with pytest.raises(PassError, match="verification failed"):
            manager.run(module)


class TestRewriteInfra:
    def test_apply_to_fixpoint(self, module_and_builder):
        module, builder = module_and_builder
        for _ in range(3):
            builder.create("test.old", [], [])

        class Renamer(RewritePattern):
            root_name = "test.old"

            def match_and_rewrite(self, op, rewriter):
                rewriter.builder_before(op).create("test.new", [], [])
                rewriter.erase_op(op)
                return True

        assert apply_patterns(module, [Renamer()])
        names = [op.name for op in module.body.ops]
        assert names == ["test.new"] * 3
        # Second application: nothing to do.
        assert not apply_patterns(module, [Renamer()])

    def test_nonconverging_pattern_detected(self, module_and_builder):
        module, builder = module_and_builder
        builder.create("test.spin", [], [])

        class Spinner(RewritePattern):
            root_name = "test.spin"

            def match_and_rewrite(self, op, rewriter):
                rewriter.builder_before(op).create("test.spin", [], [])
                rewriter.erase_op(op)
                return True

        with pytest.raises(PassError, match="converge"):
            apply_patterns(module, [Spinner()], max_iterations=5)

    def test_replace_op(self, module_and_builder):
        module, builder = module_and_builder
        a = arith.constant(builder, 1, ir.i32)
        add = builder.create("arith.addi", [a, a], [ir.i32])
        user = builder.create("test.use", [add.result()], [])

        class FoldAdd(RewritePattern):
            root_name = "arith.addi"

            def match_and_rewrite(self, op, rewriter):
                rewriter.replace_op(op, [op.operand(0)])
                return True

        apply_patterns(module, [FoldAdd()])
        assert user.operand(0) is a
