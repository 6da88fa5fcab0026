"""The reusable EQueue lowering passes (§V of the paper).

All ten passes are implemented; like the paper's versions they are
*parameterized* transformations ("splits the specified launch block at the
specified place"), taking component/buffer names or positions as options.

Shared conventions:

* Components and buffers are identified by the ``name_hint`` of the SSA
  value that created them (``%sram = equeue.create_mem ...`` → ``"sram"``).
* Launches are identified by their ``label`` attribute.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from ..dialects.equeue import types as eqt
from ..ir.block import Block
from ..ir.builder import Builder, InsertionPoint
from ..ir.diagnostics import PassError
from ..ir.module import ModuleOp
from ..ir.operation import Operation
from ..ir.region import Region
from ..ir.values import BlockArgument, OpResult, Value
from .manager import Pass, register_pass
from .rewrite import PatternRewriter, RewritePattern, apply_patterns

# ---------------------------------------------------------------------------
# Lookup helpers
# ---------------------------------------------------------------------------


def find_value(module: ModuleOp, hint: str, op_names: Sequence[str]) -> Value:
    """Find the unique op result with the given name hint among op kinds."""
    matches: List[Value] = []
    for op in module.walk():
        if op.name in op_names and op.results:
            if op.results[0].name_hint == hint:
                matches.append(op.results[0])
    if not matches:
        raise PassError(
            f"no value named {hint!r} produced by any of {list(op_names)}"
        )
    if len(matches) > 1:
        raise PassError(f"ambiguous value name {hint!r} ({len(matches)} matches)")
    return matches[0]


def find_memory(module: ModuleOp, hint: str) -> Value:
    return find_value(module, hint, ["equeue.create_mem", "equeue.get_comp"])


def find_processor(module: ModuleOp, hint: str) -> Value:
    return find_value(
        module, hint,
        ["equeue.create_proc", "equeue.create_dma", "equeue.get_comp"],
    )


def find_buffer(module: ModuleOp, hint: str) -> Value:
    return find_value(module, hint, ["equeue.alloc", "memref.alloc"])


def find_launch(module: ModuleOp, label: str) -> Operation:
    matches = [
        op
        for op in module.walk()
        if op.name == "equeue.launch" and op.get_attr("label") == label
    ]
    if not matches:
        raise PassError(f"no launch labeled {label!r}")
    if len(matches) > 1:
        raise PassError(f"ambiguous launch label {label!r}")
    return matches[0]


def _ops_in_subtree(roots: Sequence[Operation]) -> Set[int]:
    """ids of every op nested under (and including) the given roots."""
    ids: Set[int] = set()
    for root in roots:
        for op in root.walk():
            ids.add(id(op))
    return ids


def _collect_captures(moved: Sequence[Operation]) -> List[Value]:
    """Values used inside ``moved`` but defined outside them, in use order."""
    defined_inside: Set[int] = set()
    for root in moved:
        for op in root.walk():
            for result in op.results:
                defined_inside.add(id(result))
            for region in op.regions:
                for block in region.blocks:
                    for arg in block.arguments:
                        defined_inside.add(id(arg))
    captures: List[Value] = []
    seen: Set[int] = set()
    for root in moved:
        for op in root.walk():
            for operand in op.operands:
                value = operand.value
                if id(value) in defined_inside or id(value) in seen:
                    continue
                seen.add(id(value))
                captures.append(value)
    return captures


def _retarget_uses(value: Value, replacement: Value, inside: Set[int]) -> None:
    """Rewire uses of ``value`` whose owner op is within ``inside``."""
    for use in list(value.uses):
        if id(use.owner) in inside:
            use.set(replacement)


# ---------------------------------------------------------------------------
# 1. EQueue Read/Write pass
# ---------------------------------------------------------------------------


class _LoadToRead(RewritePattern):
    root_name = "affine.load"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        builder = rewriter.builder_before(op)
        read = builder.create(
            "equeue.read",
            list(op.operand_values),
            [op.result().type],
            {"connected": False},
        )
        rewriter.replace_op(op, [read.result()])
        return True


class _StoreToWrite(RewritePattern):
    root_name = "affine.store"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        builder = rewriter.builder_before(op)
        builder.create(
            "equeue.write", list(op.operand_values), [], {"connected": False}
        )
        rewriter.erase_op(op)
        return True


@register_pass
class EqueueReadWritePass(Pass):
    """§V.1: translate affine ``load``/``store`` to EQueue ``read``/``write``."""

    pass_name = "equeue-read-write"

    def run(self, module: ModuleOp) -> None:
        apply_patterns(module, [_LoadToRead(), _StoreToWrite()])


# ---------------------------------------------------------------------------
# 2. Allocate Memory pass
# ---------------------------------------------------------------------------


@register_pass
class AllocateBufferPass(Pass):
    """§V.2: place ``memref.alloc`` buffers on an EQueue memory component.

    Options: ``memory`` (name hint, required); ``prefix`` to restrict which
    buffers move (by their name hint).
    """

    pass_name = "allocate-buffer"

    def run(self, module: ModuleOp) -> None:
        memory = find_memory(module, self.require_option("memory"))
        prefix = self.option("prefix", "")
        for op in list(module.walk()):
            if op.name != "memref.alloc":
                continue
            hint = op.result().name_hint or ""
            if prefix and not hint.startswith(prefix):
                continue
            builder = Builder(InsertionPoint.before(op))
            new_alloc = builder.create(
                "equeue.alloc", [memory], [op.result().type]
            )
            new_alloc.result().name_hint = hint or None
            op.replace_all_uses_with([new_alloc.result()])
            op.erase()


# ---------------------------------------------------------------------------
# 3. Launch pass
# ---------------------------------------------------------------------------

_TOP_LEVEL_KEEP = frozenset(
    {
        "equeue.create_proc", "equeue.create_mem", "equeue.create_dma",
        "equeue.create_comp", "equeue.add_comp", "equeue.get_comp",
        "equeue.create_connection", "equeue.alloc", "memref.alloc",
        "arith.constant", "equeue.control_start", "equeue.launch",
        "equeue.memcpy", "equeue.await", "equeue.control_and",
        "equeue.control_or", "equeue.dealloc",
    }
)


@register_pass
class LaunchPass(Pass):
    """§V.3: wrap top-level computation in an ``equeue.launch``.

    Outlines every top-level op that is not structure/allocation/control
    into a single launch on the processor named by the ``proc`` option.
    Values defined outside are passed as explicit captures (the launch is
    isolated-from-above).  Adds ``control_start`` before and ``await``
    after.  Option ``label`` names the launch.
    """

    pass_name = "launch"

    def run(self, module: ModuleOp) -> None:
        proc = find_processor(module, self.require_option("proc"))
        label = self.option("label", "launch")
        body_ops = [
            op for op in module.body.ops if op.name not in _TOP_LEVEL_KEEP
        ]
        if not body_ops:
            raise PassError("launch pass found no top-level computation to wrap")
        outline_ops(body_ops, proc, label=label)


def outline_ops(
    body_ops: Sequence[Operation],
    proc: Value,
    dep: Optional[Value] = None,
    label: str = "launch",
) -> Operation:
    """Outline ``body_ops`` (same block, in order) into an equeue.launch."""
    parent_block = body_ops[0].parent
    anchor_index = parent_block.index_of(body_ops[0])
    captures = _collect_captures(body_ops)
    inside = _ops_in_subtree(body_ops)

    block = Block(arg_types=[v.type for v in captures])
    for value, arg in zip(captures, block.arguments):
        arg.name_hint = value.name_hint
        _retarget_uses(value, arg, inside)
    for op in body_ops:
        op.detach()
        block.append(op)
    Builder(InsertionPoint.at_end(block)).create("equeue.return_values", [], [])

    builder = Builder(InsertionPoint(parent_block, anchor_index))
    if dep is None:
        dep = builder.create("equeue.control_start", [], [eqt.event]).result()
    launch = builder.create(
        "equeue.launch",
        [dep, proc, *captures],
        [eqt.event],
        {"label": label},
        [Region([block])],
    )
    builder.create("equeue.await", [launch.result(0)], [])
    return launch


# ---------------------------------------------------------------------------
# 4. Memcpy pass
# ---------------------------------------------------------------------------


@register_pass
class MemcpyPass(Pass):
    """§V.4: insert a ``memcpy`` for given source/destination buffers.

    Options: ``src``, ``dst``, ``dma`` (name hints, required); ``chain``
    (default true) rewires the first launch that captures ``dst`` to also
    depend on the copy.
    """

    pass_name = "memcpy"

    def run(self, module: ModuleOp) -> None:
        source = find_buffer(module, self.require_option("src"))
        destination = find_buffer(module, self.require_option("dst"))
        dma = find_processor(module, self.require_option("dma"))
        chain = self.option("chain", True)

        target_launch = None
        if chain:
            for op in module.body.ops:
                if op.name == "equeue.launch" and destination in op.captured:
                    target_launch = op
                    break
        anchor = target_launch or _first_control_op(module)
        builder = Builder(InsertionPoint.before(anchor))
        start = builder.create("equeue.control_start", [], [eqt.event]).result()
        copy_done = builder.create(
            "equeue.memcpy",
            [start, source, destination, dma],
            [eqt.event],
            {"connected": False, "label": f"memcpy_{self.option('dst')}"},
        ).result()
        if target_launch is not None:
            old_dep = target_launch.operand(0)
            joined = builder.create(
                "equeue.control_and", [old_dep, copy_done], [eqt.event]
            ).result()
            target_launch.set_operand(0, joined)


def _first_control_op(module: ModuleOp) -> Operation:
    for op in module.body.ops:
        if op.name in ("equeue.control_start", "equeue.launch", "equeue.await"):
            return op
    return module.body.ops[-1]


# ---------------------------------------------------------------------------
# 5. Memcpy-to-Launch pass
# ---------------------------------------------------------------------------


class _MemcpyToLaunch(RewritePattern):
    root_name = "equeue.memcpy"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        from ..ir.types import TensorType

        dep, source, destination, dma = op.operand_values[:4]
        conn = op.operand_values[4] if op.get_attr("connected", False) else None
        block = Block(arg_types=[source.type, destination.type])
        body = Builder(InsertionPoint.at_end(block))
        src_arg, dst_arg = block.arguments
        tensor_type = TensorType(source.type.shape, source.type.element_type)
        read_operands = [src_arg]
        read = body.create(
            "equeue.read", read_operands, [tensor_type], {"connected": False}
        )
        write_operands = [read.result(), dst_arg] + ([conn] if conn else [])
        # Connection operands come from outside; capture them too.
        if conn is not None:
            conn_arg = block.add_argument(conn.type)
            write_operands[2] = conn_arg
        body.create(
            "equeue.write", write_operands, [], {"connected": conn is not None}
        )
        body.create("equeue.return_values", [], [])
        builder = rewriter.builder_before(op)
        captured = [source, destination] + ([conn] if conn is not None else [])
        launch = builder.create(
            "equeue.launch",
            [dep, dma, *captured],
            [eqt.event],
            {"label": op.get_attr("label", "memcpy_launch")},
            [Region([block])],
        )
        rewriter.replace_op(op, [launch.result(0)])
        return True


@register_pass
class MemcpyToLaunchPass(Pass):
    """§V.5: expand ``memcpy`` into an equivalent ``launch`` of read+write."""

    pass_name = "memcpy-to-launch"

    def run(self, module: ModuleOp) -> None:
        apply_patterns(module, [_MemcpyToLaunch()])


# ---------------------------------------------------------------------------
# 6. Split Launch pass
# ---------------------------------------------------------------------------


@register_pass
class SplitLaunchPass(Pass):
    """§V.6: split a launch block in two at a given op index.

    Options: ``launch`` (label, required), ``at`` (op index in the body,
    required).  Values flowing across the split become return values of the
    first launch and captures of the second; the second launch depends on
    the first's completion event.
    """

    pass_name = "split-launch"

    def run(self, module: ModuleOp) -> None:
        launch = find_launch(module, self.require_option("launch"))
        at = int(self.require_option("at"))
        split_launch(launch, at)


def split_launch(launch: Operation, at: int) -> tuple:
    """Split ``launch`` body before op index ``at``; returns (first, second)."""
    body = launch.regions[0].entry_block
    ops = body.ops
    terminator = ops[-1]
    if not 0 < at < len(ops) - 0:
        raise PassError(f"split index {at} out of range (body has {len(ops)} ops)")
    first_ops = ops[:at]
    second_ops = [op for op in ops[at:] if op is not terminator]

    # Values produced in the first half (or block args) used by the second.
    second_ids = _ops_in_subtree(second_ops + [terminator])
    crossing: List[Value] = []
    seen: Set[int] = set()

    def note_crossing(value: Value) -> None:
        if id(value) in seen:
            return
        for use in value.uses:
            if id(use.owner) in second_ids:
                seen.add(id(value))
                crossing.append(value)
                return

    for arg in body.arguments:
        note_crossing(arg)
    for op in first_ops:
        for result in op.results:
            note_crossing(result)

    parent_builder = Builder(InsertionPoint.before(launch))

    # First launch: first_ops, returning the crossing values.
    first_block = Block(arg_types=[a.type for a in body.arguments])
    first_map: Dict[int, Value] = {}
    for old, new in zip(body.arguments, first_block.arguments):
        new.name_hint = old.name_hint
        first_map[id(old)] = new
    first_inside = _ops_in_subtree(first_ops)
    for old, new in zip(body.arguments, first_block.arguments):
        _retarget_uses(old, new, first_inside)
    for op in first_ops:
        op.detach()
        first_block.append(op)
    Builder(InsertionPoint.at_end(first_block)).create(
        "equeue.return_values",
        [first_map.get(id(v), v) for v in crossing],
        [],
    )
    label = launch.get_attr("label", "launch")
    first = parent_builder.create(
        "equeue.launch",
        list(launch.operand_values),
        [eqt.event] + [v.type for v in crossing],
        {"label": f"{label}_0"},
        [Region([first_block])],
    )

    # Second launch: depends on first.done; captures crossing values (as
    # futures) plus the original captures still used in the second half.
    residual_captures = [
        value
        for value in launch.operand_values[2:]
        if any(id(use.owner) in second_ids for use in _arg_uses(launch, value))
    ]
    second_captured_values = list(crossing) + residual_captures
    second_block = Block()
    second_inside = _ops_in_subtree(second_ops + [terminator])
    capture_operands: List[Value] = []
    for value in crossing:
        arg = second_block.add_argument(value.type, value.name_hint)
        _retarget_uses(value, arg, second_inside)
        capture_operands.append(_forwarded_result(first, crossing, value))
    for outer in residual_captures:
        inner = _arg_for_capture(launch, outer)
        arg = second_block.add_argument(inner.type, inner.name_hint)
        _retarget_uses(inner, arg, second_inside)
        capture_operands.append(outer)
    for op in second_ops:
        op.detach()
        second_block.append(op)
    return_values = list(terminator.operand_values)
    terminator.detach()
    terminator.drop_all_references()
    Builder(InsertionPoint.at_end(second_block)).create(
        "equeue.return_values",
        [_remap_into(second_block, crossing, residual_captures, launch, v)
         for v in return_values],
        [],
    )
    second = parent_builder.create(
        "equeue.launch",
        [first.result(0), launch.operand(1), *capture_operands],
        [r.type for r in launch.results],
        {"label": f"{label}_1"},
        [Region([second_block])],
    )
    launch.replace_all_uses_with(list(second.results))
    launch.erase()
    del second_captured_values
    return first, second


def _arg_uses(launch: Operation, outer: Value):
    """Uses of the block argument corresponding to an outer capture."""
    inner = _arg_for_capture(launch, outer)
    return list(inner.uses)


def _arg_for_capture(launch: Operation, outer: Value) -> BlockArgument:
    index = None
    for i, value in enumerate(launch.operand_values[2:]):
        if value is outer:
            index = i
            break
    if index is None:
        raise PassError("capture not found on launch")
    return launch.regions[0].entry_block.arguments[index]


def _forwarded_result(first: Operation, crossing: List[Value], value: Value) -> Value:
    return first.results[1 + crossing.index(value)]


def _remap_into(block, crossing, residual, launch, value: Value) -> Value:
    if value in crossing:
        return block.arguments[crossing.index(value)]
    for i, outer in enumerate(residual):
        if _arg_for_capture(launch, outer) is value:
            return block.arguments[len(crossing) + i]
    return value


# ---------------------------------------------------------------------------
# 7. Merge Memcpy-Launch pass
# ---------------------------------------------------------------------------


@register_pass
class MergeMemcpyLaunchPass(Pass):
    """§V.7: fold a ``memcpy`` into the launch that depends on it.

    Option ``launch`` (label, required).  Any memcpy whose completion event
    gates the launch (directly or through one ``control_and``) is replaced
    by a read+write prologue inside the launch body, avoiding a separate
    event round-trip when the launch accesses the same buffer.
    """

    pass_name = "merge-memcpy-launch"

    def run(self, module: ModuleOp) -> None:
        from ..ir.types import TensorType

        launch = find_launch(module, self.require_option("launch"))
        dep = launch.operand(0)
        memcpys = self._gating_memcpys(dep)
        if not memcpys:
            raise PassError("no memcpy gates the given launch")
        block = launch.regions[0].entry_block
        for memcpy in memcpys:
            source, destination = memcpy.operand_values[1:3]
            new_args = []
            for outer in (source, destination):
                if outer in launch.operand_values[2:]:
                    new_args.append(_arg_for_capture(launch, outer))
                else:
                    launch.append_operand(outer)
                    new_args.append(block.add_argument(outer.type, outer.name_hint))
            src_arg, dst_arg = new_args
            prologue = Builder(InsertionPoint.at_begin(block))
            tensor_type = TensorType(
                src_arg.type.shape, src_arg.type.element_type
            )
            data = prologue.create(
                "equeue.read", [src_arg], [tensor_type], {"connected": False}
            )
            prologue.create(
                "equeue.write", [data.result(), dst_arg], [], {"connected": False}
            )
            # The launch now performs the copy: depend on the memcpy's dep
            # instead, and redirect other users of the memcpy event to the
            # launch's completion event.
            self._replace_dep(launch, memcpy)
            memcpy.result().replace_all_uses_with(launch.result(0))
            memcpy.erase()

    @staticmethod
    def _gating_memcpys(dep: Value) -> List[Operation]:
        if isinstance(dep, OpResult) and dep.owner.name == "equeue.memcpy":
            return [dep.owner]
        if isinstance(dep, OpResult) and dep.owner.name == "equeue.control_and":
            return [
                operand.owner
                for operand in dep.owner.operand_values
                if isinstance(operand, OpResult)
                and operand.owner.name == "equeue.memcpy"
            ]
        return []

    @staticmethod
    def _replace_dep(launch: Operation, memcpy: Operation) -> None:
        dep = launch.operand(0)
        if isinstance(dep, OpResult) and dep.owner is memcpy:
            launch.set_operand(0, memcpy.operand(0))
            return
        # dep is a control_and containing the memcpy's event.
        joiner = dep.owner
        for operand in joiner.operands:
            if operand.value is memcpy.result():
                operand.set(memcpy.operand(0))
                return


# ---------------------------------------------------------------------------
# 8. Reassign Buffer pass
# ---------------------------------------------------------------------------


@register_pass
class ReassignBufferPass(Pass):
    """§V.8: replace uses of one buffer with another.

    Options: ``from``/``source`` and ``to``/``target`` buffer name hints.
    E.g. replacing an SRAM buffer with a register buffer moves accesses
    into the PE-local register file.
    """

    pass_name = "reassign-buffer"

    def run(self, module: ModuleOp) -> None:
        source_name = self.option("source") or self.require_option("from")
        target_name = self.option("target") or self.require_option("to")
        source = find_buffer(module, source_name)
        target = find_buffer(module, target_name)
        if source.type != target.type:
            raise PassError(
                f"buffer types differ: {source.type} vs {target.type}"
            )
        source.replace_all_uses_with(target)


# ---------------------------------------------------------------------------
# 9. Parallel-to-EQueue pass
# ---------------------------------------------------------------------------


@register_pass
class ParallelToEqueuePass(Pass):
    """§V.9: convert ``affine.parallel`` into concurrent launches.

    Each iteration point is unrolled: induction variables fold to index
    constants, the body is cloned into an ``equeue.launch`` targeting the
    processor obtained from the ``comp`` component group via
    ``proc_template`` (e.g. ``"pe_{0}_{1}"``), and all launches join through
    ``control_and`` + ``await`` (the paper's ``par_for`` idiom, §VI-B.1).
    """

    pass_name = "parallel-to-equeue"

    def run(self, module: ModuleOp) -> None:
        comp = find_value(
            module, self.require_option("comp"),
            ["equeue.create_comp", "equeue.get_comp"],
        )
        template = self.require_option("proc_template")
        label = self.option("label", "par")
        for op in list(module.walk()):
            if op.name == "affine.parallel":
                self._lower(op, comp, template, label)

    def _lower(self, op, comp: Value, template: str, label: str) -> None:
        import itertools

        builder = Builder(InsertionPoint.before(op))
        start = builder.create("equeue.control_start", [], [eqt.event]).result()
        body = op.regions[0].entry_block
        dones: List[Value] = []
        spaces = [range(lb, ub, st) for lb, ub, st in op.ranges]
        for point in itertools.product(*spaces):
            proc = builder.create(
                "equeue.get_comp",
                [comp],
                [eqt.proc],
                {"name": template.format(*point)},
            ).result()
            done = self._launch_point(builder, start, proc, body, point,
                                      f"{label}_{'_'.join(map(str, point))}")
            dones.append(done)
        joined = builder.create("equeue.control_and", dones, [eqt.event]).result()
        builder.create("equeue.await", [joined], [])
        op.erase()

    def _launch_point(self, builder, start, proc, body, point, label) -> Value:
        from ..dialects import arith as arith_dialect
        from ..ir.types import IndexType

        # Clone the body with induction variables bound to constants.
        cloned_ops: List[Operation] = []
        value_map: Dict[Value, Value] = {}
        constants: List[Value] = []
        for coordinate in point:
            constants.append(
                arith_dialect.constant(builder, coordinate, IndexType())
            )
        for arg, constant in zip(body.arguments, constants):
            value_map[arg] = constant
        for op in body.ops:
            if op.name == "affine.yield":
                continue
            cloned = op.clone(value_map)
            # A hint names one value — the engine names a buffer after
            # its ``alloc``'s — and this is one copy of many.
            for copied in cloned.walk():
                for result in copied.results:
                    result.name_hint = None
            builder.insert(cloned)
            cloned_ops.append(cloned)
        launch = outline_ops(cloned_ops, proc, dep=start, label=label)
        # outline_ops appends an await; the barrier at the end supersedes it.
        waiter = launch.parent.ops[launch.parent.index_of(launch) + 1]
        if waiter.name == "equeue.await":
            waiter.erase()
        return launch.result(0)


# ---------------------------------------------------------------------------
# 10. Lower Extraction pass
# ---------------------------------------------------------------------------


class _FoldTemplatedGetComp(RewritePattern):
    root_name = "equeue.get_comp"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        template = op.get_attr("name_template")
        if template is None:
            return False
        indices: List[int] = []
        for value in op.operand_values[1:]:
            if not (
                isinstance(value, OpResult)
                and value.owner.name == "arith.constant"
            ):
                return False
            indices.append(value.owner.get_attr("value"))
        builder = rewriter.builder_before(op)
        folded = builder.create(
            "equeue.get_comp",
            [op.operand(0)],
            [op.result().type],
            {"name": template.format(*indices)},
        )
        rewriter.replace_op(op, [folded.result()])
        return True


class _FoldNestedGetComp(RewritePattern):
    """get_comp(get_comp(x, "A"), "B") → get_comp(x, "A.B")."""

    root_name = "equeue.get_comp"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        if op.get_attr("name") is None:
            return False
        base = op.operand(0)
        if not (
            isinstance(base, OpResult)
            and base.owner.name == "equeue.get_comp"
            and base.owner.get_attr("name") is not None
        ):
            return False
        outer = base.owner
        builder = rewriter.builder_before(op)
        folded = builder.create(
            "equeue.get_comp",
            [outer.operand(0)],
            [op.result().type],
            {"name": f"{outer.get_attr('name')}.{op.get_attr('name')}"},
        )
        rewriter.replace_op(op, [folded.result()])
        return True


@register_pass
class LowerExtractionPass(Pass):
    """§V.10: unroll vector-form component references.

    Folds templated ``get_comp`` ops (``name_template`` + constant indices)
    into concrete names, and flattens nested lookups into dotted paths.
    """

    pass_name = "lower-extraction"

    def run(self, module: ModuleOp) -> None:
        apply_patterns(module, [_FoldTemplatedGetComp(), _FoldNestedGetComp()])
