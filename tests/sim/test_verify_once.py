"""One verify per module state: ``verify`` stamps a module with the
number of the process's latest IR mutation, and ``simulate`` walks only
a module whose stamp is stale.

The fence below holds every mutation API to that contract: each one
breaks a verified module, and the broken module must still be caught
by ``simulate``.  An API that forgot to number itself would let the
engine trust the stale stamp and run the broken module.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import ir
from repro.dialects import affine, arith
from repro.dialects.arith import ConstantOp
from repro.ir import Block, Operation, VerificationError, parse_module, verify
from repro.ir import values
from repro.ir.verifier import verified
from repro.obs import spans as obs_spans
from repro.sim import EngineOptions, simulate

TOY = Path(__file__).resolve().parents[2] / "examples" / "programs" / (
    "toy_accelerator.mlir"
)


@contextmanager
def engine_verify_spans():
    """Count the engine's ``engine.verify`` spans inside the block."""
    recorder = obs_spans.enable_spans()
    counted = []
    try:
        yield counted
    finally:
        counted.append(
            sum(event["name"] == "engine.verify" for event in recorder.to_events())
        )
        obs_spans.disable_spans()


def _fence():
    """``%a``, ``%c``, an ``affine.for`` whose body adds them, ``%late``
    after the loop — verified."""
    module = ir.create_module()
    builder = ir.Builder(ir.InsertionPoint.at_end(module.body))
    a = arith.constant(builder, 1, ir.index)
    c = arith.constant(builder, 2, ir.index)
    loop = affine.for_loop(
        builder, 0, 4, body=lambda inner, iv: arith.addi(inner, a, c)
    )
    late = arith.constant(builder, 3, ir.index)
    verify(module)
    assert verified(module)
    body = loop.body
    return SimpleNamespace(
        module=module, a=a, c=c, loop=loop, body=body, add=body.ops[0], late=late
    )


def _yield() -> Operation:
    return Operation.create("affine.yield")


def _constant() -> Operation:
    return Operation.create(
        "arith.constant", result_types=[ir.index], attributes={"value": 0}
    )


#: One way to break the fence module through each mutation API.
BREAKS = {
    "Block.append": lambda f: f.body.append(_constant()),  # after the yield
    "Block.insert": lambda f: f.body.insert(0, _yield()),
    "Block.insert_before": lambda f: f.body.insert_before(f.add, _yield()),
    "Block.insert_after": lambda f: f.body.insert_after(f.add, _yield()),
    "Block.remove": lambda f: f.module.body.remove(f.a.owner),  # %a still used
    "Block.add_argument": lambda f: f.body.add_argument(ir.index),
    "Block.erase_argument": lambda f: f.body.erase_argument(0),
    "Region.append": lambda f: f.loop.regions[0].append(Block()),
    "Region.insert": lambda f: f.loop.regions[0].insert(0, Block()),
    "Region.remove": lambda f: f.loop.regions[0].remove(f.body),
    "OpOperand.set": lambda f: f.add.operands[0].set(f.late),
    "Operation.set_operand": lambda f: f.add.set_operand(1, f.late),
    "Operation.insert_operand": lambda f: f.add.insert_operand(0, f.a),
    "Operation.append_operand": lambda f: f.add.append_operand(f.a),
    "Operation.erase_operand": lambda f: f.add.erase_operand(0),
    "Value.replace_all_uses_with": lambda f: f.a.replace_all_uses_with(f.late),
    "Operation.replace_all_uses_with": lambda f: (
        f.c.owner.replace_all_uses_with([f.late])
    ),
    "Operation.set_attr": lambda f: f.loop.set_attr("step", 0),
    "Operation.erase": lambda f: f.body.terminator.erase(),
    "Operation.drop_all_references": lambda f: f.add.drop_all_references(),
}


@pytest.mark.parametrize("api", sorted(BREAKS))
def test_every_mutation_api_makes_the_stamp_stale(api):
    fence = _fence()
    BREAKS[api](fence)
    assert not verified(fence.module)
    with pytest.raises(VerificationError):
        simulate(fence.module, EngineOptions(mode="interpret"))


def test_a_verified_unmutated_module_is_walked_once():
    module = parse_module(TOY.read_text())
    verify(module)
    with engine_verify_spans() as walks:
        first = simulate(module)
        again = simulate(module)  # a run mutates no IR
    assert walks == [0]
    assert first.cycles == again.cycles == 5


def test_a_module_nobody_verified_is_walked_by_the_engine():
    module = parse_module(TOY.read_text())
    assert not verified(module)
    with engine_verify_spans() as walks:
        simulate(module)
        simulate(module)
    assert walks == [1]


def test_any_mutation_in_the_process_makes_the_stamp_stale():
    """The number is process-wide: an edit of another module counts
    too (a spare walk, never a missed one)."""
    module = parse_module(TOY.read_text())
    verify(module)
    _fence().loop.set_attr("step", 2)
    assert not verified(module)
    with engine_verify_spans() as walks:
        simulate(module)
    assert walks == [1]


def test_verify_module_false_trusts_the_module():
    module = parse_module(TOY.read_text())
    with engine_verify_spans() as walks:
        simulate(module, EngineOptions(verify_module=False))
    assert walks == [0]
    assert not verified(module)


def test_a_mutation_during_the_walk_leaves_the_stamp_stale(monkeypatch):
    fence = _fence()
    check = ConstantOp.verify_op

    def mutating_check(op):
        check(op)
        if op.result().uses:
            fence.loop.set_attr("step", 2)  # still valid, but an edit

    monkeypatch.setattr(ConstantOp, "verify_op", mutating_check)
    verify(fence.module)
    assert not verified(fence.module)
    monkeypatch.undo()
    with engine_verify_spans() as walks:
        simulate(fence.module, EngineOptions(mode="interpret"))
    assert walks == [1]
    assert verified(fence.module)  # the engine's walk stamped it


def test_no_thread_publishes_a_stamp_again():
    """Threads share the number without a lock: once a mutation has
    published after a stamp was read, the stamp never matches again,
    however the threads interleave."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    matched, done = [], []

    def edit(loop):
        for step in range(1, 2001):
            stamp = values.mutations
            loop.set_attr("step", step)
            if values.mutations == stamp:
                matched.append(stamp)
        done.append(loop)

    threads = [
        threading.Thread(target=edit, args=(_fence().loop,)) for _ in range(8)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert len(done) == len(threads)
    assert matched == []
