"""Shared fixtures and reference implementations for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import repro.dialects  # noqa: F401  (register all dialects)


def conv2d_reference(ifmap: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Direct convolution: the functional ground truth."""
    n, c, fh, fw = weights.shape
    _, h, w = ifmap.shape
    eh, ew = h - fh + 1, w - fw + 1
    out = np.zeros((n, eh, ew), dtype=ifmap.dtype)
    for filt in range(n):
        for y in range(eh):
            for x in range(ew):
                out[filt, y, x] = np.sum(
                    ifmap[:, y : y + fh, x : x + fw] * weights[filt]
                )
    return out


def observables(engine, result):
    """Everything a finished run lets a test see of the *simulated*
    machine — what every execution mode and scheduler must agree on."""
    summary = result.summary
    return {
        "cycles": result.cycles,
        "truncated": result.truncated,
        "events": summary.scheduler_events,
        "tiers": (
            summary.microtask_events,
            summary.wheel_events,
            summary.heap_events,
        ),
        "launches": summary.launches_executed,
        "buffers": {
            name: buffer.array.tolist()
            for name, buffer in sorted(result.buffers.items())
        },
        "processors": [
            (p.name, p.busy_cycles, p.executed_events)
            for p in engine.processors
        ],
        "memories": [
            (
                m.name, m.bytes_read, m.bytes_written, m.reads, m.writes,
                m.queue.total_busy_cycles if m.queue is not None else None,
            )
            for m in engine.memories
        ],
        "connections": [
            (
                c.name, c.bytes_read, c.bytes_written, c.transfers,
                c.read_queue.total_busy_cycles,
                c.write_queue.total_busy_cycles,
            )
            for c in engine.connections
        ],
    }


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def module_and_builder():
    from repro import ir

    module = ir.create_module()
    builder = ir.Builder(ir.InsertionPoint.at_end(module.body))
    return module, builder


@pytest.fixture
def tier_up_at(monkeypatch):
    """``tier_up_at(n)`` sets how many executions a block replays before
    ``mode=codegen`` generates its body — a module constant, not an
    option, so tests that need generated code on a small program (or
    none on a big one) patch it."""
    from repro.sim import plan

    def set_threshold(executions: int) -> None:
        monkeypatch.setattr(plan, "TIER_UP_EXECUTIONS", executions)

    return set_threshold
