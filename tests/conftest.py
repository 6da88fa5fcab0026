"""Shared fixtures and reference implementations for the test suite."""

from __future__ import annotations

from contextlib import ExitStack

import numpy as np
import pytest

import repro.dialects  # noqa: F401  (register all dialects)

# The differential harness asserts; its failures read like a test's.
pytest.register_assert_rewrite("tests.differential")


def pytest_configure(config):
    from tests.idle import IdleClock

    config.pluginmanager.register(IdleClock(), "idle-clock")


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
def tier_up_at():
    """``tier_up_at(n)`` sets how many executions a block replays before
    ``mode=codegen`` generates its body — a module constant, not an
    option, so tests that need generated code on a small program (or
    none on a big one) patch it, for the rest of the test."""
    from tests.differential import tier_up

    with ExitStack() as patches:
        yield lambda executions: patches.enter_context(tier_up(executions))
