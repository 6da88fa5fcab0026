"""Shared helpers for the engine, ablation, scenario and service benches.

Every bench prints its rows and also writes them to ``benchmarks/out/``
so the data survives pytest's output capture.  Set
``EQUEUE_FULL_SWEEP=1`` to run ``bench_engine_speed.py`` at the paper's
32x32 size (slower).  The paper's figures are not benches: they are the
exact table of ``tests/integration/test_paper_figures.py``.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import repro.dialects  # noqa: F401

OUT_DIR = Path(__file__).parent / "out"

FULL_SWEEP = bool(int(os.environ.get("EQUEUE_FULL_SWEEP", "0")))


def emit(name: str, lines) -> None:
    """Print a bench's rows and persist them under benchmarks/out/."""
    OUT_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines)
    print(f"\n=== {name} ===")
    print(text)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def conv_inputs(dims, rng):
    from repro.sim.batch import sample_conv_inputs

    return sample_conv_inputs(dims, rng)
