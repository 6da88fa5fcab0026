"""Fig. 9: EQueue DES vs SCALE-Sim on a 4x4 WS systolic array.

(a) cycles vs ifmap size (fixed 2x2x3 weights, N=1)
(b) average SRAM ofmap write bandwidth vs ifmap size
(c) cycles vs weight size (fixed larger ifmap, C=3)
(d) average SRAM ofmap write bandwidth vs weight size

The paper's claim reproduced here: the general EQueue simulation matches
the dedicated SCALE-Sim model point-for-point.
"""

import functools

import numpy as np
import pytest

from repro.baselines import ScaleSimConfig, run_scalesim
from repro.dialects.linalg import ConvDims
from repro.generators.systolic import SystolicConfig, build_systolic_program
from repro.sim import simulate
from repro.analysis.dse import evaluate_point
from repro.sim.batch import SweepRunner

from conftest import FULL_SWEEP, SWEEP_JOBS, conv_inputs, emit

IFMAP_SIZES = [2, 4, 8, 16, 32] if FULL_SWEEP else [2, 4, 8, 16]
WEIGHT_SIZES = [2, 4, 8, 16] if FULL_SWEEP else [2, 4, 8]
FIXED_IFMAP = 32 if FULL_SWEEP else 16
INPUT_SEED = 7


def _series(dims_list, labels):
    """DES-vs-SCALE-Sim rows for a list of conv dims, with the DES points
    dispatched through the batch runner (parallel across sizes)."""
    configs = [SystolicConfig("WS", 4, 4, dims) for dims in dims_list]
    runner = SweepRunner(jobs=SWEEP_JOBS)
    measured = runner.map(
        functools.partial(
            evaluate_point, use_des=True, seed=INPUT_SEED, compile_cache=True
        ),
        configs,
    )
    rows = []
    for label, dims, point in zip(labels, dims_list, measured):
        scalesim = run_scalesim(ScaleSimConfig("WS", 4, 4, dims))
        rows.append(
            (
                label,
                point.cycles,
                scalesim.cycles,
                point.peak_write_bw_x_portion,
                scalesim.avg_ofmap_write_bw,
            )
        )
    return rows


def _ifmap_series():
    dims_list = [
        ConvDims(n=1, c=3, h=size, w=size, fh=2, fw=2)
        for size in IFMAP_SIZES
    ]
    return _series(dims_list, IFMAP_SIZES)


def _weight_series():
    dims_list = [
        ConvDims(n=1, c=3, h=FIXED_IFMAP, w=FIXED_IFMAP, fh=filt, fw=filt)
        for filt in WEIGHT_SIZES
    ]
    return _series(dims_list, WEIGHT_SIZES)


def test_fig9a_b(benchmark):
    """Vary ifmap: cycles (9a) and ofmap write bandwidth (9b)."""
    rows = benchmark.pedantic(_ifmap_series, rounds=1, iterations=1)
    lines = [
        f"{'ifmap':>6} {'EQueue cyc':>11} {'SCALE-Sim cyc':>14} "
        f"{'EQueue BW':>10} {'SCALE-Sim BW':>13}"
    ]
    for size, cycles, ss_cycles, bw, ss_bw in rows:
        lines.append(
            f"{size:>4}x{size:<2} {cycles:>10} {ss_cycles:>14} "
            f"{bw:>10.3f} {ss_bw:>13.3f}"
        )
        assert cycles == ss_cycles, "EQueue must match SCALE-Sim (Fig. 9a)"
        assert bw == pytest.approx(ss_bw), "BW must match (Fig. 9b)"
    emit("fig09ab_ifmap_sweep", lines)


def test_fig9c_d(benchmark):
    """Vary weights: cycles (9c) and ofmap write bandwidth (9d)."""
    rows = benchmark.pedantic(_weight_series, rounds=1, iterations=1)
    lines = [
        f"{'weight':>7} {'EQueue cyc':>11} {'SCALE-Sim cyc':>14} "
        f"{'EQueue BW':>10} {'SCALE-Sim BW':>13}"
    ]
    for filt, cycles, ss_cycles, bw, ss_bw in rows:
        lines.append(
            f"{filt:>4}x{filt:<2} {cycles:>10} {ss_cycles:>14} "
            f"{bw:>10.3f} {ss_bw:>13.3f}"
        )
        assert cycles == ss_cycles, "EQueue must match SCALE-Sim (Fig. 9c)"
        assert bw == pytest.approx(ss_bw), "BW must match (Fig. 9d)"
    emit("fig09cd_weight_sweep", lines)


def test_fig9_largest_point_simulation(benchmark, rng):
    """Benchmark the single most expensive Fig. 9 DES run (engine cost)."""
    size = IFMAP_SIZES[-1]
    dims = ConvDims(n=1, c=3, h=size, w=size, fh=2, fw=2)
    cfg = SystolicConfig("WS", 4, 4, dims)
    program = build_systolic_program(cfg)
    ifmap, weights = conv_inputs(dims, rng)
    inputs = program.prepare_inputs(ifmap, weights)

    def run():
        return simulate(program.module, inputs=inputs).cycles

    cycles = benchmark.pedantic(run, rounds=1, iterations=1)
    assert cycles == cfg.expected_cycles


np  # noqa: B018
