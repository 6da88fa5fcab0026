"""The paper's figures as one exact table.

``tests/integration/data/paper_figures.json`` holds, keyed by figure and
point, what this repository's simulations read for:

* **Fig. 9** (``fig9|<dataflow>|ifmap=HxW|weights=FhxFwxC``): cycles and
  average ofmap write bandwidth of the WS, IS and OS 4x4 systolic arrays,
  over ifmaps 2..32 with 2x2x3 weights and over 4x4x3 and 8x8x3 weights
  at 16x16 and 32x32.  The paper's claim is that the general EQueue
  simulation matches the dedicated SCALE-Sim model point for point, so
  the live :func:`~repro.baselines.run_scalesim` value must equal the
  row too.  ``run_scalesim`` is this repository's own reimplementation
  of SCALE-Sim's analytical model (the original is not available
  offline), so the table pins that model as well as the DES.
* **Fig. 11** (``fig11|H=<size>|<stage>``): cycles and SRAM / register
  read and write bandwidth for each of the four lowering stages of the
  paper's N=4, C=3, F=3 convolution on a 4x4 WS array.
* **Fig. 12** (``fig12|<dataflow>``): over the §VI-E space, evaluated by
  the analytical model, the point count, the workloads on which the
  dataflow wins on cycles, the mean ofmap write bandwidth and the
  log-log correlation of loop iterations with cycles; and
  (``fig12|des|...``) the DES subsample behind panel (a).
* **The FIR case study** (``fir|case<N>``): cycles and warm-up of the
  four AI Engine designs of §VII.

A live run must equal its row: ints exactly, floats after a JSON round
trip.  Every float is formed so that it reads the same on any machine —
an int over an int, or :func:`math.fsum` and :func:`math.log`, never a
NumPy reduction, whose SIMD paths differ by CPU.  Every DES point also
checks its functional output against the reference convolution or FIR.

What is *not* a row, and why:

* FIR case 4 against the paper (538) holds within 0.5 %, and cases 1 and
  4 against Xilinx's AIE simulator within 11 % — the paper's own
  envelope; both are comparisons with published numbers, not our own.
* The wall-clock claims (Fig. 11a: the systolic stage is the slowest to
  simulate; Fig. 12a: simulation time grows with simulated cycles) are
  orderings of host timings, with one best-of-two retry for a contention
  spike.
* The implementation-effort claim (§VI-C) is the share inequality: it
  measures this repository's own source, so an exact count would go
  stale on every edit to ``generators/systolic.py``.

Points that take over a second (Fig. 9 at 32x32 with 4x4 and 8x8
weights, Fig. 11 at H=32) are ``slow`` and run in the weekly job; the
rest run in tier 1.  Re-record the table only from a commit whose
simulated timing you trust — never to make a change pass — with::

    PYTHONPATH=src:. python tests/integration/test_paper_figures.py

which also prints it.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    best_array_shape,
    generator_loc_report,
    paper_sweep_spec,
    predicted_cycles,
    run_sweep,
)
from repro.baselines import (
    AIE_REFERENCE,
    LOC_COMPARISON,
    ScaleSimConfig,
    compare_with_aie,
    run_scalesim,
)
from repro.dialects.linalg import ConvDims
from repro.generators.fir import PAPER_CASES, build_fir_program, fir_reference
from repro.generators.pipeline import STAGES, LoweringPipeline
from repro.generators.systolic import SystolicConfig, build_systolic_program
from repro.sim import simulate
from repro.sim.batch import deterministic_conv_inputs, subsample
from tests.conftest import conv2d_reference

TABLE_PATH = Path(__file__).parent / "data" / "paper_figures.json"
DATAFLOWS = ("WS", "IS", "OS")

#: Fig. 9's (ifmap, filter) points, all with C=3 and N=1 on a 4x4 array.
FIG9_POINTS = [(size, 2) for size in (2, 4, 8, 16, 32)] + [
    (size, filt) for size in (16, 32) for filt in (4, 8)
]
FIG11_SIZES = (4, 8, 16, 32)
#: Over a second a point: the weekly job's.
SLOW_FIG9, SLOW_FIG11 = {(32, 4), (32, 8)}, {32}
#: Fig. 12a's DES subsample: :func:`run_sweep`'s sampling rule.
FIG12_DES_SAMPLE, FIG12_DES_MAX_CYCLES = 10, 2500


def fig9_config(dataflow: str, size: int, filt: int) -> SystolicConfig:
    dims = ConvDims(n=1, c=3, h=size, w=size, fh=filt, fw=filt)
    return SystolicConfig(dataflow, 4, 4, dims)


FIG9_CONFIGS = [
    fig9_config(dataflow, size, filt)
    for size, filt in FIG9_POINTS
    for dataflow in DATAFLOWS
]


def conv_key(figure: str, cfg: SystolicConfig) -> str:
    dims = cfg.dims
    key = (
        f"{figure}|{cfg.dataflow}|ifmap={dims.h}x{dims.w}"
        f"|weights={dims.fh}x{dims.fw}x{dims.c}"
    )
    if figure == "fig9":
        return key
    return f"{key}|n={dims.n}|array={cfg.array_height}x{cfg.array_width}"


def fig12_des_configs():
    points = subsample(list(paper_sweep_spec().points()), FIG12_DES_SAMPLE, 0)
    return [p for p in points if p.expected_cycles <= FIG12_DES_MAX_CYCLES]


def jsonable(row):
    """``row`` as the table file holds it."""
    return json.loads(json.dumps(row))


# -- the measurements ------------------------------------------------------


def run_conv(cfg: SystolicConfig):
    """One systolic DES run, its ofmap checked: ``(row, wall seconds)``."""
    ifmap, weights = deterministic_conv_inputs(cfg.dims, 0)
    program = build_systolic_program(cfg)
    inputs = program.prepare_inputs(ifmap, weights)
    started = time.perf_counter()
    result = simulate(program.module, inputs=inputs)
    elapsed = time.perf_counter() - started
    assert np.array_equal(
        program.extract_ofmap(result), conv2d_reference(ifmap, weights)
    ), f"{conv_key('conv', cfg)}: wrong ofmap"
    ofmap = result.summary.memory_named("ofmap_mem")
    row = {"cycles": result.cycles, "ofmap_write_bw": ofmap.avg_write_bandwidth}
    return row, elapsed


def scalesim_row(cfg: SystolicConfig) -> dict:
    scalesim = run_scalesim(
        ScaleSimConfig(cfg.dataflow, cfg.array_height, cfg.array_width, cfg.dims)
    )
    return {"cycles": scalesim.cycles, "ofmap_write_bw": scalesim.avg_ofmap_write_bw}


def fig11_pipeline(size: int) -> LoweringPipeline:
    return LoweringPipeline(
        dims=ConvDims(n=4, c=3, h=size, w=size, fh=3, fw=3),
        array_height=4,
        array_width=4,
        dataflow="WS",
    )


def run_fig11(size: int):
    """The four stages at H=W=``size``: ``({key: row}, {stage: seconds})``;
    every stage's ofmap equals the reference convolution."""
    pipeline = fig11_pipeline(size)
    results = pipeline.run_all()
    ifmap, weight = pipeline.make_data()
    assert np.array_equal(
        results["linalg"].ofmap, conv2d_reference(ifmap, weight)
    ), f"fig11|H={size}: wrong ofmap"
    rows = {
        f"fig11|H={size}|{stage}": {
            "cycles": r.cycles,
            "sram_read_bw": r.sram_read_bw,
            "sram_write_bw": r.sram_write_bw,
            "register_read_bw": r.register_read_bw,
            "register_write_bw": r.register_write_bw,
        }
        for stage, r in results.items()
    }
    return rows, {stage: r.execution_time_s for stage, r in results.items()}


def correlation(xs, ys) -> float:
    """Pearson's r by :func:`math.fsum`: the same bits on every host."""
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def fig12_rows() -> dict:
    """Fig. 12 over the whole §VI-E space, by the analytical model."""
    points = run_sweep(paper_sweep_spec(), use_des=False)
    groups = defaultdict(dict)
    for point in points:
        key = (point.config.array_height, point.config.dims)
        groups[key][point.dataflow] = point.cycles
    wins = Counter(min(row, key=row.get) for row in groups.values())
    rows = {}
    for dataflow in DATAFLOWS:
        subset = [p for p in points if p.dataflow == dataflow]
        rows[f"fig12|{dataflow}"] = {
            "points": len(subset),
            "cycle_wins": wins[dataflow],
            "mean_ofmap_write_bw": math.fsum(
                p.peak_write_bw_x_portion for p in subset
            ) / len(subset),
            "loglog_corr": correlation(
                [math.log(p.loop_iterations + 1) for p in subset],
                [math.log(p.cycles) for p in subset],
            ),
        }
    return rows


def run_fir(case: str) -> dict:
    """One FIR case, its output checked against the reference filter."""
    cfg = PAPER_CASES[case]
    rng = np.random.default_rng(99)
    samples = rng.integers(-8, 9, cfg.samples + cfg.taps).astype(np.int32)
    coeffs = rng.integers(-4, 5, cfg.taps).astype(np.int32)
    program = build_fir_program(cfg)
    result = simulate(program.module, inputs=program.prepare_inputs(samples, coeffs))
    assert np.array_equal(
        program.extract_output(result),
        fir_reference(samples, coeffs, cfg.samples),
    ), f"fir|{case}: wrong output"
    return {
        "cycles": result.cycles,
        "warmup": result.cycles - cfg.groups * cfg.group_period,
    }


def measure_all() -> dict:
    """Every row of the table, from live runs."""
    table = {conv_key("fig9", cfg): run_conv(cfg)[0] for cfg in FIG9_CONFIGS}
    for size in FIG11_SIZES:
        table.update(run_fig11(size)[0])
    table.update(fig12_rows())
    for cfg in fig12_des_configs():
        table[conv_key("fig12|des", cfg)] = run_conv(cfg)[0]
    for case in PAPER_CASES:
        table[f"fir|{case}"] = run_fir(case)
    return table


def param(value, key: str, slow: bool = False):
    """A parameter named by its table key."""
    return pytest.param(value, id=key, marks=[pytest.mark.slow] if slow else [])


def assert_rows(table: dict, rows: dict) -> None:
    """Each live row equals its table row; a failure names every row
    that moved, with both readings."""
    moved = {
        key: {"table": table[key], "live": row}
        for key, row in jsonable(rows).items()
        if row != table[key]
    }
    assert not moved, f"moved: {moved}"


@pytest.fixture(scope="module")
def table() -> dict:
    return json.loads(TABLE_PATH.read_text())


# -- the rows --------------------------------------------------------------


def test_the_table_holds_every_point_and_nothing_else(table):
    expected = {conv_key("fig9", cfg) for cfg in FIG9_CONFIGS}
    expected |= {
        f"fig11|H={size}|{stage}" for size in FIG11_SIZES for stage in STAGES
    }
    expected |= {f"fig12|{dataflow}" for dataflow in DATAFLOWS}
    expected |= {conv_key("fig12|des", cfg) for cfg in fig12_des_configs()}
    expected |= {f"fir|{case}" for case in PAPER_CASES}
    assert set(table) == expected


@pytest.mark.parametrize(
    "cfg",
    [
        param(cfg, conv_key("fig9", cfg), (cfg.dims.h, cfg.dims.fh) in SLOW_FIG9)
        for cfg in FIG9_CONFIGS
    ],
)
def test_fig9(cfg, table):
    """Fig. 9: the DES, and the SCALE-Sim model, read the row."""
    key = conv_key("fig9", cfg)
    assert_rows(table, {key: run_conv(cfg)[0]})
    assert jsonable(scalesim_row(cfg)) == table[key], f"{key}: SCALE-Sim moved"


@pytest.mark.parametrize(
    "size",
    [param(size, f"fig11|H={size}", size in SLOW_FIG11) for size in FIG11_SIZES],
)
def test_fig11(size, table):
    """Fig. 11b-d per stage, and 11a: detail costs host time — the
    systolic stage is the slowest to simulate, the fastest in cycles."""
    rows, seconds = run_fig11(size)
    assert_rows(table, rows)
    if seconds["systolic"] <= seconds["linalg"]:
        pipeline = fig11_pipeline(size)
        for stage in ("systolic", "linalg"):
            rerun = pipeline.run_stage(stage).execution_time_s
            seconds[stage] = min(seconds[stage], rerun)
    assert seconds["systolic"] > seconds["linalg"], seconds


def test_fig12(table):
    """Fig. 12 over the §VI-E space by the analytical model, and the DES
    subsample of panel (a): each point equals its model and its row, and
    host time grows with simulated cycles."""
    rows = fig12_rows()
    configs = fig12_des_configs()
    seconds = []
    for cfg in configs:
        key = conv_key("fig12|des", cfg)
        rows[key], elapsed = run_conv(cfg)
        model = {
            "cycles": cfg.expected_cycles,
            "ofmap_write_bw": cfg.average_ofmap_write_bw(),
        }
        assert rows[key] == model, key
        seconds.append(elapsed)
    assert_rows(table, rows)
    order = np.argsort([cfg.expected_cycles for cfg in configs])
    small, big = order[:3], order[-3:]

    def gap():
        return np.mean([seconds[i] for i in big]) - np.mean(
            [seconds[i] for i in small]
        )

    if gap() <= 0:
        for i in (*small, *big):
            seconds[i] = min(seconds[i], run_conv(configs[i])[1])
    assert gap() > 0, "wall-clock must grow with simulated cycles"


@pytest.mark.parametrize("case", [param(c, f"fir|{c}") for c in PAPER_CASES])
def test_fir(case, table):
    """§VII: the DES reads the row, and its warm-up is the closed form's
    (after it, the pipeline streams one group per period, no stall)."""
    row = run_fir(case)
    assert_rows(table, {f"fir|{case}": row})
    assert row["warmup"] == PAPER_CASES[case].expected_warmup


# -- what the rows say -----------------------------------------------------


def test_fig9_cycles_grow_with_ifmap_and_weights(table):
    for dataflow in DATAFLOWS:
        cycles = [
            table[conv_key("fig9", fig9_config(dataflow, size, 2))]["cycles"]
            for size in (2, 4, 8, 16, 32)
        ]
        assert cycles == sorted(cycles), (dataflow, cycles)
        assert cycles[-1] > cycles[0] * 5, (dataflow, cycles)
        for size in (16, 32):
            cycles = [
                table[conv_key("fig9", fig9_config(dataflow, size, filt))]
                ["cycles"]
                for filt in (2, 4, 8)
            ]
            assert cycles == sorted(cycles), (dataflow, size, cycles)


@pytest.mark.parametrize("size", FIG11_SIZES)
def test_fig11_orderings(size, table):
    """Cycles fall along the stages; SRAM traffic grows from linalg to
    affine; register traffic appears at reassign."""
    rows = {stage: table[f"fig11|H={size}|{stage}"] for stage in STAGES}
    cycles = [rows[stage]["cycles"] for stage in STAGES]
    assert cycles == sorted(cycles, reverse=True), cycles
    for direction in ("read", "write"):
        assert (
            rows["affine"][f"sram_{direction}_bw"]
            > rows["linalg"][f"sram_{direction}_bw"]
        )
        assert rows["linalg"][f"register_{direction}_bw"] == 0
        assert rows["affine"][f"register_{direction}_bw"] == 0
    assert rows["reassign"]["register_read_bw"] > 0
    assert rows["systolic"]["register_read_bw"] > 0


def test_fig12_dataflow_tradeoffs(table):
    """No dataflow dominates: each wins on cycles somewhere; OS, which
    accumulates partial sums in place, needs the least ofmap write
    bandwidth and WS, which streams them every cycle, the most; and
    cycles track ⌈D1/Ah⌉x⌈D2/Aw⌉ loop iterations (Fig. 12c-e)."""
    rows = {dataflow: table[f"fig12|{dataflow}"] for dataflow in DATAFLOWS}
    assert all(row["cycle_wins"] > 0 for row in rows.values()), rows
    bandwidth = {df: row["mean_ofmap_write_bw"] for df, row in rows.items()}
    assert bandwidth["OS"] < bandwidth["IS"] < bandwidth["WS"]
    assert all(row["loglog_corr"] > 0.6 for row in rows.values()), rows


def test_iteration_rule_identifies_good_shapes():
    """§VI-E's design rule: loop iterations are the dominant factor in
    choosing an array shape.  The cycle-optimal shape always has an
    iteration count within a few percent of the minimum (the residual
    difference is the per-fold fill term the rule ignores), and
    :func:`best_array_shape` — which breaks iteration ties by predicted
    cycles — finds the exact optimum."""
    dims = ConvDims(n=32, c=4, h=24, w=24, fh=4, fw=4)
    shapes = [(2, 32), (4, 16), (8, 8), (16, 4), (32, 2)]
    for dataflow in DATAFLOWS:
        stats = [
            (
                SystolicConfig(dataflow, h, w, dims).loop_iterations,
                SystolicConfig(dataflow, h, w, dims).expected_cycles,
            )
            for h, w in shapes
        ]
        min_iterations = min(s[0] for s in stats)
        optimal = min(stats, key=lambda s: s[1])
        assert optimal[0] <= min_iterations * 1.05
        chosen = best_array_shape(dataflow, dims, total_pes=64)
        assert predicted_cycles(dataflow, dims, *chosen) == optimal[1]


def test_fir_against_the_paper(table):
    """Cases 1-3 are the paper's cycles; case 4 is within 0.5 % (540 vs
    538); cases 1 and 4 stay inside the paper's ~10 % envelope against
    Xilinx's simulator; and the §VII narrative holds: 16 cores beat 1,
    real bandwidth slows them, 4 rebalanced cores recover most of it."""
    cycles = {case: table[f"fir|{case}"]["cycles"] for case in PAPER_CASES}
    for case in ("case1", "case2", "case3"):
        assert cycles[case] == AIE_REFERENCE[case]["equeue_paper"], case
    paper4 = AIE_REFERENCE["case4"]["equeue_paper"]
    assert abs(cycles["case4"] - paper4) / paper4 < 0.005
    for case in ("case1", "case4"):
        deviation = compare_with_aie(case, cycles[case]).vs_aie_sim
        assert abs(deviation) < 0.11, (case, deviation)
    assert cycles["case2"] < cycles["case4"] < cycles["case3"] < cycles["case1"]
    # Warm-up: case 2's is the paper's 15 cycles; case 3's first output
    # emerges after 5 cycles a stage over 16 stages, the paper's 79; case
    # 4 streams a group per 4 cycles, compute and transfer balanced.
    assert table["fir|case2"]["warmup"] == AIE_REFERENCE["case2"]["warmup_paper"]
    case3, case4 = PAPER_CASES["case3"], PAPER_CASES["case4"]
    assert case3.n_cores * case3.stage_latency - 1 == 79
    assert case4.group_period == case4.chunks_per_core == case4.transfer_cycles == 4


def test_switching_dataflows_touches_a_small_share_of_the_generator():
    """§VI-C: SCALE-Sim changes 410 of its 569 WS lines for IS (72 %);
    here the dataflow-conditional lines are under half that share."""
    report = generator_loc_report()
    ours = report.dataflow_conditional_loc / report.total_loc
    scalesim = (
        LOC_COMPARISON["scalesim_ws_to_is_delta"]
        / LOC_COMPARISON["scalesim_ws_loc"]
    )
    assert ours < scalesim / 2, (ours, scalesim)


if __name__ == "__main__":
    table = jsonable(measure_all())
    # One row a line, so a re-record's diff shows each moved row.
    TABLE_PATH.write_text(
        "{\n"
        + ",\n".join(
            f" {json.dumps(key)}: {json.dumps(row, sort_keys=True)}"
            for key, row in sorted(table.items())
        )
        + "\n}\n"
    )
    for key, row in sorted(table.items()):
        print(f"{key:48} " + "  ".join(f"{k}={v:.6g}" for k, v in row.items()))
    print(f"recorded {len(table)} rows in {TABLE_PATH.name}")
