"""Integration: multi-level estimation consistency (Fig. 1's promise).

The selling point of simulating at multiple abstraction levels is that the
quick estimate and the detailed model must tell a *consistent* story: the
coarse level brackets the refined ones, speedup ratios behave sanely, and
the same workload never changes its functional result between levels.
"""

import numpy as np
import pytest

from repro.dialects.linalg import ConvDims
from repro.generators.pipeline import LoweringPipeline
from repro.generators.systolic import SystolicConfig
from tests.differential import CONVS


@pytest.mark.parametrize("dims", CONVS)
def test_coarse_level_is_conservative(dims):
    """The Linalg estimate upper-bounds the finer levels (the Affine
    stage's bound is a row of ``PASS_CONTRACTS``): a designer who budgets
    against the quick model is never surprised upward."""
    pipeline = LoweringPipeline(dims=dims, dataflow="WS")
    results = pipeline.run_all()
    coarse = results["linalg"].cycles
    for stage in ("reassign", "systolic"):
        assert results[stage].cycles <= coarse, stage


@pytest.mark.parametrize("dims", CONVS)
def test_systolic_speedup_bounded_by_pe_count(dims):
    """The PE array cannot beat the single-core refined model by more than
    its compute parallelism times the per-MAC cost ratio (sanity bound on
    the speedup story a DSE would report)."""
    pipeline = LoweringPipeline(dims=dims, dataflow="WS", array_height=4,
                                array_width=4)
    refined = pipeline.run_stage("reassign").cycles
    systolic = pipeline.run_stage("systolic").cycles
    speedup = refined / systolic
    pes = 16
    # reassign spends ~2 cycles/MAC (mul+add), systolic 1 (fused MAC):
    # ceiling = 2x per-PE advantage x 16 PEs, plus fill slack.
    assert 1.0 < speedup <= 2.5 * pes


def test_dataflow_choice_does_not_change_functionality():
    """All three final-stage dataflows compute the conv of the shared
    earlier stages."""
    dims = ConvDims(n=3, c=2, h=6, w=6, fh=2, fw=2)
    reference = None
    for dataflow in ("WS", "IS", "OS"):
        pipeline = LoweringPipeline(dims=dims, dataflow=dataflow)
        result = pipeline.run_stage("systolic")
        if reference is None:
            reference = result.ofmap
        else:
            assert np.array_equal(result.ofmap, reference)


def test_analytical_model_brackets_between_levels():
    """The systolic closed form sits below the refined single-core model
    for any workload where the array is meaningfully parallel."""
    for dims in CONVS:
        cfg = SystolicConfig("WS", 4, 4, dims)
        single_core_estimate = dims.macs * 2  # mul+add on one PE
        if dims.macs > 200:
            assert cfg.expected_cycles < single_core_estimate
