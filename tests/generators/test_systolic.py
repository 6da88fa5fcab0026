"""Systolic generator tests: functional correctness + timing laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import SweepSpec
from repro.dialects.linalg import ConvDims
from repro.generators import systolic
from repro.generators.systolic import (
    SystolicConfig,
    build_systolic_program,
    im2col,
    weight_matrix,
)
from repro.dialects import arith
from repro.ir import (
    Builder,
    InsertionPoint,
    VerificationError,
    i32,
    index,
    print_op,
    verifier,
    verify,
)
from repro.sim import simulate
from repro.sim.batch import structural_signature
from tests.conftest import conv2d_reference


def run_config(cfg, rng):
    program = build_systolic_program(cfg)
    dims = cfg.dims
    ifmap = rng.integers(-4, 5, (dims.c, dims.h, dims.w)).astype(np.int32)
    weights = rng.integers(
        -4, 5, (dims.n, dims.c, dims.fh, dims.fw)
    ).astype(np.int32)
    result = simulate(program.module, inputs=program.prepare_inputs(ifmap, weights))
    got = program.extract_ofmap(result)
    want = conv2d_reference(ifmap, weights)
    return result, got, want


class TestMappingMath:
    def test_ws_dimensions(self):
        dims = ConvDims(n=4, c=3, h=8, w=8, fh=3, fw=3)
        cfg = SystolicConfig("WS", 4, 4, dims)
        assert cfg.d1 == 27      # Fh*Fw*C
        assert cfg.d2 == 4       # N
        assert cfg.stream_length == 36  # Eh*Ew
        assert cfg.loop_iterations == 7  # ceil(27/4)*ceil(4/4)

    def test_is_dimensions(self):
        dims = ConvDims(n=4, c=3, h=8, w=8, fh=3, fw=3)
        cfg = SystolicConfig("IS", 4, 4, dims)
        assert cfg.d1 == 27
        assert cfg.d2 == 36
        assert cfg.stream_length == 4

    def test_os_dimensions(self):
        dims = ConvDims(n=4, c=3, h=8, w=8, fh=3, fw=3)
        cfg = SystolicConfig("OS", 4, 4, dims)
        assert cfg.d1 == 4
        assert cfg.d2 == 36
        assert cfg.stream_length == 27

    def test_expected_cycles_formula(self):
        dims = ConvDims(n=1, c=3, h=8, w=8, fh=2, fw=2)
        cfg = SystolicConfig("WS", 4, 4, dims)
        # T = Eh*Ew = 49; per fold: 2*4 + 4 + 49 - 2 = 59;
        # folds = ceil(12/4) * ceil(1/4) = 3.
        assert cfg.expected_cycles == 3 * 59

    def test_bad_dataflow_rejected(self):
        dims = ConvDims(n=1, c=1, h=4, w=4, fh=2, fw=2)
        with pytest.raises(ValueError, match="dataflow"):
            SystolicConfig("XS", 4, 4, dims)

    def test_im2col_shapes_and_values(self):
        dims = ConvDims(n=1, c=2, h=3, w=3, fh=2, fw=2)
        ifmap = np.arange(18, dtype=np.int32).reshape(2, 3, 3)
        x = im2col(ifmap, dims)
        assert x.shape == (4, 8)  # (Eh*Ew, C*Fh*Fw)
        assert list(x[0]) == list(ifmap[:, 0:2, 0:2].ravel())

    def test_weight_matrix_layout(self):
        dims = ConvDims(n=2, c=2, h=3, w=3, fh=2, fw=2)
        weights = np.arange(16, dtype=np.int32).reshape(2, 2, 2, 2)
        w = weight_matrix(weights, dims)
        assert w.shape == (8, 2)
        assert list(w[:, 0]) == list(weights[0].ravel())

    def test_im2col_times_weights_equals_conv(self, rng):
        dims = ConvDims(n=3, c=2, h=6, w=5, fh=3, fw=2)
        ifmap = rng.integers(-5, 6, (2, 6, 5)).astype(np.int32)
        weights = rng.integers(-5, 6, (3, 2, 3, 2)).astype(np.int32)
        product = im2col(ifmap, dims) @ weight_matrix(weights, dims)
        expected = conv2d_reference(ifmap, weights)
        assert np.array_equal(
            product.T.reshape(dims.n, dims.eh, dims.ew), expected
        )


class TestDataflowSimulation:
    @pytest.mark.parametrize("dataflow", ["WS", "IS", "OS"])
    def test_functional_and_timing(self, dataflow, rng):
        dims = ConvDims(n=2, c=3, h=6, w=6, fh=2, fw=2)
        cfg = SystolicConfig(dataflow, 4, 4, dims)
        result, got, want = run_config(cfg, rng)
        assert np.array_equal(got, want), f"{dataflow} computed wrong conv"
        assert result.cycles == cfg.expected_cycles

    @pytest.mark.parametrize("dataflow", ["WS", "IS", "OS"])
    def test_nonsquare_array(self, dataflow, rng):
        dims = ConvDims(n=3, c=2, h=5, w=5, fh=2, fw=2)
        cfg = SystolicConfig(dataflow, 2, 8, dims)
        result, got, want = run_config(cfg, rng)
        assert np.array_equal(got, want)
        assert result.cycles == cfg.expected_cycles

    def test_single_pe_array(self, rng):
        dims = ConvDims(n=1, c=1, h=3, w=3, fh=2, fw=2)
        cfg = SystolicConfig("WS", 1, 1, dims)
        result, got, want = run_config(cfg, rng)
        assert np.array_equal(got, want)

    def test_array_larger_than_problem(self, rng):
        dims = ConvDims(n=1, c=1, h=3, w=3, fh=2, fw=2)
        cfg = SystolicConfig("WS", 8, 8, dims)  # heavy padding
        result, got, want = run_config(cfg, rng)
        assert np.array_equal(got, want)
        assert cfg.loop_iterations == 1

    def test_ofmap_write_traffic_matches_model(self, rng):
        dims = ConvDims(n=1, c=3, h=8, w=8, fh=2, fw=2)
        cfg = SystolicConfig("WS", 4, 4, dims)
        result, _, _ = run_config(cfg, rng)
        report = result.summary.memory_named("ofmap_mem")
        assert report is not None
        assert report.bytes_written == cfg.ofmap_write_bytes

    def test_pe_concurrency_visible_in_stats(self, rng):
        dims = ConvDims(n=4, c=2, h=6, w=6, fh=2, fw=2)
        cfg = SystolicConfig("WS", 4, 4, dims)
        program = build_systolic_program(cfg)
        ifmap = rng.integers(-2, 3, (2, 6, 6)).astype(np.int32)
        weights = rng.integers(-2, 3, (4, 2, 2, 2)).astype(np.int32)
        result = simulate(
            program.module, inputs=program.prepare_inputs(ifmap, weights)
        )
        # Total MAC work far exceeds total cycles: parallelism happened.
        assert cfg.dims.macs > result.cycles


@settings(max_examples=12, deadline=None)
@given(
    dataflow=st.sampled_from(["WS", "IS", "OS"]),
    n=st.integers(1, 3),
    c=st.integers(1, 3),
    size=st.integers(3, 6),
    filt=st.integers(1, 3),
    ah=st.sampled_from([2, 4]),
    seed=st.integers(0, 2**16),
)
def test_systolic_matches_reference_conv(dataflow, n, c, size, filt, ah, seed):
    """Property: for any small configuration, the DES computes the exact
    convolution and the exact closed-form cycle count."""
    if filt > size:
        return
    dims = ConvDims(n=n, c=c, h=size, w=size, fh=filt, fw=filt)
    cfg = SystolicConfig(dataflow, ah, 4, dims)
    rng = np.random.default_rng(seed)
    result, got, want = run_config(cfg, rng)
    assert np.array_equal(got, want)
    assert result.cycles == cfg.expected_cycles


# ---------------------------------------------------------------------------
# Stamped PE bodies
# ---------------------------------------------------------------------------
#
# Only the first PE body of each position class is built op by op; the
# others are copies of it with their own position constants
# (``systolic._pe_body``).  The reference — every body built — is reached
# by patching the stamping away, as ``tier_up_at`` patches the tier-up
# threshold: there is no flag for it.


def _built_not_stamped(monkeypatch):
    """Every PE body built op by op.  ``_pe_body`` takes the PE and its
    block arguments by keyword, so this holds whatever bookkeeping the
    stamping passes before them."""
    monkeypatch.setattr(
        systolic,
        "_pe_body",
        lambda b, cfg, *bookkeeping, r, c, vals: systolic._pe_step(
            b, cfg, r, c, vals, []
        ),
    )


def _stamped_then_built(cfg):
    """Both prints; the stamped module also passes a full ``verify()``
    — the witness that a stamped body needs no verification of its own
    (the build verifies before it stamps)."""
    module = build_systolic_program(cfg).module
    verify(module)
    stamped = print_op(module)
    with pytest.MonkeyPatch.context() as patch:
        _built_not_stamped(patch)
        built = print_op(build_systolic_program(cfg).module)
    return stamped, built


def test_stamped_equals_built_for_every_signature_of_the_sweep():
    """The 288-point throughput sweep of ``benchmarks/`` (its spec,
    restated): 62 structures, each printed both ways."""
    spec = SweepSpec(
        array_heights=(4, 8),
        total_pes=64,
        image_sizes=(2, 4),
        filter_sizes=(1, 2),
        channels=(1, 2, 4),
        filter_counts=(1, 2, 4, 8),
        dataflows=("WS", "IS", "OS"),
    )
    structures = {}
    for cfg in spec.points():
        structures.setdefault(structural_signature(cfg), cfg)
    assert len(structures) == 62
    for cfg in structures.values():
        stamped, built = _stamped_then_built(cfg)
        assert stamped == built, structural_signature(cfg)


@settings(max_examples=25, deadline=None)
@given(
    dataflow=st.sampled_from(["WS", "IS", "OS"]),
    ah=st.integers(1, 6),
    aw=st.integers(1, 6),
)
def test_stamped_equals_built_where_classes_collapse(dataflow, ah, aw):
    """1xN and Nx1 arrays put a PE on two opposite edges at once; a
    1x1 array on all four."""
    dims = ConvDims(n=2, c=2, h=4, w=4, fh=2, fw=2)
    stamped, built = _stamped_then_built(SystolicConfig(dataflow, ah, aw, dims))
    assert stamped == built


def test_bodies_are_stamped_and_the_reference_is_not(monkeypatch):
    """The two sides of the comparisons above are different code: an
    8x8 array builds nine bodies and clones the other 55 — per fold
    step, and there is one — and none once the stamping is patched
    away."""
    cfg = SystolicConfig("WS", 8, 8, ConvDims(n=8, c=2, h=8, w=8, fh=2, fw=2))
    built_bodies = []
    pe_step = systolic._pe_step

    def counting(b, cfg, r, c, vals, placed):
        built_bodies.append((r, c))
        pe_step(b, cfg, r, c, vals, placed)

    monkeypatch.setattr(systolic, "_pe_step", counting)
    program = build_systolic_program(cfg)
    assert len(built_bodies) == 9
    assert set(built_bodies) == {
        (r, c) for r in (0, 1, 7) for c in (0, 1, 7)
    }
    assert len(program.stamps) == 55
    del built_bodies[:]
    _built_not_stamped(monkeypatch)
    program = build_systolic_program(cfg)
    assert len(built_bodies) == 64
    assert not program.stamps


# The build verifies before it stamps: what it proves is the skeleton
# and one body per class, and nothing a stamp copies can escape that.

WS_8X8 = SystolicConfig("WS", 8, 8, ConvDims(n=8, c=2, h=8, w=8, fh=2, fw=2))


def test_the_verifier_visits_the_skeleton_and_nine_bodies(monkeypatch):
    visited = []
    verify_op_tree = verifier._verify_op_tree

    def counting(op, visible):
        visited.append(op)
        verify_op_tree(op, visible)

    monkeypatch.setattr(verifier, "_verify_op_tree", counting)
    program = build_systolic_program(WS_8X8)
    module = program.module
    copied = {
        op
        for block in program.stamps
        for top in block.ops[:-1]  # each keeps its own terminator
        for op in top.walk()
    }
    assert len(visited) == len(set(visited))
    assert set(visited) == set(module.walk()) - copied
    pe_bodies = {
        op.body
        for op in module.walk()
        if op.name == "equeue.launch" and op.get_attr("label").startswith("pe_")
    }
    proved = {
        op.parent
        for op in visited
        if op.parent in pe_bodies and op.name != "equeue.return_values"
    }
    assert len(pe_bodies) == 64 and len(program.stamps) == 55
    assert proved == pe_bodies - set(program.stamps) and len(proved) == 9
    assert set(program.stamps.values()) <= proved


def _ill_typed(b, vals):
    arith.addi(b, vals[0], arith.constant(b, 1, i32))


def _not_dominating(b, vals):
    later = arith.constant(b, 1, index)
    first = Builder(InsertionPoint.at_begin(b.insertion_point.block))
    first.create("arith.addi", [later, later], [index])


@pytest.mark.parametrize("pe", [(0, 0), (1, 1), (7, 7)])
@pytest.mark.parametrize("breakage", [_ill_typed, _not_dominating])
def test_a_broken_representative_still_fails_the_build(monkeypatch, pe, breakage):
    """An ill-formed first body of a class — the one its 55 stamps
    would copy — fails ``verify`` inside the build, stamps or not."""
    pe_step = systolic._pe_step

    def broken(b, cfg, r, c, vals, placed):
        pe_step(b, cfg, r, c, vals, placed)
        if (r, c) == pe:
            breakage(b, vals)

    monkeypatch.setattr(systolic, "_pe_step", broken)
    with pytest.raises(VerificationError):
        build_systolic_program(WS_8X8)
