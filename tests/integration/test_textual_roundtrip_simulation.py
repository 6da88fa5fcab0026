"""Integration: generated programs survive the textual format at scale.

The Fig. 7 workflow stores EQueue programs as .mlir files.  These tests
print a *complete generated case study* (hundreds of ops, nested regions,
every dialect), re-parse it, and simulate the reparsed module — results
must be identical to simulating the original."""

from pathlib import Path

import numpy as np
import pytest

from repro.dialects.linalg import ConvDims
from repro.generators.fir import FIRConfig, build_fir_program, fir_reference
from repro.generators.systolic import SystolicConfig, build_systolic_program
from repro.ir import parse_module, print_op, verify
from repro.scenarios import get_scenario, scenario_names
from repro.sim import simulate
from tests.conftest import conv2d_reference


class TestSystolicRoundtrip:
    @pytest.mark.parametrize("dataflow", ["WS", "OS"])
    def test_print_parse_simulate(self, dataflow, rng):
        dims = ConvDims(n=2, c=2, h=5, w=5, fh=2, fw=2)
        cfg = SystolicConfig(dataflow, 2, 2, dims)
        program = build_systolic_program(cfg)

        text = print_op(program.module)
        assert len(text.splitlines()) > 100  # a real program, not a toy
        reparsed = parse_module(text)
        verify(reparsed)
        assert print_op(reparsed) == text

        ifmap = rng.integers(-3, 4, (2, 5, 5)).astype(np.int32)
        weights = rng.integers(-3, 4, (2, 2, 2, 2)).astype(np.int32)
        inputs = program.prepare_inputs(ifmap, weights)

        original = simulate(program.module, inputs=inputs)
        roundtripped = simulate(reparsed, inputs=inputs)
        assert roundtripped.cycles == original.cycles
        # Output buffers hold identical data.
        out_name = "out_sram" if dataflow in ("WS", "IS") else "out_flat"
        assert np.array_equal(
            roundtripped.buffer(out_name), original.buffer(out_name)
        )
        assert np.array_equal(
            program.extract_ofmap(roundtripped),
            conv2d_reference(ifmap, weights),
        )


class TestFIRRoundtrip:
    def test_pipeline_through_text(self, rng):
        cfg = FIRConfig(n_cores=4, bandwidth=4, samples=64)
        program = build_fir_program(cfg)
        text = print_op(program.module)
        reparsed = parse_module(text)
        verify(reparsed)
        assert print_op(reparsed) == text

        samples = rng.integers(-8, 9, cfg.samples + cfg.taps).astype(np.int32)
        coeffs = rng.integers(-4, 5, cfg.taps).astype(np.int32)
        inputs = program.prepare_inputs(samples, coeffs)
        result = simulate(reparsed, inputs=inputs)
        assert result.cycles == cfg.expected_cycles
        output = result.buffer("sout").reshape(-1)[: cfg.samples]
        assert np.array_equal(
            output, fir_reference(samples, coeffs, cfg.samples)
        )


# ---------------------------------------------------------------------------
# Closed-world differential: the registry and the shipped programs
# ---------------------------------------------------------------------------

PROGRAMS = sorted(
    (Path(__file__).resolve().parents[2] / "examples" / "programs").glob("*.mlir")
)


def _scenario_points():
    """Every registered scenario at its default config and at one grid
    point (the last: the far corner of the declared axes)."""
    for name in scenario_names():
        scenario = get_scenario(name)
        yield pytest.param(scenario, scenario.configure(), id=f"{name}-default")
        yield pytest.param(scenario, scenario.grid_points()[-1], id=f"{name}-grid")


def _observed(result):
    return (
        result.cycles,
        result.summary.scheduler_events,
        {name: buffer.array.tolist() for name, buffer in result.buffers.items()},
    )


class TestFrontEndDifferential:
    """The text front end is invisible: a module that went through
    print -> parse prints the same and simulates the same."""

    @pytest.mark.parametrize("scenario, cfg", _scenario_points())
    def test_scenario_through_text(self, scenario, cfg):
        text = print_op(scenario.build(cfg))
        parsed = parse_module(text)
        verify(parsed)
        assert print_op(parsed) == text

        inputs = scenario.make_inputs(cfg, 0)
        built = simulate(scenario.build(cfg), inputs=inputs)
        through_text = simulate(parsed, inputs=inputs)
        assert _observed(through_text) == _observed(built)
        scenario.check(cfg, through_text, 0)

    @pytest.mark.parametrize("path", PROGRAMS, ids=lambda path: path.name)
    def test_shipped_program_through_text(self, path):
        text = path.read_text()
        # The printer has no comments to give back; everything else must
        # come out byte for byte.
        code = "".join(
            line for line in text.splitlines(keepends=True)
            if not line.lstrip().startswith("//")
        )
        parsed = parse_module(text)
        verify(parsed)
        assert print_op(parsed) == code
        assert _observed(simulate(parse_module(code))) == _observed(
            simulate(parsed)
        )
