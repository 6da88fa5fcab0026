"""Register the paper's case studies — and this repo's new workloads —
as scenarios.

The systolic/FIR/lowering-pipeline generators stay where they are
(:mod:`repro.generators`); this module only wraps them in flat,
CLI-overridable config dataclasses and :class:`~.registry.Scenario`
records, so every enumeration point (CLI, sweeps, benches, differential
tests) sees one uniform collection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..dialects.linalg import ConvDims
from ..generators.fir import FIRConfig, FIRProgram, build_fir_program
from ..generators.fir import fir_reference
from ..generators.pipeline import STAGES, LoweringPipeline
from ..generators.systolic import (
    SystolicConfig,
    SystolicProgram,
    build_systolic_program,
)
from ..ir.module import ModuleOp
from ..sim.batch import deterministic_conv_inputs, structural_signature
from .gemm import GemmConfig, build_gemm_module, check_gemm, gemm_inputs
from .mesh import MeshConfig, build_mesh_module, check_mesh, mesh_inputs
from .registry import Scenario, register_scenario


def _conv_reference(ifmap: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Direct convolution in the engine's int32 arithmetic."""
    n, c, fh, fw = weights.shape
    _, h, w = ifmap.shape
    eh, ew = h - fh + 1, w - fw + 1
    out = np.zeros((n, eh, ew), dtype=np.int32)
    for filt in range(n):
        for y in range(eh):
            for x in range(ew):
                out[filt, y, x] = np.sum(
                    ifmap[:, y : y + fh, x : x + fw] * weights[filt],
                    dtype=np.int32,
                )
    return out


# ---------------------------------------------------------------------------
# Systolic convolution arrays (§VI)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystolicScenarioConfig:
    """Flat view of :class:`SystolicConfig` + :class:`ConvDims`."""

    dataflow: str = "WS"
    array_height: int = 4
    array_width: int = 4
    n: int = 2
    c: int = 2
    h: int = 6
    w: int = 6
    fh: int = 2
    fw: int = 2

    def to_generator_config(self) -> SystolicConfig:
        return SystolicConfig(
            dataflow=self.dataflow,
            array_height=self.array_height,
            array_width=self.array_width,
            dims=ConvDims(
                n=self.n, c=self.c, h=self.h, w=self.w,
                fh=self.fh, fw=self.fw,
            ),
        )


def _systolic_build(cfg: SystolicScenarioConfig) -> SystolicProgram:
    # The program, not its module: its stamps go with it into the
    # compile cache (``Scenario.build_program``).
    return build_systolic_program(cfg.to_generator_config())


def _systolic_inputs(cfg: SystolicScenarioConfig, seed: int) -> Dict:
    generator_cfg = cfg.to_generator_config()
    ifmap, weights = deterministic_conv_inputs(generator_cfg.dims, seed)
    return SystolicProgram(
        module=None, config=generator_cfg
    ).prepare_inputs(ifmap, weights)


def _systolic_check(cfg: SystolicScenarioConfig, result, seed: int) -> Dict:
    generator_cfg = cfg.to_generator_config()
    ifmap, weights = deterministic_conv_inputs(generator_cfg.dims, seed)
    ofmap = SystolicProgram(
        module=None, config=generator_cfg
    ).extract_ofmap(result)
    np.testing.assert_array_equal(ofmap, _conv_reference(ifmap, weights))
    assert result.cycles == generator_cfg.expected_cycles, (
        f"cycles {result.cycles} != closed form "
        f"{generator_cfg.expected_cycles}"
    )
    return {
        "expected_cycles": generator_cfg.expected_cycles,
        "cycles": result.cycles,
        "output": "conv2d",
    }


# ---------------------------------------------------------------------------
# AI Engine FIR pipelines (§VII)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FIRScenarioConfig:
    """Flat view of :class:`FIRConfig`; ``bandwidth=0`` = unlimited I/O."""

    n_cores: int = 4
    bandwidth: int = 4
    taps: int = 32
    samples: int = 64

    def to_generator_config(self) -> FIRConfig:
        return FIRConfig(
            n_cores=self.n_cores,
            bandwidth=self.bandwidth if self.bandwidth > 0 else None,
            taps=self.taps,
            samples=self.samples,
        )


def _fir_build(cfg: FIRScenarioConfig) -> ModuleOp:
    return build_fir_program(cfg.to_generator_config()).module


def _fir_data(cfg: FIRScenarioConfig, seed: int):
    generator_cfg = cfg.to_generator_config()
    rng = np.random.default_rng(seed)
    samples = rng.integers(
        -8, 9, generator_cfg.samples + generator_cfg.taps
    ).astype(np.int32)
    coeffs = rng.integers(-4, 5, generator_cfg.taps).astype(np.int32)
    return generator_cfg, samples, coeffs


def _fir_inputs(cfg: FIRScenarioConfig, seed: int) -> Dict:
    generator_cfg, samples, coeffs = _fir_data(cfg, seed)
    return FIRProgram(
        module=None, config=generator_cfg
    ).prepare_inputs(samples, coeffs)


def _fir_check(cfg: FIRScenarioConfig, result, seed: int) -> Dict:
    generator_cfg, samples, coeffs = _fir_data(cfg, seed)
    output = FIRProgram(
        module=None, config=generator_cfg
    ).extract_output(result)
    reference = fir_reference(samples, coeffs, generator_cfg.samples)
    np.testing.assert_array_equal(output, reference)
    assert result.cycles == generator_cfg.expected_cycles
    return {
        "expected_cycles": generator_cfg.expected_cycles,
        "cycles": result.cycles,
        "output": "fir",
    }


# ---------------------------------------------------------------------------
# The §VI-D lowering pipeline, one stage at a time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineScenarioConfig:
    """One lowering stage of the Fig. 11 pipeline as a workload."""

    stage: str = "reassign"
    dataflow: str = "WS"
    array_height: int = 4
    array_width: int = 4
    n: int = 2
    c: int = 2
    h: int = 6
    w: int = 6
    fh: int = 3
    fw: int = 3

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}")

    def to_pipeline(self, seed: int = 0) -> LoweringPipeline:
        return LoweringPipeline(
            dims=ConvDims(
                n=self.n, c=self.c, h=self.h, w=self.w,
                fh=self.fh, fw=self.fw,
            ),
            array_height=self.array_height,
            array_width=self.array_width,
            dataflow=self.dataflow,
            seed=seed,
        )


def _pipeline_build(cfg: PipelineScenarioConfig) -> ModuleOp:
    pipeline = cfg.to_pipeline()
    if cfg.stage == "systolic":
        return pipeline.build_systolic().module
    return pipeline.build_stage(cfg.stage)


def _pipeline_inputs(cfg: PipelineScenarioConfig, seed: int) -> Dict:
    pipeline = cfg.to_pipeline(seed)
    ifmap, weight = pipeline.make_data()
    if cfg.stage == "systolic":
        program = pipeline.build_systolic()
        return SystolicProgram(
            module=None, config=program.config
        ).prepare_inputs(ifmap, weight)
    if cfg.stage == "reassign":
        return {"ifmap_sram": ifmap, "weight_sram": weight}
    return {"ifmap": ifmap, "weight": weight}


def _pipeline_check(cfg: PipelineScenarioConfig, result, seed: int) -> Dict:
    pipeline = cfg.to_pipeline(seed)
    ifmap, weight = pipeline.make_data()
    if cfg.stage == "systolic":
        program = pipeline.build_systolic()
        ofmap = SystolicProgram(
            module=None, config=program.config
        ).extract_ofmap(result)
    else:
        name = "ofmap_sram" if cfg.stage == "reassign" else "ofmap"
        ofmap = np.asarray(result.buffer(name)).reshape(
            cfg.n, cfg.h - cfg.fh + 1, cfg.w - cfg.fw + 1
        )
    np.testing.assert_array_equal(ofmap, _conv_reference(ifmap, weight))
    return {"stage": cfg.stage, "output": "conv2d", "cycles": result.cycles}


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------


def _register_builtin_scenarios() -> None:
    register_scenario(Scenario(
        name="systolic",
        summary="WS/IS/OS systolic convolution arrays (§VI)",
        config_cls=SystolicScenarioConfig,
        builder=_systolic_build,
        inputs=_systolic_inputs,
        oracle=_systolic_check,
        grid=(
            ("dataflow", ("WS", "IS", "OS")),
            ("array_height", (2, 4)),
            ("h", (4, 6)),
            ("n", (1, 2)),
        ),
        structural_key=lambda cfg: structural_signature(
            cfg.to_generator_config()
        ),
    ), replace=True)

    register_scenario(Scenario(
        name="fir",
        summary="AI Engine FIR filter cascade pipelines (§VII)",
        config_cls=FIRScenarioConfig,
        builder=_fir_build,
        inputs=_fir_inputs,
        oracle=_fir_check,
        grid=(
            ("n_cores", (1, 4)),
            ("bandwidth", (0, 4)),
            ("samples", (32, 64)),
        ),
    ), replace=True)

    register_scenario(Scenario(
        name="pipeline",
        summary="Linalg->Affine->Reassign->Systolic lowering stages "
        "(§VI-D, Fig. 11)",
        config_cls=PipelineScenarioConfig,
        builder=_pipeline_build,
        inputs=_pipeline_inputs,
        oracle=_pipeline_check,
        grid=(("stage", STAGES),),
    ), replace=True)

    register_scenario(Scenario(
        name="gemm",
        summary="Double-buffered tiled GEMM with DMA ping-pong staging",
        config_cls=GemmConfig,
        builder=build_gemm_module,
        inputs=gemm_inputs,
        oracle=check_gemm,
        grid=(
            ("k", (8, 16, 32)),
            ("tile_k", (4, 8)),
            ("double_buffer", (True, False)),
        ),
    ), replace=True)

    register_scenario(Scenario(
        name="mesh",
        summary="N x M multi-core mesh relaxation with per-hop "
        "interconnect latency",
        config_cls=MeshConfig,
        builder=build_mesh_module,
        inputs=mesh_inputs,
        oracle=check_mesh,
        grid=(
            ("rows", (2, 4)),
            ("cols", (2, 4)),
            ("rounds", (2, 4)),
            ("link_bandwidth", (1, 2, 4)),
        ),
    ), replace=True)


_register_builtin_scenarios()
