"""The §VI-D lowering pipeline: simulate at four abstraction levels.

Reproduces Fig. 11's experimental setup.  For one convolution workload the
driver produces and simulates four programs of increasing detail:

``linalg``
    The convolution as a single ``linalg.conv2d`` on SRAM buffers, launched
    on the kernel processor.  The engine prices it with the coarse
    first-order model (fast to simulate, conservative runtime).
``affine``
    ``--convert-linalg-to-affine-loops`` + ``--equeue-read-write`` +
    ``--allocate-buffer`` + ``--launch``: explicit loops with timed SRAM
    accesses.
``reassign``
    The flattened three-loop form with all operand buffers reassigned to a
    register file (``--allocate-buffer{memory=regfile}``), plus DMA
    ``memcpy`` staging of ifmap/weights in and the ofmap back out
    (``--memcpy`` with launch chaining) — §VI-D.2's buffer-reassign stage.
``systolic``
    The full PE-array model from :mod:`repro.generators.systolic`.  (The
    paper reaches this stage by composing split-launch/reassign/parallel
    passes with per-dataflow parameters; our driver instantiates the
    equivalent generator — the paper itself reports the two differ by only
    ~1.2% because passes do not model warm-up/cool-down.)

Each stage is simulated on the same input data and the driver checks that
all four produce the *same convolution result*, making the pipeline a
strong end-to-end correctness test as well as a performance experiment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..dialects import linalg, memref
from ..dialects.equeue import EQueueBuilder
from ..dialects.linalg import ConvDims
from ..ir import Builder, InsertionPoint, create_module, i32
from ..ir.module import ModuleOp
from ..passes import PassManager
from ..sim import EngineOptions, simulate
from .systolic import SystolicConfig, build_systolic_program

STAGES = ("linalg", "affine", "reassign", "systolic")

#: The pass pipelines that lower the conv module to the linalg and the
#: affine stage.
PIPELINES = {
    "linalg": "allocate-buffer{memory=sram},launch{proc=kernel,label=conv}",
    "affine": "convert-linalg-to-affine-loops,equeue-read-write,"
    "allocate-buffer{memory=sram},launch{proc=kernel,label=conv}",
}


@dataclass
class StageResult:
    """Metrics for one lowering stage (one Fig. 11 data point)."""

    stage: str
    dataflow: str
    cycles: int
    execution_time_s: float
    sram_read_bw: float
    sram_write_bw: float
    register_read_bw: float
    register_write_bw: float
    ofmap: np.ndarray = field(repr=False, default=None)


@dataclass
class LoweringPipeline:
    """Builds and simulates the four stages for one workload."""

    dims: ConvDims
    array_height: int = 4
    array_width: int = 4
    dataflow: str = "WS"
    seed: int = 0

    # -- program builders ----------------------------------------------------

    def _conv_module(self) -> ModuleOp:
        """Structure + memref buffers + linalg.conv2d (pipeline input)."""
        module = create_module()
        builder = Builder(InsertionPoint.at_end(module.body))
        eq = EQueueBuilder(builder)
        eq.create_proc("ARMr5", name="kernel")
        eq.create_dma(name="dma")
        dims = self.dims
        total = (
            dims.c * dims.h * dims.w
            + dims.n * dims.c * dims.fh * dims.fw
            + dims.n * dims.eh * dims.ew
        )
        eq.create_mem("SRAM", 2 * total + 16, i32, banks=2, ports=2, name="sram")
        eq.create_mem("Register", 2 * total + 16, i32, name="regfile")
        ifmap = memref.alloc(builder, [dims.c, dims.h, dims.w], i32)
        ifmap.name_hint = "ifmap"
        weight = memref.alloc(builder, [dims.n, dims.c, dims.fh, dims.fw], i32)
        weight.name_hint = "weight"
        ofmap = memref.alloc(builder, [dims.n, dims.eh, dims.ew], i32)
        ofmap.name_hint = "ofmap"
        linalg.conv2d(builder, ifmap, weight, ofmap)
        return module

    def build_stage(self, stage: str) -> ModuleOp:
        """The module simulated at a given stage."""
        if stage in PIPELINES:
            module = self._conv_module()
            PassManager.parse(PIPELINES[stage]).run(module)
            return module
        if stage == "reassign":
            module = self._conv_module()
            manager = PassManager()
            manager.add("convert-linalg-to-affine-loops", flatten=True)
            manager.add("equeue-read-write")
            # §VI-D.2: operand buffers move into the register file...
            manager.add("allocate-buffer", memory="regfile")
            manager.add("launch", proc="kernel", label="conv")
            manager.run(module)
            # ...with DMA copies staging data between SRAM and registers.
            self._add_staging(module)
            return module
        if stage == "systolic":
            raise ValueError("use build_systolic() for the systolic stage")
        raise ValueError(f"unknown stage {stage!r}")

    def _add_staging(self, module: ModuleOp) -> None:
        """SRAM staging buffers + memcpys around the reassigned launch."""
        from ..passes.equeue_passes import (
            find_buffer,
            find_launch,
            find_memory,
            find_processor,
        )

        dims = self.dims
        sram = find_memory(module, "sram")
        launch = find_launch(module, "conv")
        builder = Builder(InsertionPoint.before(launch))
        eq = EQueueBuilder(builder)
        staged = {
            "ifmap": [dims.c, dims.h, dims.w],
            "weight": [dims.n, dims.c, dims.fh, dims.fw],
            "ofmap": [dims.n, dims.eh, dims.ew],
        }
        for name, shape in staged.items():
            eq.alloc(sram, shape, i32, name=f"{name}_sram")
        manager = PassManager()
        manager.add("memcpy", src="ifmap_sram", dst="ifmap", dma="dma")
        manager.add("memcpy", src="weight_sram", dst="weight", dma="dma")
        manager.run(module)
        # Copy the result back out after the launch completes.
        ofmap_reg = find_buffer(module, "ofmap")
        ofmap_sram = find_buffer(module, "ofmap_sram")
        dma_value = find_processor(module, "dma")
        tail = Builder(InsertionPoint.after(launch))
        eq_tail = EQueueBuilder(tail)
        back = eq_tail.memcpy(launch.result(0), ofmap_reg, ofmap_sram, dma_value)
        eq_tail.await_(back)

    def build_systolic(self):
        cfg = SystolicConfig(
            dataflow=self.dataflow,
            array_height=self.array_height,
            array_width=self.array_width,
            dims=self.dims,
        )
        return build_systolic_program(cfg)

    # -- data ------------------------------------------------------------------

    def make_data(self):
        rng = np.random.default_rng(self.seed)
        dims = self.dims
        ifmap = rng.integers(-4, 5, (dims.c, dims.h, dims.w)).astype(np.int32)
        weight = rng.integers(
            -4, 5, (dims.n, dims.c, dims.fh, dims.fw)
        ).astype(np.int32)
        return ifmap, weight

    # -- execution ----------------------------------------------------------------

    def run_stage(
        self, stage: str, options: Optional[EngineOptions] = None
    ) -> StageResult:
        ifmap, weight = self.make_data()
        if stage == "systolic":
            program = self.build_systolic()
            inputs = program.prepare_inputs(ifmap, weight)
            started = time.perf_counter()
            result = simulate(program.module, options, inputs=inputs)
            elapsed = time.perf_counter() - started
            ofmap = program.extract_ofmap(result)
        else:
            module = self.build_stage(stage)
            inputs = {"ifmap": ifmap, "weight": weight}
            if stage == "reassign":
                inputs = {"ifmap_sram": ifmap, "weight_sram": weight}
            started = time.perf_counter()
            result = simulate(module, options, inputs=inputs)
            elapsed = time.perf_counter() - started
            out_name = "ofmap_sram" if stage == "reassign" else "ofmap"
            ofmap = result.buffer(out_name).copy()
        summary = result.summary
        return StageResult(
            stage=stage,
            dataflow=self.dataflow,
            cycles=result.cycles,
            execution_time_s=elapsed,
            sram_read_bw=summary.bandwidth_by_memory_kind("SRAM", write=False),
            sram_write_bw=summary.bandwidth_by_memory_kind("SRAM", write=True),
            register_read_bw=summary.bandwidth_by_memory_kind(
                "Register", write=False
            ),
            register_write_bw=summary.bandwidth_by_memory_kind(
                "Register", write=True
            ),
            ofmap=np.asarray(ofmap).reshape(
                self.dims.n, self.dims.eh, self.dims.ew
            ),
        )

    def run_all(
        self, options: Optional[EngineOptions] = None
    ) -> Dict[str, StageResult]:
        results = {stage: self.run_stage(stage, options) for stage in STAGES}
        reference = results["linalg"].ofmap
        for stage, stage_result in results.items():
            if not np.array_equal(stage_result.ofmap, reference):
                raise AssertionError(
                    f"stage {stage!r} computed a different convolution result"
                )
        return results
