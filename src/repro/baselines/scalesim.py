"""A SCALE-Sim-style analytical systolic-array simulator (§VI-C baseline).

SCALE-Sim (Samajdar et al., 2018) is the validated special-purpose
simulator the paper compares its EQueue model against in Fig. 9.  The
original is unavailable offline, so this module reimplements its published
analytical timing model:

* The workload is tiled into *folds* of the stationary matrix,
  ``ceil(D1/R) * ceil(D2/C)`` for an ``R x C`` array.
* Each fold costs ``2R + C + T - 2`` cycles: ``R`` cycles to fill the
  stationary operands, ``R + C - 2`` cycles of skew through the array, and
  ``T`` cycles streaming the moving operands (SCALE-Sim's weight-stationary
  equation; the same form governs IS and OS with their dimension
  mappings).
* SRAM ofmap traffic is one element per array column per streamed vector
  per fold (WS/IS) or one tile drain per fold (OS).

Fig. 9's claim — that the general EQueue simulator matches the dedicated
simulator — is checked against the discrete-event results of
:mod:`repro.generators.systolic` by the figure table of
``tests/integration/test_paper_figures.py``.

The in-text LOC comparison of §VI-C is recorded in :data:`LOC_COMPARISON`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List

from ..dialects.linalg import ConvDims

ELEMENT_BYTES = 4


@dataclass(frozen=True)
class ScaleSimConfig:
    """Mirror of :class:`repro.generators.systolic.SystolicConfig`."""

    dataflow: str
    array_height: int
    array_width: int
    dims: ConvDims

    def __post_init__(self):
        if self.dataflow not in ("WS", "IS", "OS"):
            raise ValueError(f"unknown dataflow {self.dataflow!r}")
        self.dims.validate()

    @property
    def d1(self) -> int:
        dims = self.dims
        if self.dataflow == "OS":
            return dims.n
        return dims.fh * dims.fw * dims.c

    @property
    def d2(self) -> int:
        dims = self.dims
        if self.dataflow == "WS":
            return dims.n
        return dims.eh * dims.ew

    @property
    def stream_length(self) -> int:
        dims = self.dims
        if self.dataflow == "WS":
            return dims.eh * dims.ew
        if self.dataflow == "IS":
            return dims.n
        return dims.fh * dims.fw * dims.c


@dataclass
class ScaleSimResult:
    """Cycle count and SRAM traffic, plus a per-fold trace."""

    cycles: int
    folds: int
    cycles_per_fold: int
    ofmap_write_bytes: int
    ifmap_read_bytes: int
    weight_read_bytes: int
    execution_time_s: float
    fold_trace: List[Dict[str, int]]

    @property
    def avg_ofmap_write_bw(self) -> float:
        return self.ofmap_write_bytes / self.cycles if self.cycles else 0.0

    @property
    def utilization(self) -> float:
        """Fraction of PE-cycles doing useful MACs."""
        return self._utilization

    _utilization: float = 0.0


def run_scalesim(cfg: ScaleSimConfig) -> ScaleSimResult:
    """Run the analytical model; cheap enough for full design sweeps."""
    started = time.perf_counter()
    rows, cols = cfg.array_height, cfg.array_width
    folds_r = math.ceil(cfg.d1 / rows)
    folds_c = math.ceil(cfg.d2 / cols)
    folds = folds_r * folds_c
    t = cfg.stream_length
    per_fold = 2 * rows + cols + t - 2
    cycles = folds * per_fold

    if cfg.dataflow == "OS":
        ofmap_bytes = folds * rows * cols * ELEMENT_BYTES
    else:
        ofmap_bytes = folds * t * cols * ELEMENT_BYTES
    # Moving-operand traffic: one element per array row per streamed
    # vector; stationary traffic: one tile per fold.
    moving_bytes = folds * t * rows * ELEMENT_BYTES
    stationary_bytes = folds * rows * cols * ELEMENT_BYTES
    if cfg.dataflow == "WS":
        ifmap_bytes, weight_bytes = moving_bytes, stationary_bytes
    elif cfg.dataflow == "IS":
        ifmap_bytes, weight_bytes = stationary_bytes, moving_bytes
    else:
        ifmap_bytes, weight_bytes = moving_bytes, moving_bytes

    trace = []
    offset = 0
    for fold in range(folds):
        trace.append(
            {
                "fold": fold,
                "start": offset,
                "fill": rows,
                "stream": t,
                "drain": rows + cols - 2,
                "end": offset + per_fold,
            }
        )
        offset += per_fold

    useful_macs = cfg.dims.macs
    total_pe_cycles = cycles * rows * cols
    result = ScaleSimResult(
        cycles=cycles,
        folds=folds,
        cycles_per_fold=per_fold,
        ofmap_write_bytes=ofmap_bytes,
        ifmap_read_bytes=ifmap_bytes,
        weight_read_bytes=weight_bytes,
        execution_time_s=time.perf_counter() - started,
        fold_trace=trace,
    )
    result._utilization = (
        useful_macs / total_pe_cycles if total_pe_cycles else 0.0
    )
    return result


#: §VI-C in-text table: implementation effort, SCALE-Sim vs EQueue.
#: SCALE-Sim's numbers are quoted from the paper; the EQueue generator
#: numbers for *this* repository are measured by
#: ``repro.analysis.loc.measure_generator_loc`` and asserted in the bench.
LOC_COMPARISON = {
    "scalesim_ws_loc": 569,          # Python LOC of SCALE-Sim's WS model
    "scalesim_ws_to_is_delta": 410,  # LOC changed to switch WS -> IS
    "equeue_paper_ws_loc": 281,      # C++ LOC of the paper's WS generator
    "equeue_paper_ws_to_is_delta": 11,
}
