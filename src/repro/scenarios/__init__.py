"""Workload scenarios as first-class, enumerable registry objects.

* :mod:`repro.scenarios.registry` — the :class:`Scenario` record, the
  registry, and the ``name:key=val,...`` config parser.
* :mod:`repro.scenarios.builtin` — the paper's case studies (systolic,
  FIR, lowering pipeline) re-registered through the registry.
* :mod:`repro.scenarios.gemm` — the double-buffered tiled GEMM workload
  (DMA ping-pong staging overlapping DRAM latency with compute).
* :mod:`repro.scenarios.mesh` — the N x M multi-core mesh workload
  (per-hop interconnect latency, barrier-synchronized rounds).
* :mod:`repro.scenarios.sweep` — registry grids + the sharded,
  compile-cached sweep runner over them.

Importing this package registers the built-in scenarios; see
``docs/scenarios.md`` for the full API and the how-to for adding a
workload.
"""

from . import builtin  # noqa: F401  (registers the built-in scenarios)
from .gemm import GemmConfig, build_gemm_module, check_gemm
from .mesh import MeshConfig, build_mesh_module, check_mesh
from .registry import (
    Scenario,
    ScenarioError,
    all_scenarios,
    get_scenario,
    parse_scenario_spec,
    register_scenario,
    scenario_names,
)
from .sweep import (
    ScenarioGrid,
    ScenarioPoint,
    cached_scenario_program,
    grid_record,
    run_scenario_sweep,
    scenario_grid,
    scenario_point_export_record,
    scenario_point_from_record,
    scenario_point_record,
    simulate_scenario,
)

__all__ = [
    "GemmConfig", "build_gemm_module", "check_gemm",
    "MeshConfig", "build_mesh_module", "check_mesh",
    "Scenario", "ScenarioError", "all_scenarios", "get_scenario",
    "parse_scenario_spec", "register_scenario", "scenario_names",
    "ScenarioGrid", "ScenarioPoint", "cached_scenario_program",
    "grid_record", "run_scenario_sweep", "scenario_grid",
    "scenario_point_export_record", "scenario_point_from_record",
    "scenario_point_record", "simulate_scenario",
]
