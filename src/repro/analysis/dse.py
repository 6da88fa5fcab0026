"""Design-space exploration sweeps (§VI-E, Fig. 12).

The paper sweeps 4,050 combinations of array configuration and convolution
shape across the three dataflows.  :func:`paper_sweep_spec` reconstructs
that space; :func:`run_sweep` evaluates points either with the full
discrete-event simulation (slow, exact) or the analytical model (instant,
used for the full-space figures — the test suite separately asserts
DES == analytical on sampled points, which is what justifies the
substitution).

Sweeps scale along two axes (see :mod:`repro.sim.batch`): ``jobs=N``
shards the points across a process pool with deterministic, bit-identical
merging, and the process's compile cache (on by default for ``jobs != 1``)
reuses built modules and compiled block plans between structurally
identical points (with ``reuse_results``, the DES results too, memoized
on the programs).  Execution, journaling and resume are
:func:`repro.sim.batch.journaled_sweep`, the driver scenario sweeps use.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..dialects.linalg import ConvDims
from ..generators.systolic import (
    SystolicConfig,
    SystolicProgram,
    build_systolic_program,
)
from ..scenarios.sweep import ScenarioGrid, run_scenario_sweep
from ..sim import simulate
from ..sim.batch import (
    CachedProgram,
    ResilienceStats,
    SweepRunner,
    deterministic_conv_inputs,
    journaled_sweep,
    process_compile_cache,
    structural_signature,
    subsample,
)


@dataclass(frozen=True)
class SweepSpec:
    """The cartesian sweep space."""

    array_heights: Sequence[int]
    total_pes: int
    image_sizes: Sequence[int]     # H = W
    filter_sizes: Sequence[int]    # Fh = Fw
    channels: Sequence[int]        # C
    filter_counts: Sequence[int]   # N
    dataflows: Sequence[str] = ("WS", "IS", "OS")

    def points(self) -> Iterable[SystolicConfig]:
        for dataflow, height, image, filt, chan, count in itertools.product(
            self.dataflows,
            self.array_heights,
            self.image_sizes,
            self.filter_sizes,
            self.channels,
            self.filter_counts,
        ):
            if filt > image:
                continue  # filter larger than the image: not a valid conv
            width = self.total_pes // height
            dims = ConvDims(n=count, c=chan, h=image, w=image, fh=filt, fw=filt)
            yield SystolicConfig(
                dataflow=dataflow,
                array_height=height,
                array_width=width,
                dims=dims,
            )

    def count(self) -> int:
        return sum(1 for _ in self.points())


def paper_sweep_spec() -> SweepSpec:
    """The §VI-E space: Ah ∈ {2..32} with Aw = 64/Ah, H/W ∈ {2..32},
    Fh/Fw and C ∈ {1,2,4} independently, N ∈ {1..32} — 4,050 nominal
    combinations over the 3 dataflows (invalid filter>image points are
    skipped)."""
    return SweepSpec(
        array_heights=(2, 4, 8, 16, 32),
        total_pes=64,
        image_sizes=(2, 4, 8, 16, 32),
        filter_sizes=(1, 2, 4),
        channels=(1, 2, 4),
        filter_counts=(1, 2, 4, 8, 16, 32),
    )


@dataclass
class DSEPoint:
    """One sweep measurement (one Fig. 12 scatter point)."""

    config: SystolicConfig
    cycles: int
    loop_iterations: int
    execution_time_s: float
    peak_write_bw_x_portion: float
    simulated: bool  # True = DES, False = analytical model

    @property
    def dataflow(self) -> str:
        return self.config.dataflow


def evaluate_point(
    cfg: SystolicConfig,
    use_des: bool,
    seed: int = 0,
    compile_cache: bool = False,
) -> DSEPoint:
    """Evaluate one configuration with the DES or the analytical model.

    ``compile_cache=True`` routes the DES through this process's
    cross-simulation compile cache, reusing the built module and the
    compiled block plans of any structurally identical configuration
    evaluated earlier — keyed exactly as the ``systolic`` scenario keys
    its programs (:meth:`repro.scenarios.Scenario.signature`), so a
    scenario request and a DSE point of one structure share an entry.
    Results are bit-identical to the default cold build (the batch
    sweep runner turns this on).
    """
    if not use_des:
        started = time.perf_counter()
        cycles = cfg.expected_cycles
        elapsed = time.perf_counter() - started
        peak = cfg.average_ofmap_write_bw()
        return DSEPoint(
            config=cfg,
            cycles=cycles,
            loop_iterations=cfg.loop_iterations,
            execution_time_s=elapsed,
            peak_write_bw_x_portion=peak,
            simulated=False,
        )
    return _measure(cfg, seed, _cached_program(cfg) if compile_cache else None)


def _cached_program(cfg: SystolicConfig) -> CachedProgram:
    """This process's cached program for ``cfg``'s structure."""
    return process_compile_cache().lookup(
        ("systolic",) + structural_signature(cfg),
        lambda: build_systolic_program(cfg),
    )


def _measure(
    cfg: SystolicConfig, seed: int, cached: Optional[CachedProgram]
) -> DSEPoint:
    """One DES measurement: on ``cached``'s program, or on a cold build
    when it is ``None``."""
    if cached is None:
        program = build_systolic_program(cfg)
    else:
        program = SystolicProgram(cached.module, cfg)
    inputs = program.prepare_inputs(*deterministic_conv_inputs(cfg.dims, seed))
    started = time.perf_counter()
    if cached is None:
        result = simulate(program.module, inputs=inputs)
    else:
        result = cached.simulate(inputs)
    elapsed = time.perf_counter() - started
    ofmap_report = result.summary.memory_named("ofmap_mem")
    peak = ofmap_report.avg_write_bandwidth if ofmap_report else 0.0
    return DSEPoint(
        config=cfg,
        cycles=result.cycles,
        loop_iterations=cfg.loop_iterations,
        execution_time_s=elapsed,
        peak_write_bw_x_portion=peak,
        simulated=True,
    )


def clear_sweep_caches() -> None:
    """Return this process to cold: drop its one compile cache — the
    programs of DSE points, scenario sweeps and service jobs, their
    plans, and the DES results memoized on them.

    Benchmarks use this to measure cold behaviour; note it cannot reach
    caches already inherited by live worker processes.
    """
    process_compile_cache().clear()


def _sweep_worker(payload: Tuple) -> DSEPoint:
    """Spawn-safe sweep worker: evaluate one pickled payload.

    With ``reuse_results``, DES measurements are memoized per structural
    signature: the generated module — and therefore every timing-visible
    quantity the sweep records (cycles, loop iterations, ofmap traffic,
    bandwidth) — depends only on the signature, while the per-point conv
    data never influences timing in the systolic model.  Each point looks
    its program up once; the first of each structure runs the full DES
    and keeps it on the program by seed (``CachedProgram.measured``:
    bounded by the cache, gone with the program), and replicas copy its
    measurements under their own config.  ``tests/analysis/test_parallel_sweep.py``
    holds replicas bit-identical to individually simulated points.
    """
    cfg, use_des, seed, compile_cache, reuse_results = payload
    if not (use_des and reuse_results):
        return evaluate_point(
            cfg, use_des=use_des, seed=seed, compile_cache=compile_cache
        )
    cached = _cached_program(cfg)
    representative = cached.measured.get(seed)
    if representative is None:
        representative = cached.measured[seed] = _measure(cfg, seed, cached)
        return representative
    return DSEPoint(
        config=cfg,
        cycles=representative.cycles,
        loop_iterations=cfg.loop_iterations,
        execution_time_s=representative.execution_time_s,
        peak_write_bw_x_portion=representative.peak_write_bw_x_portion,
        simulated=True,
    )


def _payload_signature(payload: Tuple) -> Tuple:
    """Shard key: group structurally identical points in one worker."""
    return structural_signature(payload[0])


def _payload_context(payload: Tuple) -> str:
    """Fault-hook context for one payload (``batch.worker`` targeting)."""
    cfg = payload[0]
    return f"{cfg.dataflow}:{cfg.array_height}x{cfg.array_width}"


# -- journal codecs ---------------------------------------------------------


def dse_point_record(point: DSEPoint) -> Dict:
    """The JSON-native form of one systolic sweep point (journal)."""
    cfg = point.config
    return {
        "config": {
            "dataflow": cfg.dataflow,
            "array_height": int(cfg.array_height),
            "array_width": int(cfg.array_width),
            "dims": asdict(cfg.dims),
        },
        "cycles": int(point.cycles),
        "loop_iterations": int(point.loop_iterations),
        "execution_time_s": float(point.execution_time_s),
        "peak_write_bw_x_portion": float(point.peak_write_bw_x_portion),
        "simulated": bool(point.simulated),
    }


def dse_point_from_record(record: Mapping) -> DSEPoint:
    """Rebuild a :class:`DSEPoint` from its journaled record."""
    spec = record["config"]
    config = SystolicConfig(
        dataflow=spec["dataflow"],
        array_height=spec["array_height"],
        array_width=spec["array_width"],
        dims=ConvDims(**spec["dims"]),
    )
    return DSEPoint(
        config=config,
        cycles=record["cycles"],
        loop_iterations=record["loop_iterations"],
        execution_time_s=record["execution_time_s"],
        peak_write_bw_x_portion=record["peak_write_bw_x_portion"],
        simulated=record["simulated"],
    )


def run_sweep(
    spec: SweepSpec,
    use_des: bool = False,
    sample: Optional[int] = None,
    max_cycles: Optional[int] = None,
    seed: int = 0,
    jobs: Optional[int] = 1,
    chunk_size: Optional[int] = None,
    compile_cache: Optional[bool] = None,
    reuse_results: Optional[bool] = None,
    journal=None,
    resume: bool = False,
    cancel=None,
    runner_stats: Optional[ResilienceStats] = None,
    chunk_deadline_s: Optional[float] = None,
) -> List[DSEPoint]:
    """Evaluate the sweep.

    ``spec`` may also be a :class:`repro.scenarios.ScenarioGrid` — a
    registry sweep grid over any registered workload — in which case
    the evaluation delegates to
    :func:`repro.scenarios.run_scenario_sweep` (always DES; returns
    :class:`~repro.scenarios.ScenarioPoint` rows instead of
    :class:`DSEPoint`) with the same
    ``jobs``/``chunk_size``/``seed``/``sample`` semantics, including
    bit-identical parallel merging.  The systolic-specific knobs do not
    transfer: ``use_des`` is ignored (scenario points are always
    simulated — there is no per-scenario analytical model) and
    ``max_cycles``/``compile_cache``/``reuse_results`` raise
    ``ValueError`` rather than being silently dropped.

    ``sample``: evaluate only a deterministic subsample of that many points
    (used when ``use_des`` to keep bench runtimes reasonable).
    ``max_cycles``: skip configurations whose analytical estimate exceeds
    the bound (DES cost control).
    ``jobs``: shard the evaluation across this many worker processes
    (``None`` or ``0`` = all usable CPUs).  ``jobs=1`` (the default) is
    the bit-exact serial reference — every point individually built and
    simulated in-process, in order.  Any other value shards through the
    :class:`repro.sim.batch.SweepRunner` pool; results come back in
    point order and are bit-identical to the reference (the determinism
    tests hold the two equal).
    ``chunk_size``: points per dispatched chunk (``None`` = balanced).
    ``compile_cache``: reuse modules/plans between structurally identical
    points (``None`` = on for the batch runner, off for the reference
    loop; see :func:`evaluate_point`).
    ``reuse_results``: memoize whole DES measurements per structural
    signature (``None`` = same policy; see :func:`_sweep_worker`).  The
    memo lives on the compile cache's programs, so ``reuse_results=True``
    implies the compile cache whatever ``compile_cache`` says.
    ``journal``/``resume``/``cancel``/``runner_stats``/
    ``chunk_deadline_s`` follow
    :func:`repro.scenarios.run_scenario_sweep`'s resilience semantics:
    checkpoint points as they complete, resume a journal's valid prefix
    (bit-identical merge), drain gracefully on cancel, account recovery
    work, and bound each parallel dispatch round's wall clock.
    """
    if isinstance(spec, ScenarioGrid):
        unsupported = {
            "max_cycles": max_cycles,
            "compile_cache": compile_cache,
            "reuse_results": reuse_results,
        }
        passed = [key for key, value in unsupported.items() if value is not None]
        if passed:
            raise ValueError(
                "run_sweep over a ScenarioGrid does not support "
                + ", ".join(passed)
                + " (scenario sweeps always use the per-process program "
                "cache and have no analytical cycle estimate)"
            )
        return run_scenario_sweep(
            spec,
            jobs=jobs,
            seed=seed,
            sample=sample,
            chunk_size=chunk_size,
            journal=journal,
            resume=resume,
            cancel=cancel,
            runner_stats=runner_stats,
            chunk_deadline_s=chunk_deadline_s,
        )
    points = subsample(list(spec.points()), sample, seed)
    if max_cycles is not None:
        points = [
            cfg for cfg in points if cfg.expected_cycles <= max_cycles
        ]
    # jobs=1 stays the cold build-every-point reference unless asked.
    batched = jobs != 1
    if compile_cache is None:
        compile_cache = batched
    if reuse_results is None:
        reuse_results = batched
    return journaled_sweep(
        _sweep_worker,
        [(cfg, use_des, seed, compile_cache, reuse_results) for cfg in points],
        # Identity only: ``jobs``/``compile_cache``/``reuse_results``
        # choose how points are computed, never what they are.
        request={
            "spec": asdict(spec),
            "use_des": bool(use_des),
            "sample": sample,
            "max_cycles": max_cycles,
            "seed": int(seed),
        },
        encode=dse_point_record,
        decode=dse_point_from_record,
        runner=SweepRunner(
            jobs=jobs,
            chunk_size=chunk_size,
            key=_payload_signature,
            describe=_payload_context,
            chunk_deadline_s=chunk_deadline_s,
        ),
        journal=journal,
        resume=resume,
        cancel=cancel,
        runner_stats=runner_stats,
    )
