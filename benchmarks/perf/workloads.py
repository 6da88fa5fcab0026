"""The five benchmark workloads.

Each workload is one traffic shape over the public API of ``repro``; the
block runner (``block.py``) owns all timing.  A workload exposes

``setup()``
    everything before the first timed op (builds, warm-up, server boot).
``segments(pass_index)``
    the next pass as a list of zero-argument callables.  The runner
    times each callable as one *segment* and reads the host-speed
    ruler (see ``host.py``) after it; a segment returns the :class:`Op`
    records of the ops it ran.  Inputs are prepared here, outside the
    timed calls.
``judge(op)``
    the untimed correctness verdict for one op.
``close()``
    stops whatever ``setup`` started.

Why these five (``workloads.json`` has the frozen sizes):

* ``engine_steady`` — compile-once/execute-many: only ``sim`` works.
* ``cold_single_shot`` — the ``equeue-sim file.mlir`` text path: the
  front end (parser, verifier, passes, plan compile) pays, the DES is
  short.  The mirror image of ``engine_steady``.
* ``dse_sweep`` — the §VI-E sweep through ``run_sweep`` and its caches.
* ``service_warm`` — the read path: HTTP + scheduler fast path + store
  ``get``; zero simulations.
* ``service_mixed`` — the write path beside reads: WAL fsync,
  coalescing, build + DES, store ``put``, cold jobs blocking warm ones.

``--seed`` drives input data, op order and the request schedule; it
never changes *which structures* run, so simulated counts (cycles,
events, signatures) repeat exactly across seeds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.analysis import SweepSpec, run_sweep
from repro.analysis.dse import clear_sweep_caches
from repro.baselines.scalesim import ScaleSimConfig, run_scalesim
from repro.ir import parse_module, print_op, verify
from repro.obs import configure_logging, span
from repro.passes import PassManager
from repro.scenarios import Scenario, get_scenario, scenario_names
from repro.service import ServiceClient
from repro.service.server import make_server
from repro.sim import EngineOptions, PlanCache, simulate
from repro.sim.batch import process_compile_cache, result_record

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
OUT_DIR = REPO_ROOT / "benchmarks" / "out" / "perf"


@dataclass
class Op:
    """One executed op: what ran, how long it took, what came back."""

    op_id: str
    latency_s: float
    #: The call's return value, or the exception it raised.
    payload: object
    #: Units of work this record stands for (a sweep slice is 12 points).
    count: int = 1
    #: The scheduled request behind a service op.
    request: object = None


@dataclass
class Verdict:
    """The untimed judgement of one op."""

    #: Why the op failed; ``None`` when every check passed.
    error: Optional[str] = None
    #: What ``expected.json`` pins for this op (``None`` if it failed
    #: before producing one).
    fingerprint: Optional[Dict] = None
    #: ``|cycles - reference| / reference``; ``None`` when the op has no
    #: independent cycle reference.
    reference_error: Optional[float] = None
    #: ``ProfilingSummary`` fields of a simulation this op ran (dict).
    summary: Optional[Dict] = None
    #: Wire ``timings`` of a service job this op simulated.
    timings: Dict = field(default_factory=dict)


def timed(op_id: str, call: Callable[[], object]) -> Op:
    """Run ``call`` as one op.  An exception is a failed op, not a
    crashed benchmark, so it becomes the payload."""
    with span("op", id=op_id):
        started = time.perf_counter()
        try:
            payload = call()
        except Exception as error:  # noqa: BLE001 - op boundary
            payload = error
        return Op(op_id, time.perf_counter() - started, payload)


def scalesim_cycles(cfg) -> int:
    """SCALE-Sim's analytical cycle count for a systolic generator config."""
    return run_scalesim(
        ScaleSimConfig(cfg.dataflow, cfg.array_height, cfg.array_width, cfg.dims)
    ).cycles


def buffer_digest(result) -> str:
    """A digest of every named buffer's final contents."""
    digest = hashlib.sha256()
    for name in sorted(result.buffers):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(result.buffers[name].array).tobytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Programs: a scenario config plus how this benchmark runs it
# ---------------------------------------------------------------------------


@dataclass
class Program:
    """One simulated program and the checks that apply to it."""

    op_id: str
    scenario: Scenario
    cfg: object
    #: Textual IR (cold path) — parsed inside the op.
    text: str = ""
    #: Pass pipeline run inside the op after parsing ("" = none).
    pipeline: str = ""
    #: Pre-built module and warm plan cache (steady path).
    module: object = None
    plan_cache: Optional[PlanCache] = None
    inputs: Optional[Dict] = None

    def reference_cycles(self, checked: Dict) -> Optional[int]:
        """The independent cycle count: SCALE-Sim's analytical model for
        systolic programs, else the oracle's closed form if it has one."""
        generator_cfg = None
        if self.scenario.name == "systolic":
            generator_cfg = self.cfg.to_generator_config()
        elif getattr(self.cfg, "stage", "") == "systolic":
            generator_cfg = self.cfg.to_pipeline().build_systolic().config
        if generator_cfg is not None:
            return scalesim_cycles(generator_cfg)
        return checked.get("expected_cycles")

    def judge(self, result, seed: int) -> Verdict:
        if isinstance(result, Exception):
            return Verdict(error=f"{type(result).__name__}: {result}")
        verdict = Verdict(
            fingerprint={
                "cycles": int(result.cycles),
                "events": int(result.summary.scheduler_events),
                "digest": buffer_digest(result),
            },
            summary=result.summary.to_dict(),
        )
        try:
            with span("call.Scenario.check"):
                checked = self.scenario.check(self.cfg, result, seed)
        except AssertionError as error:
            verdict.error = f"oracle: {str(error).strip()[:200]}"
            return verdict
        reference = self.reference_cycles(checked)
        if reference:
            verdict.reference_error = abs(result.cycles - reference) / reference
        return verdict


@dataclass(frozen=True)
class _ToyConfig:
    """The toy accelerator has nothing to configure."""


def _toy_scenario(text: str) -> Scenario:
    """``examples/programs/toy_accelerator.mlir`` as an (unregistered)
    scenario, so it is built, fed and checked like every other program.
    The file documents its own ground truth: PE0 computes ``x*x + x``
    in 5 cycles."""

    def inputs(cfg, seed):
        rng = np.random.default_rng(seed)
        return {"sram_buf": rng.integers(-8, 9, 4).astype(np.int32)}

    def oracle(cfg, result, seed):
        x = inputs(cfg, seed)["sram_buf"]
        np.testing.assert_array_equal(result.buffer("buf0"), x * x + x)
        assert result.cycles == 5, f"cycles {result.cycles} != 5"
        return {"expected_cycles": 5, "cycles": result.cycles}

    return Scenario(
        name="toy",
        summary="Fig. 2 toy accelerator (textual IR)",
        config_cls=_ToyConfig,
        builder=lambda cfg: parse_module(text),
        inputs=inputs,
        oracle=oracle,
    )


def _build(scenario: Scenario, cfg):
    with span("call.Scenario.build"):
        return scenario.build(cfg)


def _make_inputs(scenario: Scenario, cfg, seed: int):
    with span("call.Scenario.make_inputs"):
        return scenario.make_inputs(cfg, seed)


def pass_rng(seed: int, pass_index: int) -> np.random.Generator:
    """The generator behind one pass's op order or request schedule."""
    return np.random.default_rng([seed, pass_index])


class Workload:
    """Common state: the seed, the frozen sizes, per-pass RNGs."""

    name = ""

    def __init__(self, seed: int, sizes: Dict):
        self.seed = seed
        self.sizes = sizes

    def rng(self, pass_index: int) -> np.random.Generator:
        return pass_rng(self.seed, pass_index)

    def setup(self) -> None:
        raise NotImplementedError

    def segments(self, pass_index: int) -> List[Callable[[], List[Op]]]:
        raise NotImplementedError

    def judge(self, op: Op) -> Verdict:
        raise NotImplementedError

    @property
    def expected_key(self) -> str:
        """This workload's table in ``expected.json``."""
        return self.name

    def pass_counts(self) -> Dict[str, float]:
        """Program-side counters since the previous call (one pass)."""
        return {}

    def pass_error(self, counts: Dict[str, float]) -> Optional[str]:
        """A pass-level failure the per-op verdicts cannot see."""
        return None

    def max_passes(self) -> Optional[int]:
        return None

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# engine_steady
# ---------------------------------------------------------------------------


class EngineSteady(Workload):
    """One op = one ``simulate()`` over a pre-warmed ``PlanCache``; three
    systolic conv programs (WS/IS/OS, 4x4 array, 16x16 image) in
    rotation."""

    name = "engine_steady"
    DIMS = dict(n=1, c=3, h=16, w=16, fh=2, fw=2)

    def setup(self) -> None:
        scenario = get_scenario("systolic")
        self.programs: Dict[str, Program] = {}
        for dataflow in self.sizes["dataflows"]:
            cfg = scenario.configure(
                dataflow=dataflow, array_height=4, array_width=4, **self.DIMS
            )
            program = Program(
                op_id=f"systolic-{dataflow}",
                scenario=scenario,
                cfg=cfg,
                module=_build(scenario, cfg),
                plan_cache=PlanCache(),
                inputs=_make_inputs(scenario, cfg, self.seed),
            )
            # Warm the plan cache: the timed ops compile nothing.
            simulate(
                program.module,
                EngineOptions(),
                inputs=program.inputs,
                plan_cache=program.plan_cache,
            )
            self.programs[program.op_id] = program

    def _simulate(self, program: Program) -> List[Op]:
        def call():
            with span("call.simulate"):
                return simulate(
                    program.module,
                    EngineOptions(),
                    inputs=program.inputs,
                    plan_cache=program.plan_cache,
                )

        return [timed(program.op_id, call)]

    def segments(self, pass_index: int):
        rotations = self.sizes["ops_per_pass"] // len(self.programs)
        order = list(self.programs.values()) * rotations
        self.rng(pass_index).shuffle(order)
        return [
            (lambda program=program: self._simulate(program))
            for program in order
        ]

    def judge(self, op: Op) -> Verdict:
        return self.programs[op.op_id].judge(op.payload, self.seed)


# ---------------------------------------------------------------------------
# cold_single_shot
# ---------------------------------------------------------------------------

#: The §VI-D lowering pipelines as ``equeue-opt`` pipeline strings.
LINALG_PIPELINE = "allocate-buffer{memory=sram},launch{proc=kernel,label=conv}"
AFFINE_PIPELINE = (
    "convert-linalg-to-affine-loops,equeue-read-write,"
    + LINALG_PIPELINE
)
#: Dims of ``programs/conv.mlir`` (the unlowered §VI-D conv module).
CONV_DIMS = dict(n=2, c=2, h=8, w=8, fh=3, fw=3)
#: Grid draws use this fixed generator, not ``--seed``: a seed must not
#: change which structures run (counts repeat exactly across seeds).
FIXED_DRAW_SEED = 2022


def simulate_text(program: Program):
    """The ``equeue-sim file.mlir`` path on text, call for call:
    parse, verify, optional pass pipeline, simulate with a fresh plan
    cache, canonical record."""
    with span("call.parse_module"):
        module = parse_module(program.text)
    with span("call.verify"):
        verify(module)
    if program.pipeline:
        with span("call.PassManager.run"):
            PassManager.parse(program.pipeline).run(module)
    with span("call.simulate"):
        result = simulate(
            module,
            EngineOptions(),
            inputs=program.inputs,
            plan_cache=PlanCache(),
        )
    with span("call.result_record"):
        result_record(result)
    return result, module


class ColdSingleShot(Workload):
    """One op = one program taken from text to record; 15 programs."""

    name = "cold_single_shot"

    def _scenario_program(self, op_id: str, scenario: Scenario, cfg) -> Program:
        module = _build(scenario, cfg)
        with span("call.print_op"):
            text = print_op(module)
        return Program(
            op_id=op_id,
            scenario=scenario,
            cfg=cfg,
            text=text,
            inputs=_make_inputs(scenario, cfg, self.seed),
        )

    def setup(self) -> None:
        programs: List[Program] = []
        draw = np.random.default_rng(FIXED_DRAW_SEED)
        for name in scenario_names():
            scenario = get_scenario(name)
            programs.append(
                self._scenario_program(
                    f"{name}-default", scenario, scenario.configure()
                )
            )
            points = scenario.grid_points()
            cfg = points[int(draw.integers(len(points)))]
            programs.append(
                self._scenario_program(f"{name}-grid", scenario, cfg)
            )
        pipeline = get_scenario("pipeline")
        conv_text = (PERF_DIR / "programs" / "conv.mlir").read_text()
        for stage, passes in (
            ("linalg", LINALG_PIPELINE),
            ("affine", AFFINE_PIPELINE),
        ):
            cfg = pipeline.configure(stage=stage, **CONV_DIMS)
            programs.append(
                Program(
                    op_id=f"conv-lower-{stage}",
                    scenario=pipeline,
                    cfg=cfg,
                    text=conv_text,
                    pipeline=passes,
                    inputs=_make_inputs(pipeline, cfg, self.seed),
                )
            )
        # The two pre-lowered stages complete the Fig. 11 ladder.  (With
        # them the pass has 15 ops: an odd count keeps its median latency
        # on one program instead of between two far-apart ones.)
        for stage in ("reassign", "systolic"):
            programs.append(
                self._scenario_program(
                    f"conv-{stage}",
                    pipeline,
                    pipeline.configure(stage=stage, **CONV_DIMS),
                )
            )
        toy_text = (
            REPO_ROOT / "examples" / "programs" / "toy_accelerator.mlir"
        ).read_text()
        toy = _toy_scenario(toy_text)
        programs.append(
            Program(
                op_id="toy-accelerator",
                scenario=toy,
                cfg=toy.configure(),
                text=toy_text,
                inputs=_make_inputs(toy, toy.configure(), self.seed),
            )
        )
        self.programs = {program.op_id: program for program in programs}
        self.parsed_ops = 0
        self.ops_after_passes = 0

    def _run_pass(self, order: List[Program]) -> List[Op]:
        ops = []
        for program in order:
            op = timed(program.op_id, lambda: simulate_text(program))
            if not isinstance(op.payload, Exception):
                result, module = op.payload
                op.payload = result
                # Counted after the op, outside its latency.
                size = sum(1 for _ in module.walk())
                self.parsed_ops += size
                if program.pipeline:
                    self.ops_after_passes += size
            ops.append(op)
        return ops

    def segments(self, pass_index: int):
        order = list(self.programs.values())
        self.rng(pass_index).shuffle(order)
        return [lambda: self._run_pass(order)]

    def judge(self, op: Op) -> Verdict:
        return self.programs[op.op_id].judge(op.payload, self.seed)

    def pass_counts(self) -> Dict[str, float]:
        counts = {
            "ir.parsed_ops": self.parsed_ops,
            "passes.ops_out": self.ops_after_passes,
        }
        self.parsed_ops = self.ops_after_passes = 0
        return counts


# ---------------------------------------------------------------------------
# dse_sweep
# ---------------------------------------------------------------------------

def sweep_slices() -> List[SweepSpec]:
    """The 288-point / 62-signature sweep of the legacy bench
    (``record_bench.throughput_sweep_spec``) as 24 (dataflow,
    array_height, image, filter) slices of 12 points each."""
    sys.path.append(str(REPO_ROOT / "benchmarks"))
    try:
        from record_bench import throughput_sweep_spec
    finally:
        sys.path.pop()
    spec = throughput_sweep_spec()
    return [
        dataclasses.replace(
            spec,
            dataflows=(dataflow,),
            array_heights=(height,),
            image_sizes=(image,),
            filter_sizes=(filt,),
        )
        for dataflow, height, image, filt in itertools.product(
            spec.dataflows, spec.array_heights, spec.image_sizes, spec.filter_sizes
        )
    ]


def slice_id(spec: SweepSpec) -> str:
    return (
        f"{spec.dataflows[0]}-ah{spec.array_heights[0]}"
        f"-i{spec.image_sizes[0]}-f{spec.filter_sizes[0]}"
    )


class DseSweep(Workload):
    """One op = one DSE point; issued as ``run_sweep`` calls of one
    12-point slice each, process caches empty at pass start.  The slice
    order is fixed: which slice pays for a shared signature is part of
    what the sweep layer is measured on."""

    name = "dse_sweep"

    def setup(self) -> None:
        self.slices = sweep_slices()[: self.sizes["slices"]]
        self.cold = True

    def _run_slice(self, spec: SweepSpec) -> List[Op]:
        def call():
            with span("call.run_sweep"):
                return run_sweep(
                    spec,
                    use_des=True,
                    seed=self.seed,
                    jobs=1,
                    compile_cache=True,
                    reuse_results=True,
                )

        op = timed(slice_id(spec), call)
        # The slice's wall is shared by its points: one sample per slice
        # at (slice wall / points), the per-point cost a caller sees.
        op.count = self.sizes["points_per_slice"]
        op.latency_s /= op.count
        return [op]

    def segments(self, pass_index: int):
        if self.cold:
            clear_sweep_caches()
        return [(lambda spec=spec: self._run_slice(spec)) for spec in self.slices]

    def judge(self, op: Op) -> Verdict:
        points = op.payload
        if isinstance(points, Exception):
            return Verdict(error=f"{type(points).__name__}: {points}")
        rows = [
            (p.cycles, p.loop_iterations, repr(p.peak_write_bw_x_portion))
            for p in points
        ]
        worst = 0.0
        for point in points:
            reference = scalesim_cycles(point.config)
            worst = max(worst, abs(point.cycles - reference) / reference)
        error = None
        if len(points) != op.count or not all(p.simulated for p in points):
            error = f"expected {op.count} simulated points"
        return Verdict(
            error=error,
            fingerprint={
                "cycles": int(sum(p.cycles for p in points)),
                "events": int(sum(p.loop_iterations for p in points)),
                "digest": hashlib.sha256(repr(rows).encode()).hexdigest()[:16],
            },
            reference_error=worst,
        )

    def pass_counts(self) -> Dict[str, float]:
        stats = process_compile_cache().stats
        return {
            "batch.compile_cache_hits": stats.program_hits,
            "batch.compile_cache_misses": stats.programs_built,
        }


# ---------------------------------------------------------------------------
# The service workloads
# ---------------------------------------------------------------------------

#: Structures of the pre-populated (already seen) request pool.
BASE_STRUCTURES = [
    ("gemm", {}),
    ("gemm", {"k": 32, "tile_k": 8}),
    ("mesh", {}),
    ("mesh", {"rows": 3, "cols": 3}),
    ("fir", {}),
    ("fir", {"samples": 32}),
    ("systolic", {}),
    ("pipeline", {}),
]


def novel_structures() -> List:
    """A fixed, ordered supply of small configs that are never in the
    base pool: what ``service_mixed`` submits as first-seen structures."""
    gemm = [
        ("gemm", {"m": m, "n": n, "k": k, "tile_k": tile})
        for m, n, k, tile in itertools.product(
            (5, 6, 7, 8, 9), (4, 5, 6, 7, 8), (16, 32, 48), (4, 8)
        )
    ]
    mesh = [
        ("mesh", {"rows": r, "cols": c, "rounds": rounds, "link_bandwidth": bw})
        for r, c, rounds, bw in itertools.product(
            (2, 3, 4), (2, 3, 4), (2, 3, 5, 6), (1, 4)
        )
    ]
    fir = [
        ("fir", {"n_cores": cores, "taps": taps, "samples": samples, "bandwidth": bw})
        for cores, taps, samples, bw in itertools.product(
            (1, 2, 4), (16, 48), (32, 96, 128), (0, 8)
        )
    ]
    mixed = gemm + mesh + fir
    # A fixed shuffle: every pass draws a like sample of the space, and
    # the same one whatever the seed.
    np.random.default_rng(FIXED_DRAW_SEED).shuffle(mixed)
    return mixed


def structure_id(name: str, config: Dict) -> str:
    if not config:
        return name
    return name + ":" + ",".join(f"{k}={v}" for k, v in sorted(config.items()))


@dataclass(frozen=True)
class Request:
    """One scheduled HTTP request."""

    name: str
    config: tuple
    seed: int
    #: "repeat" must be answered without a new simulation; "first" is a
    #: key the service has not seen.
    kind: str

    @property
    def structure(self) -> str:
        return structure_id(self.name, dict(self.config))


def request(structure, seed: int, kind: str) -> Request:
    name, config = structure
    return Request(name, tuple(sorted(config.items())), seed, kind)


#: Requests per client between two ruler readings.
SEGMENT_REQUESTS = 25


class ServiceWorkload(Workload):
    """An in-process durable ``equeue-serve`` plus closed-loop clients."""

    clients = 2
    expected_key = "service"
    #: ``source`` values a response may carry.
    sources: tuple = ("store",)

    def boot(self) -> None:
        """Start the server and simulate the base pool once, so that
        every request in ``self.known`` is a store hit from then on."""
        configure_logging(level="warning")  # silence access logs
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.state_dir = tempfile.mkdtemp(prefix="state-", dir=OUT_DIR)
        self.server = make_server(
            host="127.0.0.1", port=0, state_dir=self.state_dir
        )
        self.server.scheduler.start()
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self.client = ServiceClient(self.url, timeout=60.0)
        self._last_stats = None
        self.simulated_jobs: set = set()
        per_structure = self.sizes["prepopulated"] // len(BASE_STRUCTURES)
        self.known = [
            request(structure, self.seed * 1000 + i, "repeat")
            for structure in BASE_STRUCTURES
            for i in range(per_structure)
        ]
        for item in self.known:
            job = self.send(self.client, item).payload
            if isinstance(job, Exception) or job["source"] != "simulated":
                raise RuntimeError(f"pre-population of {item} failed: {job}")
        self.pass_counts()  # baseline for the first pass's deltas

    def send(self, client: ServiceClient, item: Request) -> Op:
        def call():
            with span("call.ServiceClient.run"):
                return client.run(
                    item.name,
                    config=dict(item.config) or None,
                    seed=item.seed,
                )

        op = timed(item.structure, call)
        op.request = item
        return op

    def loop_segments(self, schedules: List[List[Request]]):
        """One pass as segments of ``SEGMENT_REQUESTS`` requests per
        client.  The ruler is read after every segment, and its mean
        over a block is only as good as the number of readings (the
        host flips between two speeds): one reading per pass left the
        ruler noisier than the service it scales."""
        longest = max(len(schedule) for schedule in schedules)
        return [
            (
                lambda start=start: self.closed_loop(
                    [s[start : start + SEGMENT_REQUESTS] for s in schedules]
                )
            )
            for start in range(0, longest, SEGMENT_REQUESTS)
        ]

    def closed_loop(self, schedules: List[List[Request]]) -> List[Op]:
        """Each client thread sends its schedule back to back; all start
        together and the segment ends when the last one finishes."""
        results: List[List[Op]] = [[] for _ in schedules]
        barrier = threading.Barrier(len(schedules))

        def worker(index: int) -> None:
            client = ServiceClient(self.url, timeout=60.0, retries=1)
            barrier.wait()
            results[index] = [self.send(client, item) for item in schedules[index]]

        threads = [
            threading.Thread(target=worker, args=(i,), name=f"client-{i}")
            for i in range(len(schedules))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [op for ops in results for op in ops]

    def judge(self, op: Op) -> Verdict:
        job = op.payload
        if isinstance(job, Exception):
            return Verdict(error=f"{type(job).__name__}: {job}")
        record = job.get("record") or {}
        summary = record.get("summary") or {}
        verdict = Verdict(
            fingerprint={
                "cycles": record.get("cycles"),
                "events": summary.get("scheduler_events"),
            },
        )
        checked = record.get("checked") or {}
        if job.get("source") not in self.sources:
            verdict.error = f"source {job.get('source')!r} not in {self.sources}"
        elif not checked:
            verdict.error = "record carries no oracle verdict"
        reference = checked.get("expected_cycles")
        if reference:
            verdict.reference_error = abs(record["cycles"] - reference) / reference
        if job.get("source") == "simulated" and job["id"] not in self.simulated_jobs:
            # Coalesced waiters share one job: count its simulation once.
            self.simulated_jobs.add(job["id"])
            verdict.summary = summary
            verdict.timings = job.get("timings", {})
        return verdict

    def pass_counts(self) -> Dict[str, float]:
        stats = self.client.stats()
        now = {
            "store.hits": stats["store"]["hits"],
            "store.misses": stats["store"]["misses"],
            "scheduler.coalesced": stats["coalesced"],
            "scheduler.batches": stats["batches"],
            "scheduler.simulated": stats["simulated"],
            "scenarios.program_cache_hits": stats["program_cache"]["program_hits"],
        }
        last, self._last_stats = self._last_stats or now, now
        return {key: now[key] - last[key] for key in now}

    def close(self) -> None:
        self.server.shutdown()
        self.server.scheduler.stop()
        self.server.server_close()
        self.thread.join(timeout=30)
        shutil.rmtree(self.state_dir, ignore_errors=True)


def uniform_schedules(rng, pool: List, clients: int, count: int) -> List[List]:
    """Per client, ``count`` uniform draws from ``pool``."""
    return [
        [pool[i] for i in rng.integers(len(pool), size=count)]
        for _ in range(clients)
    ]


class ServiceWarm(ServiceWorkload):
    """Uniform repeats over a pre-populated pool: every response must
    come from the store."""

    name = "service_warm"

    def setup(self) -> None:
        self.boot()
        self.injected: List[Request] = []

    def inject_bad_request(self) -> None:
        self.injected = [request(("no-such-scenario", {}), 0, "repeat")]

    def pass_error(self, counts):
        if counts["scheduler.simulated"]:
            return f"{counts['scheduler.simulated']} simulations on the warm path"
        return None

    def segments(self, pass_index: int):
        schedules = uniform_schedules(
            self.rng(pass_index),
            self.known,
            self.clients,
            self.sizes["requests_per_client"],
        )
        schedules[0].extend(self.injected)
        return self.loop_segments(schedules)


class ServiceMixed(ServiceWorkload):
    """A quarter of the requests are first-seen keys (half a new
    structure, half a new seed on a known structure); the rest repeat a
    key already completed or in flight."""

    name = "service_mixed"
    # A repeat can overtake its first-seen twin on the other client, so
    # either of the two may be the one that simulates; pass_error holds
    # the exact count instead.
    sources = ("store", "simulated")

    def setup(self) -> None:
        self.boot()
        self.novel = novel_structures()
        per_pass = self.sizes["requests_per_client"] * self.clients
        self.first_seen = int(per_pass * self.sizes["first_seen_share"])
        self.new_structures = self.first_seen // 2

    def max_passes(self) -> int:
        return len(self.novel) // self.new_structures

    def pass_error(self, counts):
        if counts["scheduler.simulated"] != self.first_seen:
            return (
                f"{counts['scheduler.simulated']} simulations for "
                f"{self.first_seen} first-seen keys"
            )
        return None

    def segments(self, pass_index: int):
        rng = self.rng(pass_index)
        start = pass_index * self.new_structures
        firsts = [
            request(structure, self.seed, "first")
            for structure in self.novel[start : start + self.new_structures]
        ]
        # New seeds walk the base structures round-robin, so the set of
        # simulated structures does not depend on --seed.
        firsts += [
            request(
                BASE_STRUCTURES[i % len(BASE_STRUCTURES)],
                self.seed * 1000 + 500 + pass_index * self.first_seen + i,
                "first",
            )
            for i in range(self.first_seen - self.new_structures)
        ]
        total = self.sizes["requests_per_client"] * self.clients
        slots = set(rng.choice(total, size=len(firsts), replace=False).tolist())
        rng.shuffle(firsts)
        schedule: List[Request] = []
        pending = iter(firsts)
        for position in range(total):
            if position in slots:
                item = next(pending)
                schedule.append(item)
                self.known.append(request((item.name, dict(item.config)), item.seed, "repeat"))
            else:
                schedule.append(self.known[int(rng.integers(len(self.known)))])
        # Deal the global order out to the clients alternately.
        schedules = [schedule[i :: self.clients] for i in range(self.clients)]
        return self.loop_segments(schedules)


WORKLOADS = {
    cls.name: cls
    for cls in (EngineSteady, ColdSingleShot, DseSweep, ServiceWarm, ServiceMixed)
}


def load_sizes(quick: bool) -> Dict[str, Dict]:
    spec = json.loads((PERF_DIR / "workloads.json").read_text())
    return {
        name: {**entry["sizes"], **(entry["quick"] if quick else {})}
        for name, entry in spec["workloads"].items()
    }
