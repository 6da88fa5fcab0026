"""The in-process job scheduler: coalesce, batch, simulate, spill.

Sitting between the HTTP front end and the simulation stack, the
scheduler guarantees the service's core invariant — **identical
requests never pay for simulation twice** — via three mechanisms, in
lookup order:

1. **Store hits.**  A submitted request whose key is already in the
   :class:`~repro.service.store.ResultStore` is answered by a settled
   view of the stored line: nothing is queued, no engine work happens,
   nothing is written and nothing is indexed — the hit's id
   (``hit-<key>``) names its record.
2. **Request coalescing.**  A request whose key matches a queued or
   running job joins that job instead of creating a new one — N callers
   wait on one simulation, and each sees the same completed record.
3. **Batched execution.**  Queued jobs are drained in batches: grouped
   by engine-options digest (only compatible jobs share a batch),
   ordered signature-affinely, and run through
   :class:`~repro.sim.batch.SweepRunner` over the process's one
   program cache, the one every sweep path uses
   (:func:`~repro.scenarios.sweep.simulate_scenario`), so structurally
   identical jobs in one batch compile once.  Every fresh record is
   spilled to the store before waiters wake.

Records are normalized through their canonical JSON line before a job
completes, so a response is bit-identical whether it was simulated just
now, coalesced onto another caller's job, or read back from the store
warm — one of the service's determinism guarantees, and the one the
warm==cold tests pin.

The scheduler is synchronous-friendly (:meth:`JobScheduler.run_pending`
drains the queue on the calling thread — deterministic, used by tests)
and serves the HTTP front end from a background worker thread
(:meth:`~JobScheduler.start` / :meth:`~JobScheduler.stop`).
"""

from __future__ import annotations

import json
import operator
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field, fields
from itertools import islice
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .. import faults
from ..obs import logs as obs_logs
from ..obs import metrics as obs_metrics
from ..obs.spans import span as _span
from ..scenarios import (
    ScenarioError, get_scenario, parse_scenario_spec, scenario_cache_stats,
)
from ..scenarios.sweep import grid_record, scenario_grid, simulate_scenario
from ..sim.batch import ResilienceStats, SweepRunner, result_record, subsample
from ..sim.engine import EngineOptions, resolve_execution_mode
from ..sim.linecodec import record_line
from .store import ResultStore, code_version, inputs_digest, request_key
from .wal import AdmissionWAL, WALError

_log = obs_logs.get_logger("service.scheduler")

#: Jobs the by-id index holds: beyond it the oldest *completed* ones are
#: dropped (their ids resolve through the terminal index, four times as
#: long).
MAX_JOBS = 10_000

#: What a store hit's id is: this prefix and the hit's store key.  The
#: id names its record, so a hit enters no index: its id resolves
#: through the store, in process and after any restart, exactly while
#: the record is stored.  Jobs that simulate get counter ids
#: (``job-000123``) held by the WAL.
HIT_PREFIX = "hit-"

#: A sweep's identity and its stored aggregate's ``kind``.
SWEEP_KIND = "scenario-sweep/v1"

#: Seconds between two watchdog passes.
WATCHDOG_POLL_S = 0.05

#: Seconds a worker thread may stay wedged past an expired deadline
#: before the watchdog writes it off and starts a replacement.
STUCK_GRACE_S = 30.0

#: Engine-options fields a request may override.  Trace recording is
#: excluded (traces are not part of the stored record), and
#: ``verify_module`` is the service's own concern (programs verify once
#: at build time in the program cache).
_ALLOWED_OPTIONS = (
    "scheduler",
    "mode",
    "max_cycles",
    "strict_capacity",
    "linalg_mac_cycles",
    "fill_cycles_per_element",
)


class RequestError(ValueError):
    """A malformed request (unknown scenario/option, bad value)."""


class QueueFullError(RuntimeError):
    """Admission control: the bounded queue is full (HTTP 503)."""


class DrainingError(RuntimeError):
    """The scheduler is draining for shutdown; no new work (HTTP 503)."""


def _freeze(mapping: Optional[Mapping]) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted((mapping or {}).items()))


def _spelled(mapping: Optional[Mapping]) -> Tuple:
    """A mapping as part of a memo key: its items sorted, each value with
    its type and ``repr``, so ``True``, ``1`` and ``1.0`` (and ``0.0``
    and ``-0.0``) are different spellings."""
    items = sorted(dict(mapping or {}).items())
    return tuple((name, type(value), repr(value)) for name, value in items)


def _field_dict(cfg) -> Dict[str, object]:
    """A scenario config's fields as a flat dict.  ``dataclasses.asdict``
    deep-copies every value; request configs are scalars (``make``
    rejects anything else), so there is nothing to copy."""
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}


def _canonical_options(options: Optional[Mapping]) -> Dict:
    """Normalize execution-mode spellings to one canonical form.

    ``mode`` is recorded only when it differs from the default,
    ``resolve_execution_mode(None)`` — so ``{}`` and a request spelling
    the default out freeze to the same request and therefore the same
    store key, while requests for two different modes can never share
    one.
    """
    mapping = dict(options or {})
    try:
        mode = resolve_execution_mode(mapping.pop("mode", None))
    except ValueError as error:
        raise RequestError(str(error)) from None
    if mode is not resolve_execution_mode(None):
        mapping["mode"] = mode.value
    return mapping


@dataclass(frozen=True)
class JobRequest:
    """One fully resolved, hashable simulation request.

    ``config`` holds *every* config field of the resolved scenario
    config (not just the caller's overrides), so two spellings of the
    same configuration — explicit defaults vs. omitted ones — resolve to
    the same request and therefore the same key.
    """

    scenario: str
    config: Tuple[Tuple[str, object], ...]
    seed: int = 0
    options: Tuple[Tuple[str, object], ...] = ()
    check: bool = True

    @classmethod
    def make(
        cls,
        scenario: str,
        config: Optional[Mapping] = None,
        seed: int = 0,
        options: Optional[Mapping] = None,
        check: bool = True,
    ) -> "JobRequest":
        """Resolve a scenario spec into a request.

        ``scenario`` is a registry name or a ``name:key=val,...`` spec
        (the CLI syntax); ``config`` merges on top of the spec's
        overrides.  Unknown scenarios, config keys, and option names
        raise :class:`RequestError`, as do a ``seed`` that is not a
        non-negative integer (``operator.index``: a bool, float or
        string is refused, a NumPy integer taken) and a ``check`` that
        is not a bool.

        A spelling resolves once per process (:data:`_RESOLVED`): the
        same arguments, each value with its type, give the request they
        gave before — while the scenario they named is still the one
        registered under its name.
        """
        spelling = None
        try:
            spelling = (scenario, type(seed), seed, type(check), check,
                        _spelled(config), _spelled(options))
            scenario_obj, request = _RESOLVED[spelling]
            if get_scenario(scenario_obj.name) is scenario_obj:
                return request
        except (KeyError, ScenarioError):
            pass  # a new spelling, or its scenario left the registry
        except (TypeError, ValueError):
            spelling = None  # not a mapping, or unhashable: not kept
        try:
            # A bool is an int to operator.index; a seed is not a bool.
            if isinstance(seed, bool) or operator.index(seed) < 0:
                raise TypeError
        except TypeError:
            raise RequestError(
                f"seed must be a non-negative integer, got {seed!r}"
            ) from None
        if not isinstance(check, bool):
            raise RequestError(f"check must be a boolean, got {check!r}")
        try:
            scenario_obj, cfg = parse_scenario_spec(scenario)
            resolved = _field_dict(cfg)
            # An override that spells out the value already there (same
            # type: True is not 1 on the wire) changes nothing; only a
            # real one pays for a second config construction.
            overrides = dict(config or {})
            if any(
                key not in resolved
                or type(value) is not type(resolved[key])
                or value != resolved[key]
                for key, value in overrides.items()
            ):
                cfg = scenario_obj.configure(**{**resolved, **overrides})
                resolved = _field_dict(cfg)
        except ScenarioError as error:
            raise RequestError(str(error)) from None
        for name in options or {}:
            if name not in _ALLOWED_OPTIONS:
                raise RequestError(
                    f"unknown engine option {name!r}; valid options: "
                    + ", ".join(_ALLOWED_OPTIONS)
                )
        # Scenario configs never type-check overrides themselves, so a
        # JSON list/object would otherwise flow through to an unhashable
        # (and unsimulatable) request.
        for kind, mapping in (
            ("config field", resolved), ("engine option", options or {})
        ):
            for name, value in mapping.items():
                if not isinstance(value, (bool, int, float, str)):
                    raise RequestError(
                        f"{kind} {name!r} must be a scalar, "
                        f"got {type(value).__name__}"
                    )
        canonical = _canonical_options(options)
        try:
            EngineOptions(**canonical)
        except (TypeError, ValueError) as error:
            raise RequestError(f"invalid engine options: {error}") from None
        request = cls(
            scenario=scenario_obj.name,
            config=_freeze(resolved),
            seed=operator.index(seed),
            options=_freeze(canonical),
            check=check,
        )
        if spelling is not None:  # only a resolution that succeeded
            if len(_RESOLVED) >= _MEMO_CAP:
                _RESOLVED.clear()
            _RESOLVED[spelling] = (scenario_obj, request)
        return request

    # -- derived views -------------------------------------------------

    def config_instance(self):
        return get_scenario(self.scenario).configure(**dict(self.config))

    def key_parts(self) -> Dict:
        """The identity parts the store key digests (JSON-ready)."""
        scenario = get_scenario(self.scenario)
        cfg = self.config_instance()
        return {
            "kind": "scenario-result/v1",
            "scenario": self.scenario,
            "structure": repr(scenario.signature(cfg)),
            "inputs": inputs_digest(scenario.make_inputs(cfg, self.seed)),
            "config": dict(self.config),
            "seed": self.seed,
            "options": dict(self.options),
            "check": self.check,
            "code": code_version(),
        }

    def key(self) -> str:
        return request_key(self.key_parts())

    def to_dict(self) -> Dict:
        return {
            "scenario": self.scenario,
            "config": dict(self.config),
            "seed": self.seed,
            "options": dict(self.options),
            "check": self.check,
        }

    def payload(self, request_id: Optional[str]) -> Tuple:
        """The picklable :func:`evaluate_request` form of this request."""
        return (
            self.scenario, self.config, self.seed, self.options,
            self.check, request_id,
        )


@dataclass(frozen=True)
class SweepRequest:
    """One fully resolved sweep request: a scenario's default grid over
    a pinned base config.

    The request's identity is the whole sweep — grid, base, seed,
    sample, options, check — so identical sweeps coalesce and an
    already-persisted sweep answers from the store.  Each grid point is
    additionally a first-class :class:`JobRequest` with its own
    content-addressed key: completed points checkpoint into the store
    individually, which is what makes an interrupted sweep resumable
    (resubmit it — finished points are store hits, only the rest
    simulate) and lets single-point ``POST /jobs`` traffic share work
    with sweeps bidirectionally.
    """

    scenario: str
    base: Tuple[Tuple[str, object], ...]
    seed: int = 0
    sample: Optional[int] = None
    options: Tuple[Tuple[str, object], ...] = ()
    check: bool = True

    @classmethod
    def make(
        cls,
        scenario: str,
        config: Optional[Mapping] = None,
        seed: int = 0,
        sample: Optional[int] = None,
        options: Optional[Mapping] = None,
        check: bool = True,
    ) -> "SweepRequest":
        """Resolve a scenario spec into a sweep request.

        Validation rides :meth:`JobRequest.make` (same spec syntax,
        same scalar/option checks); the resolved full config becomes
        the grid base, with axis fields overridden per point.
        """
        resolved = JobRequest.make(
            scenario, config=config, seed=seed, options=options, check=check
        )
        if sample is not None:
            if not isinstance(sample, int) or isinstance(sample, bool):
                raise RequestError(
                    f"sample must be an integer, got {type(sample).__name__}"
                )
            if sample < 1:
                raise RequestError(f"sample must be >= 1, got {sample}")
        return cls(
            scenario=resolved.scenario,
            base=resolved.config,
            seed=resolved.seed,
            sample=sample,
            options=resolved.options,
            check=resolved.check,
        )

    # -- derived views -------------------------------------------------

    def grid(self):
        return scenario_grid(self.scenario, **dict(self.base))

    def point_requests(self) -> List[JobRequest]:
        """One :class:`JobRequest` per sampled grid point, in grid order
        (the library sweeps' :func:`~repro.sim.batch.subsample` rule)."""
        return [
            JobRequest(
                scenario=self.scenario,
                config=_freeze(_field_dict(cfg)),
                seed=self.seed,
                options=self.options,
                check=self.check,
            )
            for cfg in subsample(self.grid().points(), self.sample, self.seed)
        ]

    def key_parts(self) -> Dict:
        return {
            "kind": SWEEP_KIND,
            "grid": grid_record(self.grid()),
            "seed": self.seed,
            "sample": self.sample,
            "options": dict(self.options),
            "check": self.check,
            "code": code_version(),
        }

    def key(self) -> str:
        return request_key(self.key_parts())

    def to_dict(self) -> Dict:
        return {
            "scenario": self.scenario,
            "base": dict(self.base),
            "seed": self.seed,
            "sample": self.sample,
            "options": dict(self.options),
            "check": self.check,
            "sweep": True,
        }


def request_from_body(
    body: Mapping, sweep: bool = False
) -> Union[JobRequest, SweepRequest]:
    """The request a JSON body names — a ``POST /jobs`` or ``/sweeps``
    body, or an admitted request replayed from the WAL (in the body's
    shape: its ``config`` key)."""
    spec = body.get("scenario")
    if not spec or not isinstance(spec, str):
        raise RequestError('missing "scenario" (a name or name:key=val spec)')
    common = {
        "config": body.get("config"),
        "seed": body.get("seed", 0),
        "options": body.get("options"),
        "check": body.get("check", True),
    }
    if sweep:
        return SweepRequest.make(spec, sample=body.get("sample"), **common)
    return JobRequest.make(spec, **common)


#: Entries each per-process memo below holds before it is cleared
#: wholesale (requests are tiny; the cap is generous).
_MEMO_CAP = 4096

#: Spelling -> (scenario object, request) memo of :meth:`JobRequest.make`.
#: Resolving parses the spec and builds and validates a config and the
#: engine options — on the warm path, as much as the store read.  Only
#: resolutions that succeeded are kept.
_RESOLVED: Dict[Tuple, Tuple[object, JobRequest]] = {}

#: Request -> store-key memo.  A key is a pure function of the (frozen,
#: hashable) request and the code version, but computing one regenerates
#: and digests the scenario's input arrays — noticeable on the warm path,
#: where it would dominate the store read.
_KEY_CACHE: Dict[Tuple[JobRequest, str], str] = {}


def request_store_key(request: JobRequest) -> str:
    """The store key for a request, memoized per process."""
    memo_key = (request, code_version())
    key = _KEY_CACHE.get(memo_key)
    if key is None:
        if len(_KEY_CACHE) >= _MEMO_CAP:
            _KEY_CACHE.clear()
        key = request.key()
        _KEY_CACHE[memo_key] = key
    return key


def evaluate_request(payload: Tuple) -> Dict:
    """Spawn-safe batch worker: simulate one request, return its record.

    ``payload`` is ``(scenario, config_items, seed, option_items,
    check)`` with an optional trailing ``request_id`` — plain picklable
    data, so batches can shard across a :class:`SweepRunner` pool (and
    the request id survives the pickle hop into pool workers, where it
    re-binds the log contextvar so fault firings and engine logs inside
    the worker still carry it).  Simulation rides the per-process
    scenario program cache.  Every failure but an interrupt comes back
    as an ``{"error": ...}`` record — a crash as ``"job crashed: ..."``
    — so one bad job fails alone and nothing else re-runs.
    """
    name, config, seed, options, check, *rest = payload
    obs_logs.set_request_id(rest[0] if rest else None)
    try:
        # The chaos plane's per-job seam.  Whatever escapes the job — an
        # injected engine error, or an injected crash (a BaseException,
        # the stand-in for a segfault) — fails this job alone, here: its
        # batch-mates are not re-run to find it.
        faults.fire("job.evaluate", context=f"{name}:seed={seed}")
        scenario = get_scenario(name)
        cfg = scenario.configure(**dict(config))
        engine_options = EngineOptions(
            **{"verify_module": False, **dict(options)}
        )
        result, checked = simulate_scenario(
            scenario, cfg, seed=seed, options=engine_options, check=check
        )
        record = result_record(result, checked)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as error:  # noqa: BLE001 - job boundary
        return {"error": f"{type(error).__name__}: {error}"}
    except BaseException as error:  # noqa: BLE001 - job boundary
        return {"error": f"job crashed: {type(error).__name__}: {error}"}
    record["scenario"] = name
    record["config"] = dict(config)
    record["seed"] = seed
    record["options"] = dict(options)
    return record


def _payload_signature(payload: Tuple) -> Tuple:
    """Signature-affine batch ordering (same rule as the sweep runner)."""
    name, config = payload[0], payload[1]
    scenario = get_scenario(name)
    return scenario.signature(scenario.configure(**dict(config)))


def _payload_context(payload: Tuple) -> str:
    """Fault-hook context for one batch payload (``batch.worker``)."""
    return f"{payload[0]}:seed={payload[2]}"


def _sweep_record(request: SweepRequest, records: List[Dict]) -> Dict:
    """A finished sweep's aggregate record — or its error when a point
    failed: a transient failure must not become a persistent record, so
    the aggregate is NOT stored, only the good points were."""
    errors = [
        record["error"] for record in records if record.get("error") is not None
    ]
    if errors:
        return {
            "error": f"sweep failed: {len(errors)}/{len(records)} points "
            f"failed (first: {errors[0]}); completed points are "
            "checkpointed — resubmit to resume"
        }
    return {
        "kind": SWEEP_KIND, "scenario": request.scenario,
        "points_total": len(records), "points_failed": 0, "points": records,
    }


class _RecoveredRequest:
    """The request shim behind a resolved id: a terminal WAL record
    carries at most the admitted request *dict*, and a stored record
    names its own (:func:`_stored_request`) — enough to report what the
    job was, not enough (nor needed) to simulate it again."""

    __slots__ = ("_data",)

    def __init__(self, data: Optional[Mapping]):
        self._data = dict(data or {})

    def to_dict(self) -> Dict:
        return dict(self._data)


def _stored_request(record: Mapping) -> Dict:
    """The request dict a stored single-request record answers, read off
    the record: :func:`evaluate_request` writes four of its fields, and
    the oracle's ``checked`` stats are ``None`` exactly when ``check``
    was off.  Any other record (a sweep aggregate) names none: ``{}``."""
    if "config" not in record:
        return {}
    names = ("scenario", "config", "seed", "options")
    return {name: record.get(name) for name in names} | {
        "check": record.get("checked") is not None
    }


class Job:
    """One scheduled request: state, waiters, and the eventual record.

    Completion is **first-writer-wins**: the watchdog can fail a job on
    deadline while the engine is still grinding on it, and whichever of
    the two outcomes lands first is the job's outcome forever — the
    loser's :meth:`_settle` is a no-op, so a late record can never
    overwrite a deadline failure (or vice versa).

    Made with an ``outcome``, a job is a settled view of it, held by
    nothing: a store hit, or an id resolved from its terminal entry or
    the store.  It has no event and no lock.  A hit's outcome is the
    verified line it read: its ``record`` is parsed only when asked
    for, and :meth:`to_json` splices the line in.
    """

    __slots__ = (
        "id", "key", "request", "state", "error", "source",
        "waiters", "submitted_at", "started_at", "finished_at",
        "deadline_s", "request_id", "store_put_s", "timings",
        "_record", "_line", "_done", "_outcome_lock",
    )

    def __init__(
        self,
        job_id: str,
        key: str,
        request: JobRequest,
        deadline_s: Optional[float] = None,
        request_id: Optional[str] = None,
        outcome: Union[Dict, bytes, str, None] = None,
    ):
        self.id = job_id
        self.key = key
        self.request = request
        self.state = "queued"  # queued | running | done | error
        self._record: Optional[Dict] = None
        self._line: Optional[bytes] = None
        self.error: Optional[str] = None
        #: Where the record came from: "simulated" | "store".
        self.source: Optional[str] = None
        #: Callers sharing this job (1 = no coalescing happened).
        self.waiters = 1
        self.submitted_at = time.time()
        #: When execution started (None until drained).
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Wall-clock execution budget (None = unbounded).
        self.deadline_s = deadline_s
        #: The structured-log correlation id issued at admission; lives
        #: in the WAL record, every log line touching this job, and the
        #: wire dict.  Request-scoped, so deliberately NOT part of the
        #: stored record (which is shared across coalesced/warm callers).
        self.request_id = request_id
        #: Seconds spent spilling the fresh record to the store.
        self.store_put_s: Optional[float] = None
        #: Wall-clock phase breakdown, stamped at completion.
        self.timings: Dict[str, float] = {}
        if outcome is None:
            self._done = threading.Event()
            self._outcome_lock = threading.Lock()
        else:
            self._done = self._outcome_lock = None
            self.finished_at = self.submitted_at
            self._end(outcome, "store")

    @property
    def record(self) -> Optional[Dict]:
        """The record once done (a hit's is parsed on first use)."""
        if self._record is None and self._line is not None:
            self._record = json.loads(self._line)
        return self._record

    @property
    def done(self) -> bool:
        return self._done is None or self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job completes (True) or ``timeout`` passes."""
        return self._done is None or self._done.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> Dict:
        """The completed record; raises on error or timeout."""
        if not self.wait(timeout):
            raise TimeoutError(f"job {self.id} still {self.state}")
        if self.error is not None:
            raise RuntimeError(f"job {self.id} failed: {self.error}")
        assert self.record is not None
        return self.record

    def _settle(
        self, outcome: Union[Dict, str], source: Optional[str] = None
    ) -> bool:
        """End the job with a record (from ``source``) or an error
        message, and wake its waiters; False when another outcome landed
        first."""
        with self._outcome_lock:
            if self._done.is_set():
                return False
            self.finished_at = time.time()
            self._end(outcome, source)
            self._done.set()
        return True

    def _end(self, outcome: Union[Dict, bytes, str], source) -> None:
        """Take the outcome — an error message, a record, or the
        verified line it parses from — and stamp the per-request
        wall-clock breakdown from ``finished_at``.  A job answered from
        the store shows ``execute_s == 0``: the whole point of the warm
        path."""
        if isinstance(outcome, str):
            self.error = outcome
            self.state = "error"
        else:
            self._line = outcome if isinstance(outcome, bytes) else None
            self._record = outcome if self._line is None else None
            self.source = source
            self.state = "done"
        started = self.started_at or self.finished_at
        self.timings = {
            "queued_s": round(max(0.0, started - self.submitted_at), 6),
            "execute_s": round(max(0.0, self.finished_at - started), 6),
            "total_s": round(max(0.0, self.finished_at - self.submitted_at), 6),
        }
        if self.store_put_s is not None:
            self.timings["store_put_s"] = round(self.store_put_s, 6)

    def to_dict(self, include_record: bool = True) -> Dict:
        """The job's wire representation (the ``equeue-serve`` shape)."""
        payload = {
            "id": self.id,
            "key": self.key,
            "state": self.state,
            "source": self.source,
            "waiters": self.waiters,
            "request": self.request.to_dict(),
            "error": self.error,
            "request_id": self.request_id,
        }
        if self.timings:
            payload["timings"] = dict(self.timings)
        if include_record and self.record is not None:
            payload["record"] = self.record
        return payload

    def to_json(self) -> bytes:
        """``json.dumps(self.to_dict())`` as bytes.  A hit's ``record``
        member is the verified line it read, spliced in byte for byte —
        neither parsed nor serialised again."""
        if self._line is None:
            return json.dumps(self.to_dict()).encode("utf-8")
        head = json.dumps(self.to_dict(include_record=False))
        return b'%s, "record": %s}' % (head[:-1].encode("utf-8"), self._line)


class SweepJob(Job):
    """A scheduled sweep: one job whose record aggregates many points.

    Progress is observable while it runs — ``points_total`` is fixed
    when execution starts, ``points_done`` advances as each point
    completes (resumed-from-store points count immediately) — so a
    poller watching ``GET /jobs/<id>`` sees a moving fraction instead
    of an opaque ``running``.
    """

    __slots__ = ("points_total", "points_done", "points_resumed")

    def __init__(self, *args, **kwargs):  # Job's
        # Before the job's own fields: a sweep made settled counts its
        # points as it takes its outcome.
        self.points_total: Optional[int] = None
        self.points_done = 0
        self.points_resumed = 0
        super().__init__(*args, **kwargs)

    def progress(self) -> Dict:
        return {
            "points_done": self.points_done,
            "points_total": self.points_total,
            "points_resumed": self.points_resumed,
        }

    def to_dict(self, include_record: bool = True) -> Dict:
        payload = super().to_dict(include_record)
        payload["progress"] = self.progress()
        return payload

    def _end(self, outcome: Union[Dict, bytes, str], source) -> None:
        super()._end(outcome, source)
        if source == "store" and self.error is None:
            # A stored sweep is whole: every point is done.
            self.points_total = self.record.get("points_total")
            self.points_done = self.points_total or 0


@dataclass
class SchedulerStats:
    """Scheduler-level counters (store counters live on the store)."""

    submitted: int = 0
    #: Submissions answered by an already-queued/running identical job.
    coalesced: int = 0
    #: Submissions answered directly from the persistent store.
    store_hits: int = 0
    #: Jobs that actually ran the DES engine.
    simulated: int = 0
    errors: int = 0
    batches: int = 0
    #: Spills that failed at the store (disk full, root removed); the
    #: job still completes from its in-memory record.
    store_put_failures: int = 0
    #: Completed jobs dropped from the id index by the retention cap.
    jobs_pruned: int = 0
    #: Jobs failed by the watchdog for exceeding their deadline.
    deadline_failures: int = 0
    #: Worker-loop iterations that died and were restarted in place,
    #: plus wedged worker threads replaced by the watchdog.
    worker_restarts: int = 0
    #: Submissions refused because the bounded queue was full.
    rejected_queue_full: int = 0
    #: Submissions refused because the scheduler is draining.
    rejected_draining: int = 0
    #: Sweep jobs submitted (included in ``submitted`` too).
    sweeps_submitted: int = 0
    #: Sweep points answered from per-point store checkpoints instead
    #: of simulating — the restart-resume path at work.
    sweep_points_resumed: int = 0
    #: Sweep points that actually simulated.
    sweep_points_simulated: int = 0
    #: Sweep points that failed (their sweep fails, but completed
    #: batch-mates stay checkpointed for the resubmit).
    sweep_point_failures: int = 0
    #: Terminal WAL appends that failed (the job still completes from
    #: memory; replay will re-run it into a store hit).
    wal_append_failures: int = 0
    #: WAL-replayed jobs re-enqueued with their original ids.
    recovered_requeued: int = 0
    #: WAL-replayed jobs completed instantly from the store (the job
    #: finished before the crash and its record survived) — zero engine
    #: work on replay.
    recovered_store_hits: int = 0
    #: WAL-replayed jobs whose request no longer validates (scenario
    #: removed, option renamed) — failed cleanly, never dropped.
    recovered_failed: int = 0
    #: Jobs no longer in memory (pruned, or completed before a restart)
    #: resolved from their terminal record, or their hit id, + the store.
    resurrected: int = 0
    #: Submissions by resolved execution mode ("interpret" | "plan" |
    #: "codegen").
    submitted_by_mode: Dict[str, int] = field(default_factory=dict)


#: Version tag for the ``/stats`` wire shape.  Additions bump nothing;
#: renames/removals of documented keys bump the suffix.
STATS_SCHEMA = "equeue-stats/v1"

#: How ``/stats`` sections map onto dotted metric-name roots.  Keys not
#: listed here flatten under ``scheduler.``.
_METRIC_SECTIONS = {
    "store": "store",
    "wal": "wal",
    "program_cache": "program_cache",
    "gc": "gc",
    "resilience": "scheduler.resilience",
    "worker": "scheduler.worker",
    "submitted_by_mode": "scheduler.submitted_by_mode",
}


def _flatten_stats(payload: Mapping) -> Dict[str, float]:
    """Flatten the ``/stats`` payload into ``{dotted_name: value}``.

    One function feeds the ``metrics`` block of ``/stats``, the
    scheduler's registry collector, and (through it) ``GET /metrics`` —
    a single source of truth for the documented metric names.
    Non-numeric leaves (code_version, last_error) are dropped; booleans
    export as 0/1 gauges.
    """
    out: Dict[str, float] = {}

    def emit(prefix: str, mapping: Mapping) -> None:
        for key, value in mapping.items():
            if isinstance(value, Mapping):
                emit(f"{prefix}.{key}", value)
            elif isinstance(value, bool):
                out[f"{prefix}.{key}"] = 1.0 if value else 0.0
            elif isinstance(value, (int, float)):
                out[f"{prefix}.{key}"] = float(value)

    for key, value in payload.items():
        if isinstance(value, Mapping):
            emit(_METRIC_SECTIONS.get(key, f"scheduler.{key}"), value)
        else:
            emit("scheduler", {key: value})
    return out


class JobScheduler:
    """Coalescing, batching scheduler over an optional result store.

    ``store=None`` runs a pure in-memory service (coalescing still
    applies; nothing persists).  ``jobs`` is the
    :class:`SweepRunner` worker count for each drained batch (``1`` —
    the default, and the right choice on single-CPU hosts — executes
    batches on the draining thread over the per-process program cache).
    The by-id job index holds :data:`MAX_JOBS`: beyond it, the oldest
    *completed* jobs are dropped, and their ids resolve through the
    terminal index.  A store hit is settled when made and enters no
    index: its id resolves through the store it names.

    Robustness knobs (all optional):

    * ``max_queue`` bounds admission — a submit that would queue beyond
      it raises :class:`QueueFullError` (coalesces and store hits are
      always admitted; they cost nothing).
    * ``deadline_s`` is the default per-job wall-clock budget.  A
      watchdog thread (started with the worker) fails any running job
      past its deadline — waiters wake with a clean error while the
      engine finishes into a discarded record — and, if the worker
      thread itself stays wedged :data:`STUCK_GRACE_S` beyond the
      deadline, replaces the worker so the queue keeps draining: the
      job fails, the service survives.
    * :meth:`drain` refuses new queue admissions
      (:class:`DrainingError`) while already-admitted work completes —
      the graceful-shutdown half of admission control.

    Every way a queued job ends — simulated, failed, the watchdog,
    recovery — goes through :meth:`_settle`.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
        max_queue: Optional[int] = None,
        deadline_s: Optional[float] = None,
        wal: Optional[AdmissionWAL] = None,
    ):
        self.store = store
        #: The write-ahead admission log (optional).  With one attached,
        #: :meth:`recover` MUST run before traffic: it opens the log,
        #: replays outstanding admissions, and arms appends — a submit
        #: against an unopened WAL raises loudly rather than admitting
        #: a job whose durability was promised but not delivered.
        self.wal = wal
        self.jobs = max(1, int(jobs))
        self.max_queue = None if max_queue is None else max(1, int(max_queue))
        self.deadline_s = deadline_s
        self.stats = SchedulerStats()
        #: Pool-resilience counters aggregated across every batch and
        #: sweep this scheduler ran (surfaced on ``/stats``).
        self.resilience = ResilienceStats()
        self.draining = False
        #: Last worker-loop failure (traceback text) and its wall time.
        self.last_error: Optional[str] = None
        self.last_error_at: Optional[float] = None
        self._lock = threading.Condition()
        self._queue: List[Job] = []
        #: Coalescing index: key -> not-yet-finished job.
        self._inflight: Dict[str, Job] = {}
        #: Every job ever created, by id (the server's lookup table);
        #: never a store hit.
        self._jobs: Dict[str, Job] = {}
        #: Terminal outcomes by id, kept after the job itself is pruned
        #: (or lost to a restart): ``job()`` resolves these from the
        #: store instead of 404ing an id the client was given.  Bounded
        #: FIFO; entries beyond the cap age out oldest-first.
        self._terminal: Dict[str, Dict] = {}
        #: Watchdog view of executing work: job id -> (job, deadline
        #: timestamp or None, executing thread ident).
        self._active: Dict[str, Tuple[Job, Optional[float], int]] = {}
        #: Jobs drained by an in-progress run_pending, per thread ident —
        #: what the watchdog fails wholesale when it abandons a wedged
        #: worker (later batches of that drain would otherwise hang).
        self._drains: Dict[int, List[Job]] = {}
        self._counter = 0
        #: Jobs settled so far: a submit whose store read missed sees it
        #: move when a twin settled meanwhile.
        self._settled = 0
        self._worker: Optional[threading.Thread] = None
        self._watchdog: Optional[threading.Thread] = None
        self._stopping = False
        # Join the process metrics registry as a scrape-time collector:
        # every counter this scheduler (and its store/WAL) already keeps
        # becomes a dotted metric with zero hot-path writes.  Named
        # registration replaces any previous scheduler's collector, so
        # test suites that build many schedulers never double-count.
        obs_metrics.get_registry().register_collector(
            "scheduler", self.metrics_snapshot
        )

    # -- submission ----------------------------------------------------

    def submit(
        self,
        request: Union[JobRequest, SweepRequest],
        deadline_s: Optional[float] = None,
        client: Optional[str] = None,
        request_id: Optional[str] = None,
    ) -> Job:
        """Register a request or a sweep; returns its (possibly shared)
        job — a :class:`SweepJob` for a :class:`SweepRequest`.

        Lookup order: in-flight job with the same key (coalesce) ->
        persistent store (a settled view) -> new queued job.  The store
        read (disk I/O) happens *outside* the lock; after a miss the
        in-flight index is re-checked, and the store read again if a job
        settled meanwhile, so a request that raced a just-finishing twin
        either coalesces or hits the freshly spilled blob — never
        simulates twice.  A hit answers even while a twin is in flight:
        the stored record is the answer the twin gives.

        ``deadline_s`` overrides the scheduler default for this job;
        ``client`` (the peer address, when the HTTP layer forwards it)
        is recorded in the admission log.  Queue admission is checked
        *last*: requests the service can answer for free (coalesce,
        store hit) are never refused, even when the queue is full or
        draining.  With a WAL attached, a queued job's ``admitted``
        record is appended (and fsynced) *before* the job becomes
        visible — an append failure refuses admission (:class:`WALError`
        -> 503) rather than issuing an id that would not survive a
        crash.  A store hit is a job made settled with the verified line
        it read: no event, no lock, no index entry and no write — its
        id, ``hit-<key>``, names its record.

        ``request_id`` is the structured-log correlation id — issued
        here at admission when the caller (a non-HTTP embedder) did not
        already mint one at the front door.
        """
        sweep = isinstance(request, SweepRequest)
        job_cls = SweepJob if sweep else Job
        key = request_store_key(request)
        mode = dict(request.options).get(
            "mode", resolve_execution_mode(None).value
        )
        request_id = request_id or obs_logs.new_request_id()
        with self._lock:
            self.stats.submitted += 1
            self.stats.submitted_by_mode[mode] = (
                self.stats.submitted_by_mode.get(mode, 0) + 1
            )
            self.stats.sweeps_submitted += int(sweep)
            inflight = self._inflight.get(key)
            if inflight is not None:
                inflight.waiters += 1
                self.stats.coalesced += 1
                return inflight
            settled = self._settled
        found = self.store.read(key) if self.store is not None else None
        with self._lock:
            if found is None:
                inflight = self._inflight.get(key)
                if inflight is not None:
                    inflight.waiters += 1
                    self.stats.coalesced += 1
                    return inflight
                if self._settled != settled and self.store is not None:
                    # A job settled after the read missed: if it was this
                    # key's twin, its record is stored now.  Read again,
                    # under the lock, where no twin can settle unseen.
                    found = self.store.read(key)
            if found is not None:
                self.stats.store_hits += 1
            elif self.draining:
                self.stats.rejected_draining += 1
                raise DrainingError("scheduler is draining; not accepting new jobs")
            elif self.max_queue is not None and len(self._queue) >= self.max_queue:
                self.stats.rejected_queue_full += 1
                raise QueueFullError(
                    f"job queue full ({len(self._queue)}/{self.max_queue})"
                )
            else:
                job = job_cls(
                    self._next_id(),
                    key,
                    request,
                    deadline_s=self.deadline_s if deadline_s is None else deadline_s,
                    request_id=request_id,
                )
                self._wal_admit(job, client=client)
                self._jobs[job.id] = job
                self._prune_jobs()
                self._inflight[key] = job
                self._queue.append(job)
                self._lock.notify_all()
        if found is not None:
            _log.debug(
                "job.done", job=HIT_PREFIX + key, source="store",
                request_id=request_id,
            )
            return job_cls(
                HIT_PREFIX + key, key, request, request_id=request_id,
                outcome=found,
            )
        _log.debug(
            "sweep.admitted" if sweep else "job.admitted",
            job=job.id,
            scenario=request.scenario,
            request_id=request_id,
        )
        faults.fire("server.crash", context=f"admit:{job.id}")
        return job

    def _prune_jobs(self) -> None:
        """Drop the oldest *completed* jobs beyond :data:`MAX_JOBS` (called
        under the lock; dict order is insertion/creation order).

        A pruned id is NOT gone: its terminal outcome stays in the
        terminal index (mirrored in the WAL), so :meth:`job` resolves it
        from the store instead of handing the client a 404 for an id it
        was given.
        """
        excess = len(self._jobs) - MAX_JOBS
        if excess <= 0:
            return
        # Stop at the ``excess``-th done job: listing every done job to
        # delete one made each admission past the cap O(MAX_JOBS).
        done = (job_id for job_id, job in self._jobs.items() if job.done)
        for job_id in list(islice(done, excess)):
            del self._jobs[job_id]
            self.stats.jobs_pruned += 1

    def job(self, job_id: str) -> Optional[Job]:
        """Look a job up by id.

        Ids not in the live index — pruned by the retention cap, issued
        before a restart, or a hit's — resolve through their terminal
        record, or a hit id through the key it names: ``done`` outcomes
        re-read the store by key (a miss means the record was evicted;
        the client resubmits and gets a store hit or a clean
        re-simulation), ``error`` outcomes replay the recorded failure.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            entry = None if job is not None else self._terminal.get(job_id)
        if job is not None:
            return job
        if entry is None and job_id.startswith(HIT_PREFIX):
            entry = {"status": "done", "key": job_id[len(HIT_PREFIX):]}
        if entry is None:
            return None
        return self._resurrect(job_id, entry)

    def _resurrect(self, job_id: str, entry: Dict) -> Optional[Job]:
        """A settled view of a terminal entry (``None`` when its record
        left the store, or its key is not a store key).  An entry with
        no admitted request — a hit id's — reports the one its record
        names."""
        key = entry.get("key") or ""
        request = entry.get("request")
        job_cls = Job
        if entry.get("status") == "error":
            outcome = entry.get("error") or "job failed before restart"
        else:
            outcome = None
            if self.store is not None and key:
                try:
                    outcome = self.store.get(key)
                except ValueError:  # a malformed key names no record
                    pass
            if outcome is None:
                return None
            request = request or _stored_request(outcome)
            if outcome.get("kind") == SWEEP_KIND:
                job_cls = SweepJob
        with self._lock:
            self.stats.resurrected += 1
        return job_cls(job_id, key, _RecoveredRequest(request), outcome=outcome)

    def _note_terminal(self, job: Job) -> None:
        """Index a finished job's outcome by id (call under the lock):
        what keeps the id resolvable after the job itself is pruned."""
        self._terminal[job.id] = {
            "status": job.state,
            "key": job.key,
            "error": job.error,
            "request": job.request.to_dict(),
        }
        while len(self._terminal) > 4 * MAX_JOBS:
            self._terminal.pop(next(iter(self._terminal)))

    def _next_id(self) -> str:
        self._counter += 1
        return f"job-{self._counter:06d}"

    # -- the write-ahead admission log ---------------------------------

    def _wal_admit(self, job: Job, client: Optional[str] = None) -> None:
        """Log an admission before the job becomes visible (called under
        the lock; admission-ordering with respect to visibility is the
        WAL's one correctness requirement).  Failure refuses admission."""
        if self.wal is None:
            return
        try:
            self.wal.append_admitted(
                job.id,
                key=job.key,
                request=job.request.to_dict(),
                sweep=isinstance(job, SweepJob),
                client=client,
                deadline_s=job.deadline_s,
                request_id=job.request_id,
            )
        except OSError as error:
            self.stats.wal_append_failures += 1
            raise WALError(
                f"admission log append failed: {error}"
            ) from None

    def _settle(
        self,
        job: Job,
        outcome: Union[Dict, str],
        source: Optional[str],
        counter: str,
    ) -> bool:
        """THE end of a job: its record (from ``source``) or its error.

        First writer wins (:meth:`Job._settle`); the job leaves the
        coalescing index either way, in the same lock hold that settles
        it, so a racing submit either coalesces onto the job before it
        ends or reads its spilled record after — never joins a job that
        already answered.  Only the winner is counted under
        ``counter``, indexed as terminal and then logged to the WAL.  A
        lost terminal record is never fatal: it only costs a redundant,
        store-hit, replay after the next crash.
        """
        with self._lock:
            won = job._settle(outcome, source)
            self._deindex(job)
            if not won:
                return False
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
            self._settled += 1
            self._note_terminal(job)
        if self.wal is not None:
            try:
                self.wal.append_terminal(
                    job.id, job.state, key=job.key, error=job.error
                )
            except OSError:
                with self._lock:
                    self.stats.wal_append_failures += 1
        if job.error is None:
            _log.debug(
                "job.done", job=job.id, source=source, request_id=job.request_id
            )
        else:
            _log.warning(
                "job.error", job=job.id, error=job.error,
                request_id=job.request_id,
            )
        return True

    def recover(self) -> Dict:
        """Open the WAL and replay outstanding admissions (call once,
        before :meth:`start` and before serving traffic).

        Every admitted-but-not-terminal record is rebuilt into a job
        with its **original id**: store hits (the job finished and
        spilled before the crash) complete instantly with zero engine
        work, requests that no longer validate fail cleanly, and the
        rest re-enqueue in admission order.  Terminal records populate
        the terminal index so completed ids keep resolving.  Replay is
        at-least-once and idempotent: re-running an admitted job is a
        store hit or a bit-identical re-simulation, never a wrong
        answer.
        """
        summary = {
            "requeued": 0,
            "store_hits": 0,
            "failed": 0,
            "terminal": 0,
            "lines_dropped": 0,
            "code_changed": False,
        }
        if self.wal is None:
            return summary
        recovery = self.wal.open()
        summary["lines_dropped"] = recovery.lines_dropped
        summary["code_changed"] = recovery.code_changed
        with self._lock:
            self._counter = max(self._counter, recovery.max_counter)
            for job_id, entry in recovery.terminal.items():
                self._terminal[job_id] = {
                    "status": entry.get("status") or "done",
                    "key": entry.get("key"),
                    "error": entry.get("error"),
                    "request": entry.get("request"),
                }
                summary["terminal"] += 1
        for job_id, entry in recovery.pending.items():
            self._recover_job(job_id, entry, summary)
        return summary

    def _recover_job(
        self, job_id: str, entry: Dict, summary: Dict
    ) -> None:
        """Rebuild one WAL-admitted job (original id and request id)
        and route it."""
        data = dict(entry.get("request") or {})
        sweep = bool(entry.get("sweep") or data.get("sweep"))
        failure = None
        try:
            # A sweep's request dict names its config ``base``.
            request = request_from_body(
                {**data, "config": data.get("base")} if sweep else data, sweep
            )
            key = request_store_key(request)
        except (RequestError, KeyError, TypeError) as error:
            # The admitted request no longer validates against this code
            # (scenario removed, option renamed).  Fail it cleanly — an
            # id the client holds must resolve to *something*.
            failure = f"recovery failed: {type(error).__name__}: {error}"
            request, key = _RecoveredRequest(data), entry.get("key") or ""
            sweep = False
        job = (SweepJob if sweep else Job)(
            job_id,
            key,
            request,
            deadline_s=entry.get("deadline_s"),
            request_id=entry.get("request_id"),
        )
        with self._lock:
            self._jobs[job_id] = job
        if failure is not None:
            self._settle(job, failure, None, "recovered_failed")
            summary["failed"] += 1
            return
        stored = self.store.get(key) if self.store is not None else None
        if stored is not None:
            self._settle(job, stored, "store", "recovered_store_hits")
            summary["store_hits"] += 1
            return
        with self._lock:
            # Two pending admissions can share a key only across a
            # crash window; the first keeps the coalescing slot, the
            # duplicate still runs (deterministic — a redundant but
            # never wrong replay).
            self._inflight.setdefault(key, job)
            self._queue.append(job)
            self.stats.recovered_requeued += 1
            self._lock.notify_all()
        summary["requeued"] += 1

    # -- execution -----------------------------------------------------

    def run_pending(self) -> int:
        """Drain the queue on this thread; returns jobs completed.

        Queued jobs are grouped into batches of *compatible* work — same
        engine-options digest — which run first, then each sweep (so a
        sweep point a batch just stored is a resumed hit).  Every batch
        and every sweep is one :meth:`_run`, in signature-affine order
        over the per-process program cache, so structurally identical
        jobs compile once per process.  Fresh records spill to the
        store before their waiters wake.

        No drained job can be left in limbo: whatever happens inside the
        runs — an exception escaping the run boundary, a watchdog
        intervention — every job drained here is completed or failed by
        the time this returns.
        """
        ident = threading.get_ident()
        with self._lock:
            drained, self._queue = self._queue, []
            started = time.time()
            for job in drained:
                job.state = "running"
                job.started_at = started
            self._drains[ident] = drained
        try:
            for run in self._runs(drained):
                self._run(run)
        finally:
            with self._lock:
                self._drains.pop(ident, None)
            # Belt and braces: anything still pending (an exception
            # escaped past the run boundary) fails cleanly instead of
            # wedging its waiters forever.
            for job in drained:
                if not job.done:
                    self._finish(
                        job,
                        {"error": "scheduler failure: job abandoned mid-drain"},
                    )
        return len(drained)

    def _run(self, jobs: List[Job]) -> None:
        """Run a batch of single jobs, or one sweep job, to its end:
        :func:`evaluate_request` mapped over points by the one resumable
        driver, :meth:`SweepRunner.resume_map`.

        A batch's points are its jobs: nothing is checkpointed, and each
        job spills and settles as its record lands.  A sweep's points
        are its grid, checkpointed in the store: each completed point
        spills under its own content-addressed key at once, so whatever
        interrupts the sweep — a deadline, a service restart — finished
        points survive and a resubmitted sweep resumes from them; the
        aggregate settles at the end.

        Each failure has one owner.  A crash inside a job is that job's
        error record (:func:`evaluate_request`), and nothing re-runs; a
        dead pool worker is the runner's to survive.  What still escapes
        the runner is this boundary's: it fails every job of the run
        that has not ended.
        """
        sweep = jobs[0] if isinstance(jobs[0], SweepJob) else None
        self._watch(jobs)
        recovery = ResilienceStats()
        try:
            completed: Dict[int, Dict] = {}
            if sweep is None:
                payloads = [job.request.payload(job.request_id) for job in jobs]

                def on_result(index: int, record: Dict) -> None:
                    self._finish(jobs[index], record)

            else:
                points = sweep.request.point_requests()
                payloads = [point.payload(sweep.request_id) for point in points]
                keys = [request_store_key(point) for point in points]
                for index, key in enumerate(keys):
                    stored = None if self.store is None else self.store.get(key)
                    if stored is not None:
                        completed[index] = stored
                with self._lock:
                    sweep.points_total = len(points)
                    sweep.points_done = sweep.points_resumed = len(completed)
                    self.stats.sweep_points_resumed += len(completed)

                def on_result(index: int, record: Dict) -> None:
                    # The crash plane's mid-sweep seam: a kill between
                    # points loses only this delivery — checkpointed
                    # points make the recovered sweep's replay resume,
                    # not restart.
                    faults.fire(
                        "server.crash", context=f"sweep-point:{sweep.id}:{index}"
                    )
                    failed = record.get("error") is not None
                    # Spill (the store writes the canonical line) *before*
                    # advancing progress, so every point a poller sees
                    # counted is already durable.
                    if not failed and self.store is not None:
                        try:
                            self.store.put(keys[index], record)
                        except OSError:
                            with self._lock:
                                self.stats.store_put_failures += 1
                    with self._lock:
                        sweep.points_done += 1
                        if failed:
                            self.stats.sweep_point_failures += 1
                        else:
                            self.stats.sweep_points_simulated += 1

            records = SweepRunner(
                jobs=self.jobs, key=_payload_signature, describe=_payload_context
            ).resume_map(
                evaluate_request, payloads, completed, on_result, stats=recovery
            )
            if sweep is not None:
                self._finish(sweep, _sweep_record(sweep.request, records))
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as error:  # noqa: BLE001 - the run boundary
            message = f"{type(error).__name__}: {error}"
            message = f"job crashed: {message}" if sweep is None else (
                f"sweep crashed: {message}; completed points are "
                "checkpointed — resubmit to resume"
            )
            for job in jobs:
                if not job.done:
                    self._finish(job, {"error": message})
        finally:
            with self._lock:
                self.resilience.merge(recovery)
            self._unwatch(jobs)

    def _runs(self, jobs: List[Job]) -> List[List[Job]]:
        """A drain's runs, in order: the single jobs as batches of
        compatible work (same engine options; counted in ``batches``),
        then each sweep alone."""
        groups: Dict[Tuple, List[Job]] = {}
        sweeps = []
        for job in jobs:
            if isinstance(job, SweepJob):
                sweeps.append([job])
            else:
                groups.setdefault(job.request.options, []).append(job)
        self.stats.batches += len(groups)
        return [*groups.values(), *sweeps]

    def _finish(self, job: Job, record: Dict) -> None:
        # The crash plane's finish seam: a kill here leaves the job
        # admitted-but-not-terminal in the WAL — exactly what recovery
        # replays (the record, if it reached the store, makes the replay
        # a zero-work store hit).
        faults.fire("server.crash", context=f"finish:{job.id}")
        error = record.get("error")
        if error is not None:
            self._settle(job, error, None, "errors")
            return
        # Normalize through the canonical JSON line so a fresh record is
        # byte-for-byte the record a warm store hit will serve tomorrow.
        record = json.loads(record_line(record))
        # Spill before waiters wake — and outside the lock, so a slow
        # (or over-cap, LRU-scanning) put never stalls submitters.  A
        # failed spill (disk full, root removed) is counted, not fatal:
        # the job still completes from its in-memory record.  Spill even
        # when the job already failed on deadline: the record is good
        # and content-addressed, so the *next* request is a store hit.
        if self.store is not None:
            put_started = time.perf_counter()
            try:
                with _span("store.put", key=job.key[:16]):
                    self.store.put(job.key, record)
            except OSError:
                with self._lock:
                    self.stats.store_put_failures += 1
            job.store_put_s = time.perf_counter() - put_started
        # Complete and deindex in one lock hold: a submit racing this
        # either coalesces onto the still-running job or hits the fresh
        # blob — in neither case does it queue a duplicate simulation.
        # A job the watchdog already failed keeps its failure (first
        # writer wins); this record reached the store and that is all.
        self._settle(job, record, "simulated", "simulated")

    def _deindex(self, job: Job) -> None:
        """Drop ``job`` from the coalescing index (under the lock) —
        only if the index still maps its key to *this* job, so a thread
        finishing late cannot deindex a newer job for the same key."""
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]

    # -- the watchdog ---------------------------------------------------

    def _watch(self, batch: List[Job]) -> None:
        """Register an executing batch with the watchdog: each job gets
        a deadline timestamp from *now* (queue time is free — the budget
        bounds execution, which is the thing that can run away)."""
        now = time.monotonic()
        ident = threading.get_ident()
        with self._lock:
            for job in batch:
                deadline_ts = (
                    now + job.deadline_s if job.deadline_s else None
                )
                self._active[job.id] = (job, deadline_ts, ident)

    def _unwatch(self, batch: List[Job]) -> None:
        with self._lock:
            for job in batch:
                self._active.pop(job.id, None)

    def _watchdog_tick(self) -> None:
        """One watchdog pass: fail overdue jobs; replace a wedged worker.

        A job past its deadline fails immediately — its waiters wake with
        a clean error while the engine grinds on into a discarded record.
        If the *worker thread* is still stuck :data:`STUCK_GRACE_S` past an
        expired deadline (an injected stall longer than the grace, a
        pathological simulation), the thread is written off: every job of
        its drain fails, a fresh worker takes over the queue, and the
        abandoned thread's eventual completions are no-ops.
        """
        now = time.monotonic()
        with self._lock:
            active = list(self._active.values())
            worker = self._worker
        wedged_ident: Optional[int] = None
        for job, deadline_ts, ident in active:
            if deadline_ts is None:
                continue
            if not job.done and now >= deadline_ts:
                self._settle(
                    job,
                    f"deadline exceeded: job ran past its "
                    f"{job.deadline_s:g}s wall-clock budget",
                    None,
                    "deadline_failures",
                )
            if (
                now >= deadline_ts + STUCK_GRACE_S
                and worker is not None
                and ident == worker.ident
            ):
                wedged_ident = ident
        if wedged_ident is not None:
            self._replace_worker(wedged_ident)

    def _replace_worker(self, wedged_ident: int) -> None:
        """Abandon a wedged worker thread and start a replacement."""
        with self._lock:
            worker = self._worker
            if worker is None or worker.ident != wedged_ident:
                return  # already replaced (or stopped)
            self._worker = None
        self._abandon(
            wedged_ident,
            "worker thread wedged past deadline grace; replaced",
            "worker thread wedged mid-drain; job abandoned",
        )
        self.start()

    def _abandon(self, ident: int, why: str, error: str) -> None:
        """Write off a worker thread: count the restart, record ``why``,
        and fail every job of its drain with ``error`` — the thread's
        eventual completions are no-ops."""
        with self._lock:
            abandoned = self._drains.get(ident, [])
            self.stats.worker_restarts += 1
            self.last_error, self.last_error_at = why, time.time()
        for job in abandoned:
            self._settle(job, error, None, "errors")

    def _watchdog_loop(self) -> None:
        while True:
            with self._lock:
                if self._stopping:
                    return
            try:
                self._watchdog_tick()
            except Exception:  # noqa: BLE001 - the watchdog must survive
                _log.error(
                    "scheduler.watchdog_error",
                    traceback=traceback.format_exc(),
                )
            time.sleep(WATCHDOG_POLL_S)

    # -- the background worker -----------------------------------------

    def start(self) -> None:
        """Run a daemon worker that drains the queue as jobs arrive,
        plus (when any deadline can apply) the watchdog that polices it."""
        with self._lock:
            if self._worker is not None:
                return
            self._stopping = False
            self._worker = threading.Thread(
                target=self._worker_loop, name="equeue-scheduler", daemon=True
            )
            self._worker.start()
            if self._watchdog is None or not self._watchdog.is_alive():
                self._watchdog = threading.Thread(
                    target=self._watchdog_loop,
                    name="equeue-watchdog",
                    daemon=True,
                )
                self._watchdog.start()

    def drain(self) -> None:
        """Refuse new queue admissions; in-flight work keeps completing.

        Store hits and coalesces still answer (they cost nothing), so a
        draining server degrades to read-only instead of going dark.
        """
        with self._lock:
            self.draining = True

    def stop(self, timeout: Optional[float] = None) -> None:
        """Stop the worker after it drains already-queued jobs.

        ``timeout`` bounds the wait for a worker stuck in a pathological
        simulation: past it, the thread is abandoned (it is a daemon)
        and its unfinished jobs fail cleanly rather than wedging their
        waiters across shutdown.
        """
        with self._lock:
            worker = self._worker
            watchdog = self._watchdog
            self._stopping = True
            self._lock.notify_all()
        if worker is not None:
            worker.join(timeout)
            if worker.is_alive():
                self._abandon(
                    worker.ident or -1,
                    "worker still running at stop(); abandoned",
                    "scheduler stopped; job abandoned",
                )
        with self._lock:
            self._worker = None
        if watchdog is not None:
            watchdog.join(WATCHDOG_POLL_S * 20 + 1.0)
        with self._lock:
            self._watchdog = None

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._stopping:
                    self._lock.wait()
                if self._stopping and not self._queue:
                    return
                if self._worker is not None and (
                    self._worker.ident != threading.get_ident()
                ):
                    return  # replaced by the watchdog; the new worker owns the queue
            try:
                faults.fire("scheduler.worker")
                self.run_pending()
            except Exception:  # noqa: BLE001 - the worker must survive
                # Jobs carry their own errors; anything reaching here is
                # a scheduler bug (or an injected worker death).  Record
                # it where /stats and /healthz can see it, count the
                # in-place restart, and keep draining — dying silently
                # would wedge every future submission behind a dead
                # queue.
                with self._lock:
                    self.stats.worker_restarts += 1
                    self.last_error = traceback.format_exc()
                    self.last_error_at = time.time()
                _log.error(
                    "scheduler.worker_error",
                    restarts=self.stats.worker_restarts,
                    traceback=self.last_error,
                )

    # -- reporting -----------------------------------------------------

    def worker_health(self) -> Dict:
        """Worker/watchdog liveness and the last failure, JSON-ready
        (surfaced on both ``/stats`` and ``/healthz``)."""
        with self._lock:
            worker = self._worker
            watchdog = self._watchdog
            return {
                "worker_alive": worker is not None and worker.is_alive(),
                "watchdog_alive": watchdog is not None and watchdog.is_alive(),
                "worker_restarts": self.stats.worker_restarts,
                "draining": self.draining,
                "last_error": self.last_error,
                "last_error_at": self.last_error_at,
            }

    def stats_dict(self) -> Dict:
        """Scheduler + store + program-cache counters, JSON-ready.

        The shape is versioned (``schema``) and strictly additive: the
        historical top-level keys stay where clients found them, and the
        same numbers re-derive as flat dotted metric names under
        ``metrics`` — the exact names ``GET /metrics`` exports, so the
        two surfaces can never drift apart.
        """
        payload = self._stats_payload()
        payload["metrics"] = _flatten_stats(payload)
        return payload

    def _stats_payload(self) -> Dict:
        with self._lock:
            payload = {
                "schema": STATS_SCHEMA,
                **asdict(self.stats),
                "queued": len(self._queue),
                "inflight": len(self._inflight),
                "jobs": len(self._jobs),
                "max_queue": self.max_queue,
                "deadline_s": self.deadline_s,
                "code_version": code_version(),
                "resilience": self.resilience.to_dict(),
            }
        payload["worker"] = self.worker_health()
        payload["program_cache"] = asdict(scenario_cache_stats())
        payload["gc"] = obs_metrics.gc_stats()
        if self.store is not None:
            payload["store"] = self.store.stats_dict()
        if self.wal is not None:
            payload["wal"] = self.wal.stats_dict()
        return payload

    def metrics_snapshot(self) -> Dict[str, float]:
        """Flat ``{dotted_name: value}`` view for the metrics registry."""
        return _flatten_stats(self._stats_payload())
