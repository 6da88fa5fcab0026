"""The request model: what a job asks for, and how it is answered.

A request is a scenario spec resolved into a frozen, hashable value —
:class:`JobRequest` for one point, :class:`SweepRequest` for a
scenario's grid — whose content-addressed store key
(:func:`request_store_key`) is what coalescing, store hits and WAL
replay agree on.  :func:`request_from_body` reads one from a JSON body
(``POST /jobs`` / ``/sweeps``, or an admission replayed from the WAL),
and :func:`evaluate_request` is the spawn-safe worker that simulates
one into its record.  Nothing here holds a job or a lock: the job
lifecycle over these values is :mod:`repro.service.scheduler`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .. import faults
from ..obs import logs as obs_logs
from ..scenarios import ScenarioError, get_scenario, parse_scenario_spec
from ..scenarios.sweep import grid_record, scenario_grid, simulate_scenario
from ..sim.batch import result_record, subsample
from ..sim.engine import EngineOptions, resolve_execution_mode
from .store import code_version, inputs_digest, request_key

#: A sweep's identity and its stored aggregate's ``kind``.
SWEEP_KIND = "scenario-sweep/v1"

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
