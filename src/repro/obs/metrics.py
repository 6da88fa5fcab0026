"""Process-wide metrics registry: counters, gauges, log-scale histograms.

Design constraints, in order:

1. **Free when off.**  The hot path writes through the module global
   ``METRICS``; when telemetry is disabled it is ``None`` and the cost
   of an instrumented site is a single attribute load and ``is None``
   test — the same discipline as ``repro.faults.HOOK``.
2. **Absorb, don't duplicate.**  The codebase already keeps counter
   structs everywhere (``StoreStats``, ``SchedulerStats``, ``WALStats``,
   the plan-cache tuple).  Those stay authoritative; the registry reads
   them at *scrape time* through registered collectors, so enabling
   metrics adds zero work to the paths those structs count.
3. **Stable dotted names.**  Every metric has a dotted name
   (``store.hits``, ``engine.cycles``) documented in
   ``docs/observability.md`` and golden-key-tested.  The Prometheus
   renderer maps dots to underscores under an ``equeue_`` prefix.

The exposition format is Prometheus text v0.0.4: ``# HELP``/``# TYPE``
comment lines followed by samples; histograms expand to cumulative
``_bucket{le="..."}`` samples plus ``_sum`` and ``_count``.
"""

from __future__ import annotations

import gc
import math
import re
import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
    "get_registry",
    "gc_stats",
    "prometheus_name",
    "render_prometheus",
]


_NAME_RE = re.compile(r"^[a-z][a-z0-9_.]*$")

#: Prefix for every exported Prometheus sample.
PROMETHEUS_PREFIX = "equeue_"


def prometheus_name(dotted: str) -> str:
    """Map a dotted metric name onto the Prometheus charset."""
    return PROMETHEUS_PREFIX + dotted.replace(".", "_").replace("-", "_")


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


class Counter:
    """A monotonically increasing count.

    Increments take the registry lock: instrumented sites are
    coarse-grained (once per request / per run, never per simulated
    event), so contention is irrelevant next to correctness under the
    service tier's worker threads.
    """

    kind = "counter"

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str, lock: threading.Lock):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def sample(self) -> Dict[str, float]:
        return {self.name: self._value}


class Gauge:
    """A value that can go up and down (queue depth, worker count)."""

    kind = "gauge"

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str, lock: threading.Lock):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def sample(self) -> Dict[str, float]:
        return {self.name: self._value}


def _log_buckets(lo: float, hi: float, per_decade: int = 3) -> Tuple[float, ...]:
    """Fixed log-scale bucket boundaries from ``lo`` to ``hi`` inclusive."""
    bounds: List[float] = []
    exp_lo = math.floor(math.log10(lo) * per_decade)
    exp_hi = math.ceil(math.log10(hi) * per_decade)
    for step in range(exp_lo, exp_hi + 1):
        bound = 10.0 ** (step / per_decade)
        bounds.append(float(f"{bound:.6g}"))
    return tuple(bounds)


#: Default latency buckets: ~100µs to ~100s, three per decade.  Wide
#: enough for a store hit (sub-millisecond) and a long DES run alike.
DEFAULT_TIME_BUCKETS = _log_buckets(1e-4, 100.0)


class Histogram:
    """A histogram over fixed, strictly increasing bucket boundaries.

    Buckets are cumulative at exposition (Prometheus ``le`` semantics);
    internally each slot counts only its own interval so ``observe`` is
    a bisect plus one increment.
    """

    kind = "histogram"

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be strictly increasing")
        self.name = name
        self.help = help
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for the +Inf slot
        self._sum = 0.0
        self._count = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        lo, hi = 0, len(self.buckets)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.buckets[mid]:
                hi = mid
            else:
                lo = mid + 1
        with self._lock:
            self._counts[lo] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs ending with ``+Inf``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self._counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, running + self._counts[-1]))
        return out

    def sample(self) -> Dict[str, float]:
        return {
            f"{self.name}.count": float(self._count),
            f"{self.name}.sum": self._sum,
        }


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

Collector = Callable[[], Mapping[str, float]]


class MetricsRegistry:
    """Holds instruments and scrape-time collectors.

    Instruments (``counter``/``gauge``/``histogram``) are created once
    and cached by name; calling the factory again with the same name
    returns the existing instrument, so callers never need to coordinate
    creation order.

    Collectors are zero-argument callables returning ``{dotted_name:
    value}``.  They run only inside :meth:`snapshot` — i.e. when
    ``/metrics`` or ``/stats`` is scraped — which is how the existing
    counter structs join the registry without any hot-path writes.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, object] = {}
        self._collectors: List[Tuple[str, Collector]] = []

    # -- instrument factories -------------------------------------------

    def _register(self, name: str, factory):
        if not _NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        with self._lock:
            existing = self._instruments.get(name)
            if existing is None:
                existing = factory()
                self._instruments[name] = existing
            return existing

    def counter(self, name: str, help: str = "") -> Counter:
        inst = self._register(name, lambda: Counter(name, help, self._lock))
        if not isinstance(inst, Counter):
            raise TypeError(f"metric {name!r} already registered as {inst.kind}")
        return inst

    def gauge(self, name: str, help: str = "") -> Gauge:
        inst = self._register(name, lambda: Gauge(name, help, self._lock))
        if not isinstance(inst, Gauge):
            raise TypeError(f"metric {name!r} already registered as {inst.kind}")
        return inst

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        inst = self._register(
            name, lambda: Histogram(name, help, self._lock, buckets)
        )
        if not isinstance(inst, Histogram):
            raise TypeError(f"metric {name!r} already registered as {inst.kind}")
        return inst

    # -- collectors ------------------------------------------------------

    def register_collector(self, name: str, fn: Collector) -> None:
        """Register (or replace) a scrape-time collector.

        Replacement-by-name keeps restarts idempotent: a new scheduler
        re-registering ``"scheduler"`` supersedes the dead one instead
        of double-counting.
        """
        with self._lock:
            self._collectors = [
                (n, f) for n, f in self._collectors if n != name
            ]
            self._collectors.append((name, fn))

    def unregister_collector(self, name: str) -> None:
        with self._lock:
            self._collectors = [
                (n, f) for n, f in self._collectors if n != name
            ]

    # -- scraping --------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{dotted_name: value}`` across instruments + collectors.

        Collector failures are swallowed per-collector: a scrape must
        never take the service down, and a half-initialized subsystem
        simply contributes nothing this round.
        """
        out: Dict[str, float] = {}
        with self._lock:
            instruments = list(self._instruments.values())
            collectors = list(self._collectors)
        for inst in instruments:
            out.update(inst.sample())  # type: ignore[attr-defined]
        for _name, fn in collectors:
            try:
                for key, value in fn().items():
                    if isinstance(value, (int, float)) and not isinstance(
                        value, bool
                    ):
                        out[key] = float(value)
            except Exception:
                continue
        return out

    def instruments(self) -> List[object]:
        with self._lock:
            return list(self._instruments.values())

    def render_prometheus(self) -> str:
        return render_prometheus(self)


def render_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition v0.0.4 for the whole registry.

    Instruments render with their declared type (histograms expand to
    cumulative buckets); collector-sourced values render as untyped
    gauges, which is exactly what they are — point-in-time reads of
    counters owned elsewhere.
    """
    lines: List[str] = []
    instruments = registry.instruments()
    seen = set()
    for inst in sorted(instruments, key=lambda i: i.name):  # type: ignore[attr-defined]
        name = prometheus_name(inst.name)  # type: ignore[attr-defined]
        seen.add(inst.name)  # type: ignore[attr-defined]
        help_text = (inst.help or inst.name).replace("\\", r"\\").replace(  # type: ignore[attr-defined]
            "\n", r"\n"
        )
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {inst.kind}")  # type: ignore[attr-defined]
        if isinstance(inst, Histogram):
            for bound, cumulative in inst.cumulative():
                lines.append(
                    f'{name}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
                )
            lines.append(f"{name}_sum {_format_value(inst.sum)}")
            lines.append(f"{name}_count {inst.count}")
            seen.add(inst.name + ".count")
            seen.add(inst.name + ".sum")
        else:
            lines.append(f"{name} {_format_value(inst.value)}")  # type: ignore[attr-defined]
    collected = registry.snapshot()
    for dotted in sorted(collected):
        if dotted in seen:
            continue
        name = prometheus_name(dotted)
        lines.append(f"# HELP {name} {dotted}")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(collected[dotted])}")
    return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


#: One Prometheus text-format sample line: ``name{labels} value``.
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? "
    r"[+-]?(\d+(\.\d+)?([eE][+-]?\d+)?|Inf|NaN)$"
)


def parse_metrics(text: str) -> Dict[str, float]:
    """Parse a Prometheus exposition body into ``{sample_name: value}``
    — the reader of :func:`render_prometheus`.  Raises ``ValueError`` on
    any line that is neither a comment nor a well-formed sample."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if not SAMPLE_RE.match(line):
            raise ValueError(f"malformed Prometheus sample line: {line!r}")
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    return samples


# ---------------------------------------------------------------------------
# Process-global switch (repro.faults.HOOK discipline)
# ---------------------------------------------------------------------------

#: ``None`` when metrics are disabled.  Hot sites write
#: ``m = metrics.METRICS`` / ``if m is not None: ...`` so the disabled
#: cost is one attribute load and an ``is None`` test.
METRICS: Optional[MetricsRegistry] = None

_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process registry, live or not.

    Collectors and instruments register here unconditionally; whether
    instrumented *sites* write is governed by :data:`METRICS`.
    """
    return _REGISTRY


class _GCWatch:
    """A ``gc.callbacks`` hook: collections and pause seconds by generation.

    The cyclic collector is a layer like any other — on a cached sweep
    it used to be half the wall clock — but it runs inside whichever
    span happens to allocate, so no span names it.  Installed only
    while metrics are enabled; the totals cover those periods.
    """

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.pause_seconds = [0.0, 0.0, 0.0]
        self._started = 0.0

    def __call__(self, phase: str, info: Mapping) -> None:
        # Collections never nest and run under the GIL, so one start
        # stamp is enough.
        if phase == "start":
            self._started = time.perf_counter()
        else:
            generation = info["generation"]
            self.collections[generation] += 1
            self.pause_seconds[generation] += (
                time.perf_counter() - self._started
            )


_GC_WATCH = _GCWatch()


def gc_stats() -> Dict:
    """The collector's ledger, JSON-ready (the ``gc`` section of
    ``/stats``; flattened it is the ``gc.*`` metric family).

    ``frozen_objects`` is the size of the permanent generation, where
    :mod:`repro.permanent` parks cached programs.
    """
    return {
        "collections": {
            f"gen{g}": count for g, count in enumerate(_GC_WATCH.collections)
        },
        "pause_seconds": {
            f"gen{g}": s for g, s in enumerate(_GC_WATCH.pause_seconds)
        },
        "frozen_objects": gc.get_freeze_count(),
    }


def _collect_gc() -> Dict[str, float]:
    stats = gc_stats()
    flat = {"gc.frozen_objects": stats.pop("frozen_objects")}
    for family, by_generation in stats.items():
        for generation, value in by_generation.items():
            flat[f"gc.{family}.{generation}"] = value
    return flat


def enable_metrics() -> MetricsRegistry:
    global METRICS
    METRICS = _REGISTRY
    if _GC_WATCH not in gc.callbacks:
        gc.callbacks.append(_GC_WATCH)
    _REGISTRY.register_collector("gc", _collect_gc)
    return _REGISTRY


def disable_metrics() -> None:
    global METRICS
    METRICS = None
    if _GC_WATCH in gc.callbacks:
        gc.callbacks.remove(_GC_WATCH)


def metrics_enabled() -> bool:
    return METRICS is not None
