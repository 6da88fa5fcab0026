"""Unified telemetry plane: metrics, host spans, structured logs.

Three stdlib-only pillars, each independently switchable and free when
off (the ``repro.faults.HOOK`` discipline — one module-global ``None``
check on the hot path):

* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges, and log-scale histograms, plus *collectors* that absorb the
  counter structs the codebase already keeps (store stats, scheduler
  resilience stats, WAL stats) at scrape time with zero hot-path cost.
* :mod:`repro.obs.spans` — wall-clock host spans emitted as Chrome
  Trace Event ``"X"`` slices that merge with the cycle-domain
  :class:`~repro.sim.tracing.TraceRecorder` output into one Perfetto
  file (host spans on their own pid).
* :mod:`repro.obs.logs` — structured JSONL logging with a request-id
  contextvar propagated server → scheduler → sweep pool → engine.
"""

from .logs import (  # noqa: F401
    bind_request_id,
    configure_logging,
    current_request_id,
    get_logger,
    new_request_id,
)
from .metrics import (  # noqa: F401
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    get_registry,
    metrics_enabled,
)
from .spans import (  # noqa: F401
    SpanRecorder,
    disable_spans,
    enable_spans,
    merge_host_trace,
    span,
    spans_enabled,
)
