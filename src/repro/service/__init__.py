"""The simulation service layer: persistent results, coalesced jobs,
and the ``equeue-serve`` front end.

The ROADMAP's north star is a system that serves heavy simulation
traffic; the speedup lever that actually exists in that regime (and the
only one on a single-CPU host) is *never paying for the same simulation
twice*.  This package stacks four layers over the simulation stack to
get there:

* :mod:`repro.service.store` — a persistent, **content-addressed result
  store** on disk.  Records are keyed by a digest of (structural
  signature, inputs digest, engine-options digest, code version), written
  as atomic single-record JSONL blobs, and safe to share between
  processes.
* :mod:`repro.service.request` — the **request model**: a scenario
  spec resolved into a frozen :class:`JobRequest` / :class:`SweepRequest`,
  its store key, and the worker that simulates one into its record.
* :mod:`repro.service.scheduler` — an in-process **job scheduler** that
  coalesces identical in-flight requests (N waiters, one simulation),
  batches compatible queued jobs through the
  :class:`~repro.sim.batch.SweepRunner` / per-process program-cache
  path, and spills every computed record to the store.
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  ``equeue-serve`` stdlib-only HTTP JSON API (submit scenario jobs,
  poll or long-poll status, fetch stats) and the thin client used by
  tests and benchmarks.

Requests are registry scenario specs (:mod:`repro.scenarios`), responses
are the canonical result records of
:func:`repro.sim.batch.result_record`, and everything serializes through
:func:`repro.analysis.export.record_line` — the same wire format end to
end.  See ``docs/serving.md``.
"""

from .client import ServiceClient, ServiceError
from .fsck import FsckReport, fsck_state_dir
from .request import JobRequest, SweepRequest
from .scheduler import (
    DrainingError,
    Job,
    JobScheduler,
    QueueFullError,
    SweepJob,
)
from .store import (
    ResultStore,
    StoreStats,
    code_version,
    inputs_digest,
    request_key,
)
from .supervise import Supervisor
from .wal import AdmissionWAL, WALError, load_wal

__all__ = [
    "AdmissionWAL",
    "DrainingError",
    "FsckReport",
    "Job",
    "JobRequest",
    "JobScheduler",
    "QueueFullError",
    "ResultStore",
    "ServiceClient",
    "ServiceError",
    "StoreStats",
    "Supervisor",
    "SweepJob",
    "SweepRequest",
    "WALError",
    "code_version",
    "fsck_state_dir",
    "inputs_digest",
    "load_wal",
    "request_key",
]
