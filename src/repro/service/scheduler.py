"""The in-process job scheduler: coalesce, batch, simulate, spill.

Sitting between the HTTP front end and the simulation stack, the
scheduler guarantees the service's core invariant — **identical
requests never pay for simulation twice** — via three mechanisms, in
lookup order:

1. **Request coalescing.**  A request whose key matches a queued or
   running job joins that job: N callers wait on one simulation, and
   each sees the same completed record.
2. **Store hits.**  A request whose key is in the
   :class:`~repro.service.store.ResultStore` is answered by a settled
   view of the stored line: nothing is queued, run, written or indexed
   — the hit's id (``hit-<key>``) names its record.
3. **Batched execution.**  Queued jobs drain in batches of compatible
   work (same engine options), ordered signature-affinely and run
   through :class:`~repro.sim.batch.SweepRunner` over the process's one
   program cache, so structurally identical jobs compile once.  Every
   fresh record is spilled to the store before waiters wake.

Records are normalized through their canonical JSON line before a job
completes, so a response is bit-identical whether it was simulated just
now, coalesced, or read back from the store warm.  What a job asks for
is the request model, :mod:`repro.service.request`.

:meth:`JobScheduler.run_pending` drains the queue on the calling thread
(deterministic, used by tests); :meth:`~JobScheduler.start` and
:meth:`~JobScheduler.stop` run a background worker thread for the HTTP
front end.
"""

from __future__ import annotations

import json
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from itertools import islice
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .. import faults
from ..obs import logs as obs_logs
from ..obs import metrics as obs_metrics
from ..obs.spans import span as _span
from ..sim.batch import ResilienceStats, SweepRunner, process_compile_cache
from ..sim.engine import resolve_execution_mode
from ..sim.linecodec import record_line
from .request import (
    SWEEP_KIND, JobRequest, RequestError, SweepRequest, _payload_context,
    _payload_signature, _RecoveredRequest, _stored_request, _sweep_record,
    evaluate_request, request_from_body, request_store_key,
)
from .store import ResultStore, code_version
from .wal import AdmissionWAL, WALError, WALRecovery

_log = obs_logs.get_logger("service.scheduler")

#: Jobs the by-id index holds: beyond it the oldest *completed* ones are
#: dropped (their ids resolve through the terminal index, four times as
#: long).
MAX_JOBS = 10_000

#: A store hit's id is this prefix and its store key: the id names its
#: record, so a hit enters no index and resolves through the store
#: exactly while the record is stored.  Jobs that simulate get counter
#: ids (``job-000123``) held by the WAL.
HIT_PREFIX = "hit-"

#: Seconds between two watchdog passes.
WATCHDOG_POLL_S = 0.05

#: Seconds a worker thread may stay wedged past an expired deadline
#: before the watchdog writes it off and starts a replacement.
STUCK_GRACE_S = 30.0


class QueueFullError(RuntimeError):
    """Admission control: the bounded queue is full (HTTP 503)."""


class DrainingError(RuntimeError):
    """The scheduler is draining for shutdown; no new work (HTTP 503)."""


class Job:
    """One scheduled request: state, waiters, and the eventual record.

    Completion is **first-writer-wins** (:meth:`JobScheduler._settle`):
    a late record never overwrites a deadline failure, or vice versa.
    Made with an ``outcome``, a job is a settled view of it, held by
    nothing and with no event: a store hit, or an id resolved from its
    terminal entry or the store.  A hit's outcome is the verified line
    it read, parsed only when asked for; :meth:`to_json` splices it in.
    """

    __slots__ = (
        "id", "key", "request", "state", "error", "source",
        "waiters", "submitted_at", "started_at", "finished_at",
        "deadline_s", "deadline_at", "request_id", "store_put_s",
        "timings", "_record", "_line", "_done",
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
        #: The ``time.monotonic()`` the budget ends at while the job's
        #: run executes (else None): what the watchdog reads.
        self.deadline_at: Optional[float] = None
        #: The structured-log correlation id issued at admission (WAL
        #: record, log lines, wire dict) — request-scoped, so NOT part of
        #: the stored record shared across coalesced and warm callers.
        self.request_id = request_id
        #: Seconds spent spilling the fresh record to the store.
        self.store_put_s: Optional[float] = None
        #: Wall-clock phase breakdown, stamped at completion.
        self.timings: Dict[str, float] = {}
        if outcome is None:
            self._done = threading.Event()
        else:
            self._done = None
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
        first.  Called under the scheduler's lock, which is what makes
        the first writer win."""
        if self._done.is_set():
            return False
        self.finished_at = time.time()
        self._end(outcome, source)
        self._done.set()
        return True

    def _end(self, outcome: Union[Dict, bytes, str], source) -> None:
        """Take the outcome — an error message, a record, or the
        verified line it parses from — and stamp the wall-clock
        breakdown (a store answer's ``execute_s`` is 0)."""
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

    ``points_total`` is fixed when execution starts and ``points_done``
    advances as each point completes (resumed points at once), so a
    poller of ``GET /jobs/<id>`` sees a moving fraction.
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
    #: WAL-replayed jobs completed from the store (the job finished
    #: before the crash): zero engine work on replay.
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
    """Flatten the ``/stats`` payload into ``{dotted_name: value}``: the
    one source of the ``metrics`` block of ``/stats`` and of
    ``GET /metrics``.  Non-numeric leaves are dropped; booleans export
    as 0/1 gauges."""
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
    applies; nothing persists).  ``jobs`` is the :class:`SweepRunner`
    worker count for each drained batch (``1``, the default and the
    right choice on single-CPU hosts, runs on the draining thread).

    Robustness knobs (all optional):

    * ``max_queue`` bounds admission — a submit that would queue beyond
      it raises :class:`QueueFullError` (coalesces and store hits cost
      nothing, and are always admitted).
    * ``deadline_s`` is the default per-job wall-clock budget, which the
      watchdog enforces (:meth:`_watchdog_tick`): the job fails, the
      service survives.
    * :meth:`drain` refuses new queue admissions
      (:class:`DrainingError`) while already-admitted work completes.

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
        #: :meth:`recover` MUST run before traffic (it opens the log): a
        #: submit against an unopened WAL raises loudly.
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
        #: Every job created, by id (the server's lookup table; never a
        #: store hit), up to :data:`MAX_JOBS`.
        self._jobs: Dict[str, Job] = {}
        #: Terminal outcomes by id, kept after the job itself is pruned
        #: or lost to a restart, so ``job()`` resolves the id from the
        #: store rather than 404ing it.  Bounded FIFO.
        self._terminal: Dict[str, Dict] = {}
        #: Jobs drained by an in-progress run_pending, per thread ident:
        #: what the watchdog polices, and fails wholesale when it
        #: abandons a wedged worker.
        self._drains: Dict[int, List[Job]] = {}
        self._counter = 0
        #: Jobs settled so far: a submit whose store read missed sees it
        #: move when a twin settled meanwhile.
        self._settled = 0
        self._worker: Optional[threading.Thread] = None
        self._watchdog: Optional[threading.Thread] = None
        #: Set by stop(): the worker reads it under the lock, and the
        #: watchdog sleeps on it, so a stop wakes it at once.
        self._stopping = threading.Event()
        # A scrape-time collector: every counter becomes a dotted metric
        # with no hot-path write.  The name replaces any previous
        # scheduler's collector, so many schedulers never double-count.
        obs_metrics.get_registry().register_collector(
            "scheduler", self.metrics_snapshot
        )
        # Every store key digests the code version: hash the package's
        # source here, not inside the first submit.
        code_version()

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
        is read outside the lock, and only for a key not in flight; the
        in-flight index is then checked under the lock, and the store
        read again if a job settled meanwhile, so a request that raced a
        just-finishing twin coalesces or hits its spilled record — never
        simulates twice.  A hit answers even while a twin is in flight.

        Queue admission is checked *last*: what the service answers for
        free is never refused.  With a WAL attached, a queued job's
        ``admitted`` record is appended (and fsynced) *before* the job
        becomes visible; an append failure refuses admission
        (:class:`WALError`) rather than issue an id that would not
        survive a crash.  ``deadline_s`` overrides the default;
        ``client`` (the peer address) is recorded in the admission log;
        ``request_id``, the log correlation id, is issued here when the
        caller did not mint one.
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
            queued = key in self._inflight
            settled = self._settled
        found = None
        if not queued and self.store is not None:
            found = self.store.read(key)
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
                self._counter += 1
                job = job_cls(
                    f"job-{self._counter:06d}",
                    key,
                    request,
                    deadline_s=self.deadline_s if deadline_s is None else deadline_s,
                    request_id=request_id,
                )
                self._wal_admit(job, client=client)
                self._enqueue(job)
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

    def _enqueue(self, job: Job) -> None:
        """The one way a job joins the queue, from a submit or a WAL
        replay (under the lock): index it by id, give it its key's
        coalescing slot, queue it and wake the worker.  Two pending jobs
        share a key only across a crash window: the first keeps the
        slot, and the duplicate still runs (redundant, never wrong)."""
        self._jobs[job.id] = job
        self._prune_jobs()
        self._inflight.setdefault(job.key, job)
        self._queue.append(job)
        self._lock.notify_all()

    def _prune_jobs(self) -> None:
        """Drop the oldest *completed* jobs beyond :data:`MAX_JOBS` (under
        the lock; dict order is creation order); a pruned id still
        resolves through the terminal index."""
        excess = len(self._jobs) - MAX_JOBS
        if excess <= 0:
            return
        # Stop at the excess-th done job: listing every done job to
        # delete one made each admission past the cap O(MAX_JOBS).
        done = (job_id for job_id, job in self._jobs.items() if job.done)
        for job_id in list(islice(done, excess)):
            del self._jobs[job_id]
            self.stats.jobs_pruned += 1

    def job(self, job_id: str) -> Optional[Job]:
        """Look a job up by id.

        Ids not in the live index — pruned, issued before a restart, or
        a hit's — resolve through their terminal record, or a hit id
        through the key it names: ``done`` outcomes re-read the store
        (a miss means the record was evicted: ``None``), ``error``
        outcomes replay the recorded failure.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            entry = None if job is not None else self._terminal.get(job_id)
        if job is not None:
            return job
        if entry is None and job_id.startswith(HIT_PREFIX):
            entry = {"status": "done", "key": job_id[len(HIT_PREFIX):]}
        return None if entry is None else self._resurrect(job_id, entry)

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
        """Index a settled job's outcome by id (under the lock), with
        the fields of the terminal WAL record :meth:`recover` indexes as
        read."""
        self._terminal[job.id] = {
            "status": job.state,
            "key": job.key,
            "error": job.error,
            "request": job.request.to_dict(),
        }
        while len(self._terminal) > 4 * MAX_JOBS:
            self._terminal.pop(next(iter(self._terminal)))

    # -- the write-ahead admission log ---------------------------------

    def _wal_admit(self, job: Job, client: Optional[str] = None) -> None:
        """Log an admission before the job becomes visible (under the
        lock: the WAL's one ordering requirement); failure refuses it."""
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

        The first writer wins, under the lock.  The job leaves the
        coalescing index in the same lock hold, so a racing submit
        coalesces onto it before it ends or reads its spilled record
        after.  Only the winner is counted under ``counter``, indexed as
        terminal and logged to the WAL; a lost terminal record only
        costs a redundant, store-hit, replay after the next crash.
        """
        with self._lock:
            won = job._settle(outcome, source)
            # Only if the index still maps the key to *this* job: a
            # thread finishing late must not deindex a newer one.
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]
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

        Terminal records populate the terminal index as read.  Every
        admitted-but-not-terminal record becomes a job with its
        **original id**: a store hit completes with zero engine work, a
        request that no longer validates fails cleanly, and the rest
        re-enqueue in admission order.  Replay is at-least-once and
        idempotent.  The summary's counts are the ``recovered_*``
        counters.
        """
        recovery = WALRecovery() if self.wal is None else self.wal.open()
        with self._lock:
            self._counter = max(self._counter, recovery.max_counter)
            self._terminal.update(recovery.terminal)
        for job_id, entry in recovery.pending.items():
            self._recover_job(job_id, entry)
        with self._lock:
            return {
                "requeued": self.stats.recovered_requeued,
                "store_hits": self.stats.recovered_store_hits,
                "failed": self.stats.recovered_failed,
                "terminal": len(recovery.terminal),
                "lines_dropped": recovery.lines_dropped,
                "code_changed": recovery.code_changed,
            }

    def _recover_job(self, job_id: str, entry: Dict) -> None:
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
            # The admitted request no longer validates (scenario removed,
            # option renamed): fail it, so the id still resolves.
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
        outcome, counter = failure, "recovered_failed"
        if failure is None and self.store is not None:
            outcome, counter = self.store.get(key), "recovered_store_hits"
        with self._lock:
            if outcome is None:
                self._enqueue(job)
                self.stats.recovered_requeued += 1
                return
            self._jobs[job_id] = job
        self._settle(job, outcome, None if failure else "store", counter)

    # -- execution -----------------------------------------------------

    def run_pending(self) -> int:
        """Drain the queue on this thread; returns jobs completed.

        The drain runs as :meth:`_runs` orders it, each run one
        :meth:`_run`.  No drained job is left in limbo: whatever happens
        inside the runs, every job drained here is completed or failed
        by the time this returns.
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
        are its grid, each spilled under its own key as it completes, so
        a resubmitted sweep resumes from them whatever interrupted it;
        the aggregate settles at the end.

        Each failure has one owner: a crash inside a job is that job's
        error record (:func:`evaluate_request`), a dead pool worker the
        runner's, and what still escapes the runner this boundary's —
        it fails every job of the run that has not ended.
        """
        sweep = jobs[0] if isinstance(jobs[0], SweepJob) else None
        with self._lock:
            # The run's deadlines count from now: queue time is free —
            # a budget bounds execution, the thing that can run away.
            started = time.monotonic()
            for job in jobs:
                job.deadline_at = started + job.deadline_s if job.deadline_s else None
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
                    # The crash plane's mid-sweep seam: a kill here loses
                    # this delivery; the replay resumes from checkpoints.
                    faults.fire(
                        "server.crash", context=f"sweep-point:{sweep.id}:{index}"
                    )
                    failed = record.get("error") is not None
                    # Spill before advancing progress: every point a
                    # poller sees counted is durable.
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
                for job in jobs:
                    job.deadline_at = None

    def _runs(self, jobs: List[Job]) -> List[List[Job]]:
        """A drain's runs, in order: the single jobs as batches of
        compatible work (same engine options; counted in ``batches``),
        then each sweep alone (so a point a batch just stored is a
        resumed hit)."""
        groups: Dict[Tuple, List[Job]] = {}
        sweeps = []
        for job in jobs:
            if isinstance(job, SweepJob):
                sweeps.append([job])
            else:
                groups.setdefault(job.request.options, []).append(job)
        with self._lock:
            self.stats.batches += len(groups)
        return [*groups.values(), *sweeps]

    def _finish(self, job: Job, record: Dict) -> None:
        # The crash plane's finish seam: a kill here leaves the job
        # admitted-but-not-terminal in the WAL, which recovery replays.
        faults.fire("server.crash", context=f"finish:{job.id}")
        error = record.get("error")
        if error is not None:
            self._settle(job, error, None, "errors")
            return
        # Normalize through the canonical JSON line: a fresh record is
        # byte-for-byte what a warm store hit serves.
        record = json.loads(record_line(record))
        # Spill before waiters wake, outside the lock (a slow put never
        # stalls submitters), and even when the job already failed on
        # deadline: the record is good, so the next request hits.  A
        # failed spill is counted, not fatal.
        if self.store is not None:
            put_started = time.perf_counter()
            try:
                with _span("store.put", key=job.key[:16]):
                    self.store.put(job.key, record)
            except OSError:
                with self._lock:
                    self.stats.store_put_failures += 1
            job.store_put_s = time.perf_counter() - put_started
        self._settle(job, record, "simulated", "simulated")

    # -- the watchdog ---------------------------------------------------

    def _watchdog_tick(self, now: float) -> None:
        """One watchdog pass at ``now``, a ``time.monotonic()`` reading
        (it reads no clock and never sleeps).

        It polices the jobs of the runs executing in :attr:`_drains`,
        which carry their run's ``deadline_at``.  A job past it fails
        at once, while the engine grinds on into a discarded record.
        If the *worker thread* is still in that run :data:`STUCK_GRACE_S`
        later, it is written off: every job of its drain fails, and a
        fresh worker takes over the queue.
        """
        with self._lock:
            running = [
                (job, job.deadline_at, ident)
                for ident, drained in self._drains.items()
                for job in drained
                if job.deadline_at is not None
            ]
            worker_ident = self._worker.ident if self._worker else None
        wedged_ident: Optional[int] = None
        for job, deadline_at, ident in running:
            if not job.done and now >= deadline_at:
                self._settle(
                    job,
                    f"deadline exceeded: job ran past its "
                    f"{job.deadline_s:g}s wall-clock budget",
                    None,
                    "deadline_failures",
                )
            if ident == worker_ident and now >= deadline_at + STUCK_GRACE_S:
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
        # Not on the lock's condition: every submit and settle notifies
        # that, and each wake would be one more tick.
        while not self._stopping.is_set():
            try:
                self._watchdog_tick(time.monotonic())
            except Exception:  # noqa: BLE001 - the watchdog must survive
                _log.error(
                    "scheduler.watchdog_error",
                    traceback=traceback.format_exc(),
                )
            self._stopping.wait(WATCHDOG_POLL_S)

    # -- the background worker -----------------------------------------

    def start(self) -> None:
        """Run a daemon worker that drains the queue as jobs arrive,
        and the watchdog that polices it — always, since any submit can
        carry a deadline."""
        with self._lock:
            if self._worker is not None:
                return
            self._stopping.clear()
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
        """Refuse new queue admissions; in-flight work keeps completing,
        and store hits and coalesces still answer."""
        with self._lock:
            self.draining = True

    def stop(self, timeout: Optional[float] = None) -> None:
        """Stop the worker after it drains already-queued jobs; past
        ``timeout`` the (daemon) thread is abandoned and its unfinished
        jobs fail cleanly."""
        with self._lock:
            worker = self._worker
            watchdog = self._watchdog
            self._stopping.set()
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
                while not self._queue and not self._stopping.is_set():
                    self._lock.wait()
                if self._stopping.is_set() and not self._queue:
                    return
                if self._worker is not None and (
                    self._worker.ident != threading.get_ident()
                ):
                    return  # replaced by the watchdog; the new worker owns the queue
            try:
                faults.fire("scheduler.worker")
                self.run_pending()
            except Exception:  # noqa: BLE001 - the worker must survive
                # A scheduler bug (or an injected worker death): record
                # it for /stats and /healthz, count the restart in place,
                # and keep draining rather than wedge the queue.
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

        The shape is versioned (``schema``) and strictly additive, and
        its numbers re-derive under ``metrics`` as the dotted names
        ``GET /metrics`` exports.
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
        payload["program_cache"] = asdict(process_compile_cache().stats)
        payload["gc"] = obs_metrics.gc_stats()
        if self.store is not None:
            payload["store"] = self.store.stats_dict()
        if self.wal is not None:
            payload["wal"] = self.wal.stats_dict()
        return payload

    def metrics_snapshot(self) -> Dict[str, float]:
        """Flat ``{dotted_name: value}`` view for the metrics registry."""
        return _flatten_stats(self._stats_payload())
