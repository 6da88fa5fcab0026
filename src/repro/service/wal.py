"""The write-ahead admission log: durable job state for the service.

Every job the scheduler admits lives, until this module existed, only in
memory — a crash forgot all queued and in-flight work, and only the
content-addressed store survived.  The WAL closes that gap: an
``admitted`` record is appended (and fsynced) *before* a job becomes
visible, and a ``terminal`` record is appended when the job completes or
fails, so a restart can replay the log and reconstruct exactly the
outstanding work — with the **original job ids**, which is what keeps
``GET /jobs/<id>`` working across a crash.

Replay is safe because simulation is deterministic and results are
content-addressed: re-running an admitted job either hits the store (its
record was spilled before the crash — zero engine work) or recomputes
bit-identical bytes.  Replaying too much is therefore merely wasted
work; replaying too little only loses ids the client can resubmit.  The
WAL never has to be exactly-once — at-least-once plus idempotent
execution is the whole design.

**Format.**  A record schema over the one append-only log,
:class:`repro.sim.linecodec.LineLog` (the file, line format and
torn-tail handling the sweep journal uses too): one record per line,
fsynced appends, torn-tail truncation on open.  Records:

* header — ``{"kind": "admission-wal/v1", "code": <code_version>}``.
  A code-version mismatch on replay is *recorded, not refused*: admitted
  jobs re-validate and re-key against the new code, so recovery after a
  deploy simply re-simulates what the new code cannot prove persisted.
* ``{"kind": "admitted", "job": id, "key": ..., "request": {...},
  "sweep": bool, "client": ..., "deadline_s": ..., "status": null}`` —
  appended before the job is visible.  Earlier code wrote a store hit
  as one admission with ``status: "done"`` folded in; replay still
  reads such a record straight into the terminal index, but a hit now
  writes nothing (its id names its store key).
* ``{"kind": "terminal", "job": id, "status": "done"|"error",
  "key": ..., "error": ...}`` — appended when the job's outcome lands.

**Compaction.**  Every :data:`COMPACT_EVERY` terminal outcomes the log
is rewritten (:meth:`~repro.sim.linecodec.LineLog.rewrite`: tmp file,
fsync, ``os.replace``, directory fsync) keeping only the pending
``admitted`` records plus the most recent :data:`KEEP_TERMINAL` terminal
records, so the file stays bounded while recently issued ids remain
resolvable across a restart.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from threading import Lock
from typing import Dict, Mapping, Optional

from .. import faults
from ..sim.linecodec import LineLog

#: The WAL format identifier (bump on incompatible change).
WAL_KIND = "admission-wal/v1"

#: Terminal outcomes appended between two compactions.
COMPACT_EVERY = 256

#: Terminal outcomes a compaction keeps (the most recent ones).
KEEP_TERMINAL = 1024


class WALError(RuntimeError):
    """The admission log is unusable (wrong kind, closed, or an append
    failed) — the service must refuse admission rather than promise a
    durability it cannot deliver."""


@dataclass
class WALStats:
    """Per-instance counters (surfaced on ``/stats``)."""

    #: Admission records appended.
    admitted_appends: int = 0
    #: Terminal records appended.
    terminal_appends: int = 0
    #: Log rewrites that dropped completed entries.
    compactions: int = 0
    #: Records replayed from the valid prefix on :meth:`open`.
    records_replayed: int = 0
    #: Torn/corrupt trailing lines dropped on :meth:`open`.
    lines_dropped: int = 0


@dataclass
class WALRecovery:
    """What :meth:`AdmissionWAL.open` reconstructed from the log.

    ``pending`` maps job id -> admitted record for every job without a
    terminal outcome, in admission order (the re-enqueue order).
    ``terminal`` maps job id -> its terminal outcome (status, key,
    error, and — when the admitted record was still in the log — the
    original request), so completed ids stay resolvable.
    ``max_counter`` is the highest numeric job-id suffix seen, which the
    scheduler must advance past so fresh ids never collide with
    recovered ones.
    """

    header: Optional[Dict] = None
    pending: Dict[str, Dict] = field(default_factory=dict)
    terminal: Dict[str, Dict] = field(default_factory=dict)
    max_counter: int = 0
    records_replayed: int = 0
    lines_dropped: int = 0
    #: The log was written by a different code version (informational:
    #: replay re-keys every request against the current code anyway).
    code_changed: bool = False


def _job_counter(job_id: str) -> int:
    """The numeric suffix of a ``job-NNNNNN`` id (0 when unparseable)."""
    suffix = str(job_id).rsplit("-", 1)[-1]
    try:
        return int(suffix)
    except ValueError:
        return 0


class AdmissionWAL:
    """One service's append-only admission log, thread-safe to append.

    Construction never touches the disk; :meth:`open` replays the valid
    prefix (truncating any torn tail) and arms appends.  Every append is
    fsynced, so a power loss costs at most the in-flight record.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.stats = WALStats()
        self._lock = Lock()
        self._log = LineLog(self.path, WAL_KIND, WALError)
        self._header: Dict = {}
        #: Live replay state, maintained as appends flow so compaction
        #: never has to re-read the file: admitted-without-terminal by
        #: id (insertion = admission order), terminal outcomes by id.
        self._pending: Dict[str, Dict] = {}
        self._terminal: Dict[str, Dict] = {}
        self._terminals_since_compact = 0

    # -- lifecycle -----------------------------------------------------

    def open(self) -> WALRecovery:
        """Replay the log's valid prefix and arm appends.

        Truncates any torn tail (a crash mid-append leaves at most one),
        writes a fresh header when the file is new, and returns the
        :class:`WALRecovery` the scheduler replays.  Raises
        :class:`WALError` when the first record is not an
        ``admission-wal/v1`` header.  Idempotent: re-opening an open WAL
        returns the original recovery view without re-reading the file.
        """
        from .store import code_version

        with self._lock:
            if not self._log.is_open:
                self._log.open(self._load())
                if not self._header:
                    self._header = {"kind": WAL_KIND, "code": code_version()}
                    self._append_locked(self._header)
            recovery = self._recovery()
            recovery.code_changed = self._header.get("code") != code_version()
            return recovery

    def _load(self) -> int:
        """Replay the file's valid prefix into this log's state without
        writing; returns how many bytes of it verified."""
        records, valid_bytes, dropped = self._log.scan()
        for record in records[1:]:
            if record.get("kind") == "admitted":
                self._replay_admitted(record)
            elif record.get("kind") == "terminal":
                self._replay_terminal(record)
            # Unknown kinds are tolerated so the format can grow.
        self._header = records[0] if records else {}
        self.stats.records_replayed = len(records)
        self.stats.lines_dropped = dropped
        return valid_bytes

    def _recovery(self) -> WALRecovery:
        ids = list(self._pending) + list(self._terminal)
        return WALRecovery(
            header=dict(self._header) if self._header else None,
            pending={k: dict(v) for k, v in self._pending.items()},
            terminal={k: dict(v) for k, v in self._terminal.items()},
            max_counter=max((_job_counter(i) for i in ids), default=0),
            records_replayed=self.stats.records_replayed,
            lines_dropped=self.stats.lines_dropped,
        )

    def _replay_admitted(self, record: Dict) -> None:
        job_id = record.get("job")
        if not job_id:
            return
        if record.get("status"):
            # A store hit folded into its admission by earlier code:
            # straight to the terminal index.
            self._pending.pop(job_id, None)
            self._terminal[job_id] = record
        else:
            self._pending[job_id] = record

    def _replay_terminal(self, record: Dict) -> None:
        job_id = record.get("job")
        if not job_id:
            return
        admitted = self._pending.pop(job_id, None)
        if admitted is not None and "request" not in record:
            # Carry the admitted request along so a resolved-after-
            # restart id can still report what it was.
            record = {**record, "request": admitted.get("request")}
        self._terminal[job_id] = record

    def close(self) -> None:
        with self._lock:
            self._log.close()

    def __enter__(self) -> "AdmissionWAL":
        self.open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- appends -------------------------------------------------------

    def _append_locked(self, record: Mapping) -> None:
        """Append one record (call under the lock; raises ``OSError`` —
        including the injected ``wal.append`` fault — on failure)."""
        faults.fire("wal.append", context=str(record.get("kind")))
        self._log.append(record)

    def append_admitted(
        self,
        job_id: str,
        key: str,
        request: Mapping,
        sweep: bool = False,
        client: Optional[str] = None,
        deadline_s: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> None:
        """Record an admission — call *before* the job becomes visible.

        ``request_id`` ties the record to the structured service logs;
        replay tolerates its absence in older WALs.
        """
        record = {
            "kind": "admitted",
            "job": str(job_id),
            "key": key,
            "request": dict(request),
            "sweep": bool(sweep),
            "client": client,
            "deadline_s": deadline_s,
            "status": None,
            "request_id": request_id,
        }
        with self._lock:
            self._append_locked(record)
            self.stats.admitted_appends += 1
            self._replay_admitted(record)

    def append_terminal(
        self,
        job_id: str,
        status: str,
        key: Optional[str] = None,
        error: Optional[str] = None,
    ) -> None:
        """Record a job's outcome (``"done"`` or ``"error"``)."""
        record = {
            "kind": "terminal",
            "job": str(job_id),
            "status": str(status),
            "key": key,
            "error": error,
        }
        with self._lock:
            self._append_locked(record)
            self.stats.terminal_appends += 1
            self._replay_terminal(record)
            self._count_terminal_locked()

    def _count_terminal_locked(self) -> None:
        """Count one terminal outcome; every :data:`COMPACT_EVERY`th
        rewrites the log as the pending admissions plus the most recent
        :data:`KEEP_TERMINAL` outcomes."""
        self._terminals_since_compact += 1
        if self._terminals_since_compact < COMPACT_EVERY:
            return
        if len(self._terminal) > KEEP_TERMINAL:
            self._terminal = dict(
                list(self._terminal.items())[-KEEP_TERMINAL:]
            )
        self._log.rewrite(
            [self._header, *self._pending.values(), *self._terminal.values()]
        )
        self._terminals_since_compact = 0
        self.stats.compactions += 1

    # -- reporting -----------------------------------------------------

    def stats_dict(self) -> Dict:
        """Counters plus live log state, JSON-ready."""
        with self._lock:
            return {
                **asdict(self.stats),
                "pending": len(self._pending),
                "terminal": len(self._terminal),
                "path": str(self.path),
            }


def load_wal(path) -> WALRecovery:
    """Read-only replay of a WAL's valid prefix (fsck and tests): never
    truncates, never writes, raises :class:`WALError` on a bad header."""
    wal = AdmissionWAL(path)
    wal._load()
    return wal._recovery()
