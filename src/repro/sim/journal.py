"""The sweep checkpoint journal: append-only, torn-tail-tolerant JSONL.

A long design-space sweep must survive being killed — SIGTERM, OOM, a
deadline — without losing completed work.  The journal is the on-disk
checkpoint both library sweeps (:func:`repro.scenarios.run_scenario_sweep`,
:func:`repro.analysis.run_sweep`) write through as points complete — via
the one :func:`repro.sim.batch.journaled_sweep` driver — and what
``equeue-sim --journal PATH --resume`` replays to skip them.

Format (one record per line, self-verifying — the shared
:mod:`repro.sim.linecodec` format, which the service admission WAL
(:mod:`repro.service.wal`) also uses):

    <canonical JSON> #sha256:<16 hex digits>\n

* The JSON is :func:`~repro.sim.linecodec.record_line` canonical form
  (sorted keys, compact separators, numpy converted), so a journaled
  point round-trips bit-identically through the same serialization every
  other result surface uses.
* The trailer is the first 16 hex digits of the line's SHA-256.  A line
  whose trailer does not verify — or that lacks its newline — is a *torn
  tail*: everything after it is dropped on open.  Truncating to the
  valid prefix is always safe because a dropped point is merely
  recomputed, never wrong.
* The first record is the header (:func:`journal_header`,
  ``kind = "sweep-journal/v1"``) capturing the request (grid, seed,
  options, check), the point count, and the code version.  Resume
  refuses a journal whose header does not match the current request — a
  checkpoint from different code or a different sweep must not be
  merged.
* Each completed point appends ``{"kind": "point", "index": i,
  "point": {...}}``.  Unknown kinds are tolerated on read, so the format
  can grow.

Appends are atomic in practice: one fsynced ``write()`` of a complete
line to an append-mode handle, per point (the one
:class:`~repro.sim.linecodec.LineLog` under the WAL too).  A crash
mid-append leaves at most one torn line — exactly what open tolerates.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

from ..codeversion import code_version
from .linecodec import LineLog, record_line

#: The journal format identifier (bump on incompatible change).
JOURNAL_KIND = "sweep-journal/v1"


class JournalError(ValueError):
    """A journal that cannot be used: wrong kind, or a header mismatch
    (different sweep, different code version) on ``--resume``."""


def journal_header(request: Mapping, total: int) -> Dict:
    """The header identifying one sweep request exactly.

    ``request`` holds what selects the points and their observables —
    nothing that only selects *how* they are computed (``jobs``,
    caching): a ``jobs=N`` journal must resume with ``jobs=1``, that
    equality is the whole resilience contract.  The code version is
    stamped here, once for every journaled sweep: resume must never mix
    points two code versions produced.
    """
    return {
        "kind": JOURNAL_KIND,
        "request": dict(request),
        "total": int(total),
        "code": code_version(),
    }


def load_journal(
    path,
) -> Tuple[Optional[Dict], Dict[int, Dict], int, int]:
    """Read a journal's valid prefix.

    Returns ``(header, points, valid_bytes, dropped_lines)``: the header
    record (``None`` for a missing/empty file), completed point records
    by original sweep index, how many bytes of the file verified (the
    truncation offset for resume), and how many trailing lines were
    dropped as torn or corrupt.  Raises :class:`JournalError` when the
    first record is not a ``sweep-journal/v1`` header.
    """
    records, valid_bytes, dropped = _log(path).scan()
    points = {
        int(record["index"]): record["point"]
        for record in records[1:]
        if record.get("kind") == "point"
    }
    return (records[0] if records else None), points, valid_bytes, dropped


def _log(path) -> LineLog:
    return LineLog(path, JOURNAL_KIND, JournalError)


class SweepJournal:
    """One sweep's checkpoint file: open (fresh or resuming), append
    points as they complete, close.  Context-manager friendly.  Every
    append is fsynced, so a power loss costs at most the in-flight
    point."""

    def __init__(self, path):
        self.path = Path(path)
        self._log = _log(self.path)
        #: Points loaded from the valid prefix on a resuming open.
        self.points_resumed = 0
        #: Torn/corrupt trailing lines dropped on a resuming open.
        self.lines_dropped = 0

    # -- lifecycle -----------------------------------------------------

    def open(self, header: Mapping, resume: bool = False) -> Dict[int, Dict]:
        """Start (or continue) journaling under ``header``.

        Fresh open truncates and writes the header.  ``resume=True``
        loads the valid prefix, verifies the existing header matches
        ``header`` exactly (same sweep, same code version — else
        :class:`JournalError`), truncates any torn tail, and returns the
        completed points by index.  An empty or missing file resumes as
        a fresh journal.
        """
        if resume:
            existing, completed, valid_bytes, dropped = load_journal(
                self.path
            )
            self.lines_dropped = dropped
            if existing is not None:
                self._check_header(existing, header)
                self.points_resumed = len(completed)
                self._log.open(valid_bytes)
                return completed
        self._log.open(0)
        self._log.append(dict(header))
        return {}

    def _check_header(self, existing: Mapping, header: Mapping) -> None:
        want = record_line(dict(header))
        have = record_line(dict(existing))
        if want != have:
            raise JournalError(
                f"{self.path}: journal header does not match this sweep "
                "(different grid/seed/options or code version); "
                "refusing to merge — remove the journal or rerun "
                "without --resume"
            )

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- appends -------------------------------------------------------

    def append_point(self, index: int, point: Mapping) -> None:
        """Checkpoint one completed point under its sweep index."""
        self._log.append(
            {"kind": "point", "index": int(index), "point": dict(point)}
        )
