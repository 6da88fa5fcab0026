"""The one append-only log: a self-verifying line codec and its file.

Two durable logs in this repository append one record per line and must
survive being killed mid-write: the sweep checkpoint journal
(:mod:`repro.sim.journal`) and the service admission WAL
(:mod:`repro.service.wal`).  Both are record schemas over one
:class:`LineLog`, so there is exactly one implementation of the on-disk
line format and of the file handling under it:

    <canonical JSON> #sha256:<16 hex digits>\\n

* The JSON is :func:`record_line` canonical form (sorted keys, compact
  separators, numpy converted) — the serializer behind JSONL exports
  and the service store's blobs too, so a journaled record round-trips
  bit-identically through the bytes every other result surface uses.
* The trailer is the first 16 hex digits of the line's SHA-256.  A line
  whose trailer does not verify — or that lacks its newline — is a
  *torn tail*: everything from it onward is dropped by
  :func:`scan_lines`.  Truncating to the valid prefix is always safe for
  both consumers because a dropped line is merely recomputed (a sweep
  point) or replayed conservatively (a WAL admission) — never a wrong
  answer.

Appends are atomic in practice: one ``write()`` of a complete line to an
append-mode handle, flushed and fsynced per record.  A crash mid-append
leaves at most one torn line — exactly what the scan tolerates.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

#: Hex digits of SHA-256 kept in each line's trailer.
TRAILER_HEX = 16

SEPARATOR = " #sha256:"


def _json_default(value):
    """Convert NumPy scalars/arrays (oracle stats sometimes carry them)."""
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "shape", None) == ():
        return item()
    tolist = getattr(value, "tolist", None)
    if tolist is not None:
        return tolist()
    raise TypeError(f"{type(value).__name__} is not JSON-serializable")


def record_line(record: Mapping) -> str:
    """One record as its canonical JSON line (no trailing newline).

    Keys sorted, compact separators, NumPy values converted — the byte
    format shared by JSONL exports, the service store's blobs and both
    durable logs: the same bytes regardless of insertion order.
    """
    return json.dumps(
        record, sort_keys=True, separators=(",", ":"), default=_json_default
    )


def encode_line(record: Mapping) -> str:
    """One self-verifying journal line (no trailing newline)."""
    line = record_line(record)
    digest = hashlib.sha256(line.encode("utf-8")).hexdigest()[:TRAILER_HEX]
    return f"{line}{SEPARATOR}{digest}"


def parse_line(text: str) -> Optional[Dict]:
    """Decode one journal line; ``None`` when torn or corrupt."""
    text = text.rstrip("\n")
    line, separator, trailer = text.rpartition(SEPARATOR)
    if not separator or len(trailer) != TRAILER_HEX:
        return None
    digest = hashlib.sha256(line.encode("utf-8")).hexdigest()[:TRAILER_HEX]
    if trailer != digest:
        return None
    try:
        record = json.loads(line)
    except ValueError:  # pragma: no cover - digest already guards this
        return None
    return record if isinstance(record, dict) else None


def scan_lines(data: bytes) -> Tuple[List[Dict], int, int]:
    """A log's valid prefix: ``(records, valid_bytes, dropped_lines)``.

    Decodes lines in order until the first torn or corrupt one;
    ``valid_bytes`` is the truncation offset for an append-mode reopen,
    and ``dropped_lines`` counts everything after the valid prefix (so
    callers can report what a resume or replay loses).
    """
    records: List[Dict] = []
    valid_bytes = 0
    dropped = 0
    offset = 0
    for raw in data.splitlines(keepends=True):
        size = len(raw)
        offset += size
        record = None
        if raw.endswith(b"\n"):
            record = parse_line(raw.decode("utf-8", "replace"))
        if record is None:
            # Torn or corrupt: the valid prefix ends here.
            remainder = data[offset - size:]
            dropped = len(remainder.splitlines()) or 1
            break
        records.append(record)
        valid_bytes = offset
    return records, valid_bytes, dropped


def _encoded(record: Mapping) -> bytes:
    return (encode_line(record) + "\n").encode("utf-8")


def _fsync_dir(path: Path) -> None:
    """Make a creation or a rename inside directory ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class LineLog:
    """One append-only file of lines in this format, headed by a record
    of kind ``kind``.

    Construction never touches the disk.  :meth:`scan` reads the valid
    prefix and writes nothing; :meth:`open` arms appends after it,
    cutting a torn tail.  Every append is one ``write()``, flushed and
    fsynced; :meth:`rewrite` replaces the file atomically.  A header of
    the wrong kind, or an append to a log that is not open, raises
    ``error``.
    """

    def __init__(self, path, kind: str, error: type):
        self.path = Path(path)
        self.kind = kind
        self.error = error
        self._handle = None

    @property
    def is_open(self) -> bool:
        return self._handle is not None

    def scan(self) -> Tuple[List[Dict], int, int]:
        """The valid prefix, read-only: :func:`scan_lines`'s
        ``(records, valid_bytes, dropped_lines)`` with ``records[0]`` the
        header.  A missing file scans empty."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return [], 0, 0
        records, valid_bytes, dropped = scan_lines(data)
        if records and records[0].get("kind") != self.kind:
            raise self.error(
                f"{self.path}: expected a {self.kind!r} header, found "
                f"kind={records[0].get('kind')!r}"
            )
        return records, valid_bytes, dropped

    def open(self, valid_bytes: int) -> None:
        """Arm appends after the file's first ``valid_bytes`` (what lies
        beyond them is cut; 0 starts the file over).  A log this creates
        has its directory fsynced, so the new name survives a power
        loss."""
        created = not self.path.exists()
        if created:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "ab")
        if self._handle.tell() != valid_bytes:
            self._handle.truncate(valid_bytes)
        if created:
            _fsync_dir(self.path.parent)

    def append(self, record: Mapping) -> None:
        if self._handle is None:
            raise self.error(f"{self.path}: {self.kind} log is not open")
        self._handle.write(_encoded(record))
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def rewrite(self, records: Iterable[Mapping]) -> None:
        """Replace the file with ``records`` and keep appending to it:
        a fsynced temp file renamed over the log, then the directory
        fsynced — without it a power loss can undo the rename, and with
        it every append made to the new file since."""
        tmp = self.path.with_name(self.path.name + ".compact-tmp")
        with open(tmp, "wb") as handle:
            handle.write(b"".join(_encoded(record) for record in records))
            handle.flush()
            os.fsync(handle.fileno())
        self._handle.close()
        os.replace(tmp, self.path)
        _fsync_dir(self.path.parent)
        self._handle = open(self.path, "ab")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None
