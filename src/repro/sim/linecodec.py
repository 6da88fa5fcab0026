"""The shared self-verifying journal line codec.

Two durable logs in this repository append one record per line and must
survive being killed mid-write: the sweep checkpoint journal
(:mod:`repro.sim.journal`) and the service admission WAL
(:mod:`repro.service.wal`).  Both use this codec, so there is exactly
one implementation of the on-disk line format:

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
append-mode handle, flushed (and usually fsynced) per record.  A crash
mid-append leaves at most one torn line — exactly what the scan
tolerates.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Mapping, Optional, Tuple

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
