"""The persistent, content-addressed simulation result store.

Every simulation in this repository is deterministic: the result is a
pure function of (program structure, input data, engine options, code
version).  This module makes that function a *durable* one — a result
computed once is a key-value read forever after, across processes and
across server restarts.

**Addressing.**  A record's key is the SHA-256 of the canonical JSON
(:func:`repro.sim.linecodec.record_line`) of its identity parts:
the scenario's structural signature, a digest of the generated input
arrays, the engine-options overrides, the seed, and
:func:`~repro.codeversion.code_version` — a digest of the ``repro``
package's own source (defined below the sweep layers, which stamp their
journals with it; re-exported here).
Any code change therefore changes every key, which is the store's whole
cache-invalidation story: stale entries are never *read* again, they
simply age out of the LRU (see ``docs/serving.md``).

**Layout.**  ``root/objects/<k[:2]>/<k>.json``, each blob the canonical
JSONL record followed by a ``sha256:<digest>`` trailer line digesting
it.  Blobs are written to a temp file and published with ``os.link``
(falling back to ``os.replace``), so

* readers never observe a partially written blob, and
* when two processes race to publish the same key, exactly one ``put``
  reports the win — and since records are deterministic, both sides
  subsequently read bit-identical bytes.

**Integrity.**  Every read re-verifies the trailer digest before the
record is trusted: a blob that fails (bit rot, a torn write survived by
a crashed filesystem, hand truncation) is moved to ``root/quarantine/``
and the read reports a miss, so corruption costs a re-simulation —
never a wrong answer.  Unreadable blobs (I/O errors) are likewise
misses, and store construction sweeps stale ``.tmp-*`` droppings left
by publishers that crashed mid-put.

**Accounting.**  Hits, misses, puts, lost races, evictions, read
errors, quarantined blobs, and swept temp files are counted per
:class:`ResultStore` instance (in-memory, per process);
``equeue-serve`` exposes them on its stats endpoint.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple, Union

from .. import faults
from ..codeversion import code_version  # noqa: F401  (re-exported)
from ..sim.linecodec import record_line

_KEY_PATTERN = re.compile(r"^[0-9a-f]{64}$")


def inputs_digest(inputs: Optional[Mapping]) -> str:
    """A digest of an engine input dict (named NumPy arrays).

    Hashes name, dtype, shape, and raw bytes of every array in name
    order; ``None`` (self-contained programs) digests to a fixed token.
    Two requests whose *generated data* is identical — not merely their
    seeds — share a digest, which is what makes the store genuinely
    content-addressed.
    """
    if inputs is None:
        return "no-inputs"
    digest = hashlib.sha256()
    for name in sorted(inputs):
        import numpy as np

        array = np.ascontiguousarray(inputs[name])
        digest.update(name.encode("utf-8"))
        digest.update(b"\0")
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(repr(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def request_key(parts: Mapping) -> str:
    """The store key for a request's identity parts.

    ``parts`` must be JSON-serializable; the key is the SHA-256 of its
    canonical JSON line, so key equality is exactly canonical-content
    equality (insertion order never matters).
    """
    return hashlib.sha256(
        record_line(parts).encode("utf-8")
    ).hexdigest()


#: Digests of the blob lines :func:`parse_blob` has parsed into a JSON
#: object.  A line whose digest is here is byte for byte one that parsed,
#: so it is valid without parsing it again.  Bounded: cleared wholesale
#: at the cap (a miss only costs one parse).
_PARSED_DIGESTS: Set[str] = set()
_PARSED_DIGESTS_CAP = 4096


def parse_blob(text: str) -> Optional[Tuple[bytes, Optional[Dict]]]:
    """Verify a blob's text into ``(line, record)``; ``None`` means
    corrupt.  The one definition of a valid blob (the read path and
    ``--fsck`` both call it): a line, a newline, the ``sha256:`` trailer
    digesting that line, a newline — and the line a JSON object.

    The digest is checked on every call.  The line is parsed only the
    first time its digest is seen in this process: ``record`` is then
    the parsed line, and ``None`` on every later call, when the caller
    parses ``line`` itself if it needs the record."""
    line, _, trailer = text.partition("\n")
    raw = line.encode("utf-8")
    digest = hashlib.sha256(raw).hexdigest()
    if trailer != f"sha256:{digest}\n":
        return None
    if digest in _PARSED_DIGESTS:
        return raw, None
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict):
        return None
    if len(_PARSED_DIGESTS) >= _PARSED_DIGESTS_CAP:
        _PARSED_DIGESTS.clear()
    _PARSED_DIGESTS.add(digest)
    return raw, record


@dataclass
class StoreStats:
    """Per-instance counters (reset when the instance is recreated)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    #: Puts that found another process's blob already published.
    lost_races: int = 0
    evictions: int = 0
    #: Reads that failed with an I/O error (served as misses).
    read_errors: int = 0
    #: Blobs that failed digest/format verification and were moved to
    #: ``root/quarantine`` (served as misses; the key re-simulates).
    quarantined: int = 0
    #: Stale ``.tmp-*`` publish droppings removed by the startup sweep.
    tmp_swept: int = 0


class ResultStore:
    """Content-addressed result records on disk, multi-process safe.

    ``root`` is created on demand.  ``max_entries`` (optional) bounds the
    store: after a winning put, the oldest blobs beyond the cap are
    evicted (LRU by file mtime; hits refresh it).  ``tmp_max_age_s``
    bounds the startup sweep of crashed publishers' temp files: anything
    older is dead (a live put holds its temp file for milliseconds), and
    newer ones are left alone in case another process is mid-publish.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_entries: Optional[int] = None,
        tmp_max_age_s: float = 3600.0,
    ):
        self.root = Path(root)
        self._objects = os.path.join(str(root), "objects")
        self.max_entries = max_entries
        self.tmp_max_age_s = tmp_max_age_s
        self.stats = StoreStats()
        (self.root / "objects").mkdir(parents=True, exist_ok=True)
        self.sweep_tmp(tmp_max_age_s)
        # Entry accounting without a directory walk per put/stats call:
        # scanned once here, then maintained on wins/evictions/clears.
        # Approximate when other processes share the root (their puts
        # are invisible until the next eviction scan resyncs it).
        self._approx_entries = sum(1 for _ in self._blobs())

    # -- paths ---------------------------------------------------------

    def _blob_name(self, key: str) -> str:
        """THE layout: ``root/objects/<k[:2]>/<k>.json`` — as a string,
        because a ``Path`` costs more to build than the blob to read."""
        if not _KEY_PATTERN.match(key):
            raise ValueError(f"malformed store key {key!r}")
        return f"{self._objects}/{key[:2]}/{key}.json"

    def _blob_path(self, key: str) -> Path:
        return Path(self._blob_name(key))

    def _blobs(self) -> Iterator[Path]:
        # [!.] keeps in-flight ``.tmp-*`` publish files out: they are
        # not entries, and eviction unlinking one mid-publish would
        # crash the publisher's os.link with ENOENT.
        yield from (self.root / "objects").glob("??/[!.]*.json")

    # -- the key-value API ---------------------------------------------

    def get(self, key: str) -> Optional[Dict]:
        """The stored record for ``key``, or ``None`` (a miss)."""
        found = self._read(key)
        if found is None:
            return None
        line, record = found
        return json.loads(line) if record is None else record

    def read(self, key: str) -> Optional[bytes]:
        """The verified line stored under ``key``, or ``None`` (a miss):
        the blob's canonical JSON line exactly as stored — what a
        response can carry without parsing or serialising the record."""
        found = self._read(key)
        return None if found is None else found[0]

    def _read(self, key: str) -> Optional[Tuple[bytes, Optional[Dict]]]:
        """THE read path: :func:`parse_blob` of the blob under ``key``,
        or ``None`` (a miss).

        A read is trusted only after its trailer digest re-verifies:
        corrupt or malformed blobs are quarantined and served as misses,
        and I/O errors are misses too — the store can degrade a read to
        a re-simulation, never to a wrong record.
        """
        name = self._blob_name(key)
        try:
            with open(name, "rb", buffering=0) as handle:
                data = handle.readall()
            # "replace": bytes that are not UTF-8 cannot re-encode to
            # what the trailer digests, so they fail like any bit rot.
            text = faults.fire(
                "store.get",
                context=key,
                payload=data.decode("utf-8", "replace"),
            )
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            self.stats.read_errors += 1
            self.stats.misses += 1
            return None
        found = parse_blob(text)
        if found is None:
            self._quarantine(name)
            self.stats.quarantined += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        try:  # refresh LRU recency; best-effort (blob may be evicted)
            os.utime(name)
        except OSError:
            pass
        return found

    @staticmethod
    def _frame_blob(record: Mapping) -> str:
        """The on-disk framing: canonical record line + digest trailer."""
        line = record_line(record)
        digest = hashlib.sha256(line.encode("utf-8")).hexdigest()
        return f"{line}\nsha256:{digest}\n"

    def _quarantine(self, name: str) -> None:
        """Move a corrupt blob out of the address space (best-effort:
        fall back to deletion so the bad bytes can never be read again)."""
        quarantine = self.root / "quarantine"
        try:
            quarantine.mkdir(parents=True, exist_ok=True)
            os.replace(name, quarantine / os.path.basename(name))
        except OSError:
            try:
                os.unlink(name)
            except OSError:
                pass

    def put(self, key: str, record: Mapping) -> bool:
        """Publish ``record`` under ``key``; True when this call won.

        The record is serialized to its canonical JSON line, framed with
        a digest trailer, written to a temp file in the target
        directory, and published atomically — ``os.link`` fails if the
        blob already exists, which is how exactly one of N racing
        processes observes the win.  Readers can never see a partial
        blob.
        """
        path = self._blob_path(key)
        faults.fire("store.put", context=key)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = self._frame_blob(record)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(data)
            try:
                os.link(tmp_name, path)
                won = True
            except FileExistsError:
                won = False
            except OSError:
                # Filesystems without hard links: atomic replace.  The
                # win is then approximate (last writer), but records for
                # one key are deterministic, so content is unaffected.
                won = not path.exists()
                os.replace(tmp_name, path)
                tmp_name = None
        finally:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
        if won:
            self.stats.puts += 1
            self._approx_entries += 1
            if (
                self.max_entries is not None
                and self._approx_entries > self.max_entries
            ):
                self._evict_over(self.max_entries)
        else:
            self.stats.lost_races += 1
        return won

    # -- maintenance ---------------------------------------------------

    def sweep_tmp(self, max_age_s: Optional[float] = None) -> int:
        """Remove publish temp files older than ``max_age_s``.

        A put that crashed between ``mkstemp`` and publication leaves a
        ``.tmp-*`` file behind; they are invisible to reads (``_blobs``
        never matches dotfiles) but accumulate forever.  Run at store
        construction; ``max_age_s=0`` sweeps unconditionally (tests).
        """
        if max_age_s is None:
            max_age_s = self.tmp_max_age_s
        cutoff = time.time() - max_age_s
        swept = 0
        for path in (self.root / "objects").glob("??/.tmp-*"):
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    swept += 1
            except OSError:  # concurrently published or removed
                continue
        self.stats.tmp_swept += swept
        return swept

    def __len__(self) -> int:
        return sum(1 for _ in self._blobs())

    def keys(self) -> List[str]:
        """Stored keys, sorted."""
        return sorted(path.stem for path in self._blobs())

    def _evict_over(self, max_entries: int) -> int:
        """Drop least-recently-used blobs beyond ``max_entries``.

        The one full-scan path — entered only when the maintained entry
        count crosses the cap, and it resyncs that count from the scan's
        ground truth (picking up other processes' puts as a side
        effect).
        """
        blobs = []
        for path in self._blobs():
            try:
                blobs.append((path.stat().st_mtime_ns, path))
            except OSError:  # concurrently evicted elsewhere
                continue
        evicted = 0
        blobs.sort()
        for _, path in blobs[: max(0, len(blobs) - max_entries)]:
            try:
                path.unlink()
                evicted += 1
            except OSError:
                continue
        self.stats.evictions += evicted
        self._approx_entries = len(blobs) - evicted
        return evicted

    def clear(self) -> None:
        """Remove every blob (counters keep accumulating)."""
        for path in self._blobs():
            try:
                path.unlink()
            except OSError:
                continue
        self._approx_entries = 0

    def stats_dict(self) -> Dict:
        """Counters plus the maintained entry count, JSON-ready.

        ``entries`` is the walk-free running count — exact for a
        single-writer store, approximate while other processes are
        concurrently publishing (use ``len(store)`` for an authoritative
        scan)."""
        return {**asdict(self.stats), "entries": self._approx_entries}
