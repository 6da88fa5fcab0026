"""``equeue-serve --fsck``: the offline state-directory checker.

A service state directory (``--state-dir``) holds everything a restart
needs to recover: the admission WAL, the content-addressed result store,
and whatever a previous crash left behind (torn WAL tails, stale
``.tmp-*`` publish droppings, quarantined blobs).  This module walks all
of it *offline* — nothing is truncated, moved, or rewritten — and
reports what a recovery would see:

* **WAL integrity.**  The log's valid prefix is replayed read-only
  (:func:`repro.service.wal.load_wal`); a torn tail is a *finding*
  (normal after a crash — open() will truncate it), a bad header or an
  unreadable file is **corruption**.
* **Store blob sweep.**  Every blob re-verifies its embedded SHA-256
  trailer, exactly the check a read performs; a blob that fails is
  **corruption** (a live server would quarantine it and re-simulate).
* **Leftovers.**  Stale ``.tmp-*`` publish droppings and quarantined
  blobs are counted and reported — findings, not corruption (the live
  store sweeps and ignores them respectively).

Exit contract (what CI keys on): **corruption -> non-zero**, findings
alone -> zero.  A missing state directory is corruption too — fscking a
path that holds no service state is almost certainly an operator error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from .store import parse_blob
from .wal import WAL_KIND, WALError, load_wal

#: The WAL file name under a ``--state-dir`` (shared with the server).
WAL_NAME = "admission.wal"

#: The store root under a ``--state-dir`` (shared with the server).
STORE_NAME = "store"


@dataclass
class FsckReport:
    """What the offline check found.

    ``errors`` are corruption (non-zero exit); ``findings`` are normal
    crash residue a live server tolerates or cleans up itself.
    """

    state_dir: str = ""
    errors: List[str] = field(default_factory=list)
    findings: List[str] = field(default_factory=list)
    #: Counters: wal_records, wal_pending, wal_terminal,
    #: wal_lines_dropped, blobs_checked, blobs_corrupt, tmp_files,
    #: quarantined.
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_dict(self) -> Dict:
        return {
            "state_dir": self.state_dir,
            "ok": self.ok,
            "errors": list(self.errors),
            "findings": list(self.findings),
            "counts": dict(self.counts),
        }


def _check_wal(state_dir: Path, report: FsckReport) -> None:
    path = state_dir / WAL_NAME
    if not path.exists():
        report.findings.append(
            f"{path}: no admission log (a server that never ran with "
            "--state-dir, or a fresh directory)"
        )
        return
    try:
        recovery = load_wal(path)
    except WALError as error:
        report.errors.append(str(error))
        return
    except OSError as error:
        report.errors.append(f"{path}: unreadable: {error}")
        return
    if recovery.header is None and path.stat().st_size > 0:
        report.errors.append(
            f"{path}: no valid {WAL_KIND} header in a non-empty log "
            "(corrupt from the first line)"
        )
        return
    report.counts["wal_records"] = recovery.records_replayed
    report.counts["wal_pending"] = len(recovery.pending)
    report.counts["wal_terminal"] = len(recovery.terminal)
    report.counts["wal_lines_dropped"] = recovery.lines_dropped
    if recovery.lines_dropped:
        report.findings.append(
            f"{path}: {recovery.lines_dropped} torn/corrupt trailing "
            "line(s) — recovery will truncate to the valid prefix"
        )
    if recovery.pending:
        report.findings.append(
            f"{path}: {len(recovery.pending)} admitted job(s) without a "
            "terminal record — recovery will replay them"
        )


def _verify_blob(path: Path) -> bool:
    """The read path's check (:func:`~repro.service.store.parse_blob`),
    offline."""
    try:
        return parse_blob(path.read_text(encoding="utf-8")) is not None
    except (OSError, UnicodeDecodeError):
        return False


def _check_store(state_dir: Path, report: FsckReport) -> None:
    root = state_dir / STORE_NAME
    objects = root / "objects"
    checked = corrupt = tmp_files = 0
    if objects.is_dir():
        for path in sorted(objects.glob("??/*")):
            if path.name.startswith(".tmp-"):
                tmp_files += 1
                report.findings.append(
                    f"{path}: stale publish temp file (the live store's "
                    "startup sweep removes these)"
                )
                continue
            checked += 1
            if not _verify_blob(path):
                corrupt += 1
                report.errors.append(
                    f"{path}: blob fails sha256/format verification"
                )
    else:
        report.findings.append(
            f"{root}: no store objects (nothing persisted yet)"
        )
    quarantined = 0
    quarantine = root / "quarantine"
    if quarantine.is_dir():
        quarantined = sum(1 for _ in quarantine.iterdir())
        if quarantined:
            report.findings.append(
                f"{quarantine}: {quarantined} quarantined blob(s) from "
                "earlier corrupt reads (safe to delete)"
            )
    report.counts["blobs_checked"] = checked
    report.counts["blobs_corrupt"] = corrupt
    report.counts["tmp_files"] = tmp_files
    report.counts["quarantined"] = quarantined


def fsck_state_dir(state_dir) -> FsckReport:
    """Check one service state directory offline; never mutates it."""
    root = Path(state_dir)
    report = FsckReport(state_dir=str(root))
    if not root.is_dir():
        report.errors.append(f"{root}: state directory does not exist")
        return report
    _check_wal(root, report)
    _check_store(root, report)
    return report


def run_fsck(state_dir, out=None) -> int:
    """The CLI entry: print a human report, return the exit code."""
    import sys

    out = out or sys.stdout
    report = fsck_state_dir(state_dir)
    print(f"fsck {report.state_dir}", file=out)
    for key, value in sorted(report.counts.items()):
        print(f"  {key}: {value}", file=out)
    for finding in report.findings:
        print(f"  note: {finding}", file=out)
    for error in report.errors:
        print(f"  CORRUPT: {error}", file=out)
    print(f"  result: {'ok' if report.ok else 'CORRUPT'}", file=out)
    return 0 if report.ok else 1
