"""The admission WAL: append/replay round trips, torn-tail tolerance,
replay of the folded store-hit admissions earlier code wrote,
compaction bounds, and the shared line codec contract with the sweep
journal."""

from __future__ import annotations

import json
import os
import shutil
import stat
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.service import JobScheduler
from repro.service import wal as wal_module
from repro.service.wal import (
    WAL_KIND,
    AdmissionWAL,
    WALError,
    load_wal,
)
from repro.sim.linecodec import encode_line, parse_line, scan_lines
from tests.faults import Fault, FaultPlan, injected


def folded_hit(job_id: str, key: str, request: dict, request_id=None) -> dict:
    """A store hit as earlier code logged it: one admission record with
    its outcome folded in."""
    return {
        "kind": "admitted", "job": job_id, "key": key, "request": request,
        "sweep": False, "client": None, "deadline_s": None,
        "status": "done", "request_id": request_id,
    }


class TestLineCodec:
    def test_encode_parse_round_trip(self):
        record = {"kind": "admitted", "job": "job-000001", "n": 3}
        assert parse_line(encode_line(record)) == record

    def test_corrupt_line_parses_to_none(self):
        line = encode_line({"kind": "terminal"})
        assert parse_line(line[:-1] + ("0" if line[-1] != "0" else "1")) is None

    def test_scan_stops_at_first_torn_line(self):
        good = [
            (encode_line({"kind": "a", "i": i}) + "\n").encode("utf-8")
            for i in range(3)
        ]
        data = good[0] + good[1] + b'{"torn": tr'
        records, valid_bytes, dropped = scan_lines(data)
        assert [r["i"] for r in records] == [0, 1]
        assert valid_bytes == len(good[0]) + len(good[1])
        assert dropped == 1


class TestAdmissionWAL:
    def test_fresh_open_writes_header(self, tmp_path):
        wal = AdmissionWAL(tmp_path / "admission.wal")
        recovery = wal.open()
        assert recovery.header["kind"] == WAL_KIND
        assert recovery.pending == {} and recovery.terminal == {}
        wal.close()
        reread = load_wal(tmp_path / "admission.wal")
        assert reread.header["kind"] == WAL_KIND

    def test_append_and_replay_round_trip(self, tmp_path):
        path = tmp_path / "admission.wal"
        with AdmissionWAL(path) as wal:
            wal.append_admitted(
                "job-000001",
                key="k1",
                request={"scenario": "fir", "seed": 0},
                client="127.0.0.1",
                deadline_s=5.0,
            )
            wal.append_admitted(
                "job-000002", key="k2", request={"scenario": "mesh"}
            )
            wal.append_terminal("job-000001", "done", key="k1")
        recovery = AdmissionWAL(path).open()
        assert list(recovery.pending) == ["job-000002"]
        assert recovery.pending["job-000002"]["request"] == {
            "scenario": "mesh"
        }
        assert recovery.terminal["job-000001"]["status"] == "done"
        # The terminal record carries the admitted request along.
        assert recovery.terminal["job-000001"]["request"] == {
            "scenario": "fir",
            "seed": 0,
        }
        assert recovery.max_counter == 2

    def test_folded_store_hit_goes_straight_to_terminal(self, tmp_path):
        """Nothing writes a folded store hit any more; replay still
        reads one as a terminal outcome."""
        path = tmp_path / "admission.wal"
        with AdmissionWAL(path) as wal:
            wal._log.append(folded_hit("job-000001", key="k1", request={}))
        recovery = load_wal(path)
        assert recovery.pending == {}
        assert recovery.terminal["job-000001"]["status"] == "done"

    def test_torn_tail_truncated_on_open(self, tmp_path):
        path = tmp_path / "admission.wal"
        with AdmissionWAL(path) as wal:
            wal.append_admitted("job-000001", key="k1", request={})
        size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "admitted", "job": "job-0')  # torn
        recovery = AdmissionWAL(path).open()
        assert recovery.lines_dropped == 1
        assert list(recovery.pending) == ["job-000001"]
        assert path.stat().st_size == size  # tail gone

    def test_wrong_kind_refused(self, tmp_path):
        path = tmp_path / "admission.wal"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(encode_line({"kind": "sweep-journal/v1"}) + "\n")
        with pytest.raises(WALError, match="'admission-wal/v1' header"):
            AdmissionWAL(path).open()
        with pytest.raises(WALError):
            load_wal(path)

    def test_open_is_idempotent(self, tmp_path):
        wal = AdmissionWAL(tmp_path / "admission.wal")
        first = wal.open()
        wal.append_admitted("job-000001", key="k", request={})
        again = wal.open()
        assert again.header == first.header
        assert list(again.pending) == ["job-000001"]

    def test_compaction_bounds_the_log(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wal_module, "COMPACT_EVERY", 10)
        monkeypatch.setattr(wal_module, "KEEP_TERMINAL", 5)
        path = tmp_path / "admission.wal"
        wal = AdmissionWAL(path)
        wal.open()
        wal.append_admitted("job-999999", key="kp", request={"pend": 1})
        for index in range(30):
            job_id = f"job-{index + 1:06d}"
            wal.append_admitted(job_id, key=f"k{index}", request={})
            wal.append_terminal(job_id, "done", key=f"k{index}")
        assert wal.stats.compactions >= 2
        wal.close()
        recovery = load_wal(path)
        # Pending admissions survive every compaction; terminals are
        # bounded to the most recent KEEP_TERMINAL.
        assert list(recovery.pending) == ["job-999999"]
        assert len(recovery.terminal) == 5
        assert "job-000030" in recovery.terminal
        assert "job-000001" not in recovery.terminal
        # The compacted log replays cleanly through a normal open too.
        assert list(AdmissionWAL(path).open().pending) == ["job-999999"]

    def test_creation_and_compaction_fsync_the_directory(
        self, tmp_path, monkeypatch
    ):
        """A rename (or a creation) is durable only once its directory
        is: without that fsync a power loss can undo the compaction's
        ``os.replace`` and every admission fsynced into the new file."""
        monkeypatch.setattr(wal_module, "COMPACT_EVERY", 2)
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        wal = AdmissionWAL(tmp_path / "admission.wal")
        wal.open()
        assert synced == [True, False]  # the new name, then the header
        synced.clear()
        wal.append_admitted("job-000001", key="k", request={})
        wal.append_terminal("job-000001", "done", key="k")
        assert wal.stats.compactions == 0 and synced == [False, False]
        synced.clear()
        wal.append_admitted("job-000002", key="k", request={})
        wal.append_terminal("job-000002", "done", key="k")
        assert wal.stats.compactions == 1
        # The two appends, the rewritten file, then its directory.
        assert synced == [False, False, False, True]
        wal.close()

    def test_load_wal_never_mutates(self, tmp_path):
        path = tmp_path / "admission.wal"
        with AdmissionWAL(path) as wal:
            wal.append_admitted("job-000001", key="k", request={})
        with open(path, "ab") as handle:
            handle.write(b"torn tail bytes")
        before = path.read_bytes()
        recovery = load_wal(path)
        assert recovery.lines_dropped == 1
        assert path.read_bytes() == before

    def test_missing_file_loads_empty(self, tmp_path):
        recovery = load_wal(tmp_path / "never-written.wal")
        assert recovery.header is None
        assert recovery.pending == {} and recovery.terminal == {}

    def test_injected_append_fault_raises_oserror(self, tmp_path):
        wal = AdmissionWAL(tmp_path / "admission.wal")
        wal.open()
        plan = FaultPlan(
            [Fault(site="wal.append", action="io-error", count=1)]
        )
        with injected(plan):
            with pytest.raises(OSError):
                wal.append_admitted("job-000001", key="k", request={})
        # The budget spent, the next append lands.
        wal.append_admitted("job-000002", key="k2", request={})
        assert list(load_wal(wal.path).pending) == ["job-000002"]


#: A log written by an earlier commit, and what that commit's
#: ``load_wal`` and ``AdmissionWAL.open`` read from it.  Re-record
#: (``PYTHONPATH=src python tests/service/test_wal.py``) only from a
#: commit whose log format you trust: the point is that today's code
#: replays yesterday's bytes.
DATA = Path(__file__).resolve().parent / "data"
PARENT_WAL = DATA / "parent.wal"
PARENT_WAL_REPLAY = DATA / "parent_wal_replay.json"
#: The code version both sides stamp (``EQUEUE_CODE_VERSION``).
FIXTURE_CODE = "log-fixture"


def write_fixture_wal(path: Path) -> None:
    """A pending admission, a folded store hit, an admission closed by
    its terminal record, and a torn tail."""
    with AdmissionWAL(path) as wal:
        wal.append_admitted(
            "job-000001", key="k1", request={"scenario": "fir", "seed": 1},
            client="127.0.0.1", deadline_s=5.0, request_id="req-1",
        )
        wal._log.append(folded_hit(
            "job-000002", key="k2", request={"scenario": "fir"},
            request_id="req-2",
        ))
        wal.append_admitted(
            "job-000003", key="k3", request={"scenario": "gemm"},
            sweep=True, request_id="req-3",
        )
        wal.append_terminal("job-000003", "error", key="k3", error="boom")
    with open(path, "ab") as handle:
        handle.write(b'{"kind":"admitted","job":"job-000004"')


def _replays(path: Path) -> dict:
    """What ``load_wal`` and ``open`` (on a copy) read, in key order."""
    copy = path.with_name(path.name + ".open")
    shutil.copyfile(path, copy)
    wal = AdmissionWAL(copy)
    try:
        opened = asdict(wal.open())
    finally:
        wal.close()
    return {
        "load_wal": asdict(load_wal(path)),
        "open": opened,
        "size_after_open": copy.stat().st_size,
    }


class TestParentWrittenLog:
    def test_replays_as_the_parent_read_it(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EQUEUE_CODE_VERSION", FIXTURE_CODE)
        path = tmp_path / "admission.wal"
        shutil.copyfile(PARENT_WAL, path)
        before = path.read_bytes()
        got = _replays(path)
        assert path.read_bytes() == before  # load_wal never mutates
        want = json.loads(PARENT_WAL_REPLAY.read_text())
        # Compared as text: key order is admission order, and it counts.
        assert json.dumps(got) == json.dumps(want)


def test_a_parent_folded_hit_resolves_through_the_scheduler(tmp_path):
    """The folded store hit in the parent-written log still resolves
    ``done`` once a scheduler recovers over it, from the store under
    its key.  The fixture's keys (``k1``..``k3``) are labels, not
    content addresses, so the store here is a mapping from key to
    record: all :meth:`JobScheduler.job` asks of a store is ``get``."""
    path = tmp_path / "admission.wal"
    shutil.copyfile(PARENT_WAL, path)
    record = {"cycles": 7, "scenario": "fir"}
    scheduler = JobScheduler(store={"k2": record}, wal=AdmissionWAL(path))
    try:
        summary = scheduler.recover()
        assert (summary["terminal"], summary["requeued"]) == (2, 1)
        hit = scheduler.job("job-000002")
        assert hit is not None and hit.state == "done"
        assert hit.record == record and hit.source == "store"
        assert hit.request.to_dict() == {"scenario": "fir"}
        assert scheduler.job("job-000003").error == "boom"
    finally:
        scheduler.wal.close()


if __name__ == "__main__":
    os.environ["EQUEUE_CODE_VERSION"] = FIXTURE_CODE
    DATA.mkdir(exist_ok=True)
    PARENT_WAL.unlink(missing_ok=True)
    write_fixture_wal(PARENT_WAL)
    scratch = PARENT_WAL.with_name("replay.wal")
    shutil.copyfile(PARENT_WAL, scratch)
    try:
        replay = _replays(scratch)
    finally:
        scratch.unlink()
        scratch.with_name(scratch.name + ".open").unlink()
    PARENT_WAL_REPLAY.write_text(json.dumps(replay, indent=1) + "\n")
