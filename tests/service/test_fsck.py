"""``equeue-serve --fsck``: the offline state-dir checker — clean
directories pass, corruption exits non-zero, crash residue is reported
without failing, and nothing is ever mutated."""

from __future__ import annotations

import io

from repro.service import JobRequest, JobScheduler, ResultStore
from repro.service.fsck import (
    STORE_NAME,
    WAL_NAME,
    fsck_state_dir,
    run_fsck,
)
from repro.service.wal import AdmissionWAL
from repro.sim.linecodec import encode_line


def _populated_state_dir(tmp_path):
    """A state dir the way a durable server leaves it: one completed
    job in the store, its admission + terminal in the WAL."""
    state = tmp_path / "state"
    wal = AdmissionWAL(state / WAL_NAME)
    scheduler = JobScheduler(store=ResultStore(state / STORE_NAME), wal=wal)
    scheduler.recover()
    scheduler.submit(JobRequest.make("fir"))
    scheduler.run_pending()
    wal.close()
    return state


class TestFsck:
    def test_clean_state_dir_passes(self, tmp_path):
        state = _populated_state_dir(tmp_path)
        report = fsck_state_dir(state)
        assert report.ok, report.errors
        assert report.counts["blobs_checked"] == 1
        assert report.counts["blobs_corrupt"] == 0
        assert report.counts["wal_pending"] == 0
        assert report.counts["wal_terminal"] == 1
        out = io.StringIO()
        assert run_fsck(state, out=out) == 0
        assert "result: ok" in out.getvalue()

    def test_corrupt_blob_is_corruption(self, tmp_path):
        state = _populated_state_dir(tmp_path)
        blob = next((state / STORE_NAME / "objects").glob("??/*.json"))
        blob.write_bytes(blob.read_bytes()[:-10] + b"corruption")
        report = fsck_state_dir(state)
        assert not report.ok
        assert report.counts["blobs_corrupt"] == 1
        assert any("sha256" in error for error in report.errors)
        assert run_fsck(state, out=io.StringIO()) == 1

    def test_torn_wal_tail_is_a_finding_not_corruption(self, tmp_path):
        state = _populated_state_dir(tmp_path)
        wal_path = state / WAL_NAME
        before = wal_path.read_bytes()
        with open(wal_path, "ab") as handle:
            handle.write(b'{"kind": "admitted", "job"')  # torn mid-append
        report = fsck_state_dir(state)
        assert report.ok
        assert report.counts["wal_lines_dropped"] == 1
        assert any("torn" in finding for finding in report.findings)
        # fsck is offline: the tail is still there for open() to handle.
        assert wal_path.read_bytes() != before

    def test_pending_admissions_reported(self, tmp_path):
        state = tmp_path / "state"
        with AdmissionWAL(state / WAL_NAME) as wal:
            wal.append_admitted(
                "job-000001", key="k", request={"scenario": "fir"}
            )
        (state / STORE_NAME / "objects").mkdir(parents=True)
        report = fsck_state_dir(state)
        assert report.ok
        assert report.counts["wal_pending"] == 1
        assert any("replay" in finding for finding in report.findings)

    def test_bad_wal_header_is_corruption(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        with open(state / WAL_NAME, "w", encoding="utf-8") as handle:
            handle.write(encode_line({"kind": "sweep-journal/v1"}) + "\n")
        report = fsck_state_dir(state)
        assert not report.ok

    def test_garbage_wal_is_corruption(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        (state / WAL_NAME).write_bytes(b"not a wal at all\n")
        report = fsck_state_dir(state)
        assert not report.ok

    def test_stale_tmp_and_quarantine_are_findings(self, tmp_path):
        state = _populated_state_dir(tmp_path)
        objects = state / STORE_NAME / "objects"
        shard = next(objects.glob("??"))
        (shard / ".tmp-dead").write_text("crashed publisher dropping")
        quarantine = state / STORE_NAME / "quarantine"
        quarantine.mkdir()
        (quarantine / "bad.json").write_text("previously corrupt blob")
        report = fsck_state_dir(state)
        assert report.ok
        assert report.counts["tmp_files"] == 1
        assert report.counts["quarantined"] == 1

    def test_missing_state_dir_is_an_error(self, tmp_path):
        report = fsck_state_dir(tmp_path / "never-created")
        assert not report.ok
        assert run_fsck(tmp_path / "never-created", out=io.StringIO()) == 1

    def test_findings_do_not_depend_on_lines_parsed_before(
        self, tmp_path, monkeypatch
    ):
        """A store read parses a line once per process (its digest is
        remembered); fsck runs the same check, so its report is the same
        whether or not the process has seen the lines before."""
        import hashlib

        from repro.service import store as store_module

        state = _populated_state_dir(tmp_path)
        good = next((state / STORE_NAME / "objects").glob("??/*.json"))
        twin = good.parent / ("0" * 64 + ".json")
        twin.write_bytes(good.read_bytes())  # the same line, another key
        line = "[1]"  # digest-valid, not an object
        bad = good.parent / ("1" * 64 + ".json")
        bad.write_text(f"{line}\nsha256:{hashlib.sha256(line.encode()).hexdigest()}\n")
        monkeypatch.setattr(store_module, "_PARSED_DIGESTS", set())
        cold = fsck_state_dir(state).to_dict()
        assert store_module._PARSED_DIGESTS  # the good line parsed once
        assert fsck_state_dir(state).to_dict() == cold
        assert cold["counts"]["blobs_checked"] == 3
        assert cold["counts"]["blobs_corrupt"] == 1
        assert [error.split(":")[0] for error in cold["errors"]] == [str(bad)]
