"""The sweep checkpoint journal: format, torn tails, resume semantics."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.sim.journal import (
    JOURNAL_KIND,
    JournalError,
    SweepJournal,
    load_journal,
)
from repro.sim.linecodec import encode_line, parse_line

HEADER = {
    "kind": JOURNAL_KIND,
    "request": {"grid": {"scenario": "gemm"}, "seed": 0},
    "total": 3,
    "code": "test",
}


def _point(index: int) -> dict:
    return {"cycles": 100 + index, "config": {"k": index}}


class TestLineFormat:
    def test_roundtrip(self):
        record = {"kind": "point", "index": 2, "point": _point(2)}
        line = encode_line(record)
        assert "\n" not in line  # caller appends the newline
        assert parse_line(line) == record
        assert parse_line(line + "\n") == record

    def test_trailer_detects_corruption(self):
        line = encode_line({"kind": "point", "index": 0, "point": {}})
        flipped = line.replace("point", "poInt", 1)
        assert parse_line(flipped) is None

    def test_torn_line_is_none(self):
        line = encode_line({"kind": "point", "index": 0, "point": {}})
        assert parse_line(line[: len(line) // 2]) is None
        assert parse_line("") is None

    def test_line_is_canonical_json_plus_trailer(self):
        line = encode_line({"b": 2, "a": 1})
        payload = line.rsplit(" #sha256:", 1)[0]
        assert json.loads(payload) == {"a": 1, "b": 2}


class TestJournalFile:
    def test_write_then_load(self, tmp_path):
        path = tmp_path / "sweep.journal"
        with SweepJournal(path) as journal:
            journal.open(HEADER)
            journal.append_point(0, _point(0))
            journal.append_point(2, _point(2))
        header, points, _, dropped = load_journal(path)
        assert header == HEADER
        assert dropped == 0
        assert set(points) == {0, 2}
        assert points[2] == _point(2)

    def test_resume_returns_completed_points(self, tmp_path):
        path = tmp_path / "sweep.journal"
        with SweepJournal(path) as journal:
            journal.open(HEADER)
            journal.append_point(1, _point(1))
        with SweepJournal(path) as journal:
            completed = journal.open(HEADER, resume=True)
            assert completed == {1: _point(1)}
            assert journal.points_resumed == 1
            journal.append_point(0, _point(0))
        _, points, _, _ = load_journal(path)
        assert set(points) == {0, 1}

    def test_resume_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "sweep.journal"
        with SweepJournal(path) as journal:
            journal.open(HEADER)
            journal.append_point(0, _point(0))
            journal.append_point(1, _point(1))
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # tear the last line mid-record
        with SweepJournal(path) as journal:
            completed = journal.open(HEADER, resume=True)
            assert completed == {0: _point(0)}
            journal.append_point(1, _point(1))
        # The torn bytes were truncated: the file is valid end to end.
        _, points, _, dropped = load_journal(path)
        assert dropped == 0
        assert set(points) == {0, 1}

    def test_corrupt_middle_line_keeps_valid_prefix(self, tmp_path):
        path = tmp_path / "sweep.journal"
        with SweepJournal(path) as journal:
            journal.open(HEADER)
            journal.append_point(0, _point(0))
            journal.append_point(1, _point(1))
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][:10] + b"X" + lines[1][11:]
        path.write_bytes(b"".join(lines))
        _, points, _, dropped = load_journal(path)
        assert points == {}  # point 1 is *after* the corruption: dropped
        assert dropped == 2

    def test_resume_rejects_mismatched_header(self, tmp_path):
        path = tmp_path / "sweep.journal"
        with SweepJournal(path) as journal:
            journal.open(HEADER)
        other = dict(HEADER, total=4)
        with pytest.raises(JournalError):
            SweepJournal(path).open(other, resume=True)

    def test_resume_without_file_starts_fresh(self, tmp_path):
        path = tmp_path / "sweep.journal"
        with SweepJournal(path) as journal:
            assert journal.open(HEADER, resume=True) == {}
            journal.append_point(0, _point(0))
        _, points, _, _ = load_journal(path)
        assert set(points) == {0}

    def test_open_without_resume_truncates(self, tmp_path):
        path = tmp_path / "sweep.journal"
        with SweepJournal(path) as journal:
            journal.open(HEADER)
            journal.append_point(0, _point(0))
        with SweepJournal(path) as journal:
            assert journal.open(HEADER) == {}
        _, points, _, _ = load_journal(path)
        assert points == {}

    def test_unknown_record_kinds_tolerated(self, tmp_path):
        path = tmp_path / "sweep.journal"
        with SweepJournal(path) as journal:
            journal.open(HEADER)
        with open(path, "a", encoding="utf-8") as handle:  # a future writer
            handle.write(
                encode_line({"kind": "interrupted", "completed": 1}) + "\n"
            )
        with SweepJournal(path) as journal:
            assert journal.open(HEADER, resume=True) == {}
            journal.append_point(0, _point(0))
        _, points, _, dropped = load_journal(path)
        assert set(points) == {0}
        assert dropped == 0

    def test_missing_header_is_error(self, tmp_path):
        path = tmp_path / "sweep.journal"
        path.write_text(
            encode_line({"kind": "point", "index": 0, "point": {}}) + "\n"
        )
        with pytest.raises(JournalError):
            load_journal(path)


#: A journal written by an earlier commit, and the ``load_journal`` tuple
#: that commit read from it.  Re-record (``PYTHONPATH=src python
#: tests/sim/test_journal.py``) only from a commit whose journal format
#: you trust: the point is that today's code resumes yesterday's bytes.
DATA = Path(__file__).resolve().parent / "data"
PARENT_JOURNAL = DATA / "parent.journal"
PARENT_JOURNAL_LOAD = DATA / "parent_journal_load.json"


def write_fixture_journal(path: Path) -> None:
    """A header, three points out of order, and a torn tail."""
    with SweepJournal(path) as journal:
        journal.open(HEADER)
        for index in (2, 0, 1):
            journal.append_point(index, _point(index))
    with open(path, "ab") as handle:
        handle.write(b'{"index":3,"kind":"point","po')


def _loaded(path: Path) -> list:
    header, points, valid_bytes, dropped = load_journal(path)
    return [header, sorted(points.items()), valid_bytes, dropped]


class TestParentWrittenJournal:
    def test_loads_and_resumes_as_the_parent_read_it(self, tmp_path):
        path = tmp_path / "sweep.journal"
        shutil.copyfile(PARENT_JOURNAL, path)
        before = path.read_bytes()
        want = json.loads(PARENT_JOURNAL_LOAD.read_text())
        assert json.loads(json.dumps(_loaded(path))) == want
        assert path.read_bytes() == before  # load_journal never mutates
        header, points, valid_bytes, _ = want
        with SweepJournal(path) as journal:
            resumed = journal.open(header, resume=True)
        assert sorted(resumed) == [index for index, _ in points]
        assert path.stat().st_size == valid_bytes  # the torn tail is cut


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    PARENT_JOURNAL.unlink(missing_ok=True)
    write_fixture_journal(PARENT_JOURNAL)
    PARENT_JOURNAL_LOAD.write_text(
        json.dumps(_loaded(PARENT_JOURNAL), indent=1) + "\n"
    )
