"""The persistent content-addressed result store: addressing, atomic
publication, multi-process race semantics, counters, and eviction."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os

import pytest

import repro.faults
from repro.service.store import (
    ResultStore,
    code_version,
    inputs_digest,
    request_key,
)
from tests import faults


def key_of(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestAddressing:
    def test_request_key_is_order_independent(self):
        a = request_key({"x": 1, "y": [1, 2], "z": "s"})
        b = request_key({"z": "s", "y": [1, 2], "x": 1})
        assert a == b
        assert len(a) == 64 and set(a) <= set("0123456789abcdef")

    def test_request_key_changes_with_content(self):
        base = {"x": 1, "y": 2}
        assert request_key(base) != request_key({**base, "y": 3})

    def test_inputs_digest_tracks_data_not_seed(self):
        import numpy as np

        a = {"buf": np.arange(6, dtype=np.int32).reshape(2, 3)}
        b = {"buf": np.arange(6, dtype=np.int32).reshape(2, 3)}
        assert inputs_digest(a) == inputs_digest(b)
        b["buf"][0, 0] = 99
        assert inputs_digest(a) != inputs_digest(b)
        # dtype and shape are part of the content
        c = {"buf": np.arange(6, dtype=np.int64).reshape(2, 3)}
        d = {"buf": np.arange(6, dtype=np.int32).reshape(3, 2)}
        assert inputs_digest(a) != inputs_digest(c)
        assert inputs_digest(a) != inputs_digest(d)
        assert inputs_digest(None) == "no-inputs"

    def test_code_version_is_stable_and_overridable(self, monkeypatch):
        first = code_version()
        assert first == code_version()
        monkeypatch.setenv("EQUEUE_CODE_VERSION", "bumped")
        assert code_version() != first
        monkeypatch.delenv("EQUEUE_CODE_VERSION")
        assert code_version() == first

    def test_malformed_keys_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        for bad in ("", "short", "Z" * 64, "../../../../etc/passwd"):
            with pytest.raises(ValueError):
                store.get(bad)


class TestStoreBasics:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = key_of("k1")
        record = {"cycles": 42, "summary": {"scheduler_events": 7}}
        assert store.get(key) is None
        assert store.put(key, record) is True
        assert store.get(key) == record
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.puts == 1
        assert len(store) == 1
        assert store.keys() == [key]

    def test_second_put_loses_and_content_stays(self, tmp_path):
        store = ResultStore(tmp_path)
        key = key_of("k1")
        assert store.put(key, {"v": 1}) is True
        assert store.put(key, {"v": 1}) is False
        assert store.stats.lost_races == 1
        assert store.get(key) == {"v": 1}

    def test_blob_is_canonical_json_line_plus_digest_trailer(self, tmp_path):
        from repro.analysis.export import record_line

        store = ResultStore(tmp_path)
        key = key_of("k1")
        record = {"b": 2, "a": 1}
        store.put(key, record)
        raw = store._blob_path(key).read_text(encoding="utf-8")
        line = record_line(record)
        assert line == '{"a":1,"b":2}'  # keys sorted, compact
        digest = hashlib.sha256(line.encode()).hexdigest()
        assert raw == f"{line}\nsha256:{digest}\n"

    def test_persistence_across_instances(self, tmp_path):
        key = key_of("k1")
        ResultStore(tmp_path).put(key, {"v": 7})
        fresh = ResultStore(tmp_path)  # a different process, effectively
        assert fresh.get(key) == {"v": 7}

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(key_of("k1"), {"v": 1})
        store.put(key_of("k2"), {"v": 2})
        store.clear()
        assert len(store) == 0


class TestEviction:
    def test_lru_eviction_beyond_cap(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=2)
        k1, k2, k3 = key_of("k1"), key_of("k2"), key_of("k3")
        store.put(k1, {"v": 1})
        os.utime(store._blob_path(k1), (100, 100))
        store.put(k2, {"v": 2})
        os.utime(store._blob_path(k2), (200, 200))
        store.put(k3, {"v": 3})
        assert store.stats.evictions == 1
        assert store.get(k1) is None  # oldest evicted
        assert store.get(k2) == {"v": 2}
        assert store.get(k3) == {"v": 3}

    def test_hits_refresh_recency(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=2)
        k1, k2, k3 = key_of("k1"), key_of("k2"), key_of("k3")
        store.put(k1, {"v": 1})
        os.utime(store._blob_path(k1), (100, 100))
        store.put(k2, {"v": 2})
        os.utime(store._blob_path(k2), (200, 200))
        store.get(k1)  # refresh k1: now k2 is the LRU entry
        store.put(k3, {"v": 3})
        assert store.get(k2) is None
        assert store.get(k1) == {"v": 1}


class TestIntegrity:
    def test_corrupt_blob_quarantined_and_served_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = key_of("k1")
        store.put(key, {"v": 1})
        path = store._blob_path(key)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"v":1', '"v":7'), encoding="utf-8")
        assert store.get(key) is None  # digest mismatch: miss, not 7
        assert store.stats.quarantined == 1
        assert not path.exists()
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert [p.name for p in quarantined] == [path.name]
        # The key is re-publishable after quarantine.
        assert store.put(key, {"v": 1}) is True
        assert store.get(key) == {"v": 1}

    def test_truncated_and_garbage_blobs_are_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        good = ResultStore._frame_blob({"v": 1}).encode("utf-8")
        payloads = [
            b"",
            b'{"v":1}\n',
            b"not json\nsha256:x\n",
            good[:-1],  # the trailer's newline is part of the frame
            good + b"\n",
            good.replace(b"\n", b"\r\n"),
            ResultStore._frame_blob([1]).encode("utf-8"),  # digest right, no object
            b"\xff\xfe" + good,  # not UTF-8 (used to escape as UnicodeDecodeError)
        ]
        for index, payload in enumerate(payloads):
            key = key_of(f"bad-{index}")
            path = store._blob_path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(payload)
            assert store.read(key) is None
            assert not path.exists()
        assert store.stats.quarantined == store.stats.misses == len(payloads)

    def test_read_hands_out_the_verified_line(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        key = key_of("k1")
        record = {"b": [1.5, "é"], "a": {"z": None}}
        store.put(key, record)
        seen = []

        def hook(site, context, payload):
            seen.append((site, context, payload))
            return payload

        monkeypatch.setattr(repro.faults, "HOOK", hook)
        line = store.read(key)
        blob = store._blob_path(key).read_bytes()
        assert json.loads(line) == record == store.get(key)
        assert blob == line + b"\nsha256:" + hashlib.sha256(line).hexdigest().encode() + b"\n"
        # The chaos plane still sees (and may corrupt) the blob's text.
        assert seen[0] == ("store.get", key, blob.decode("utf-8"))

    def test_injected_read_error_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = key_of("k1")
        store.put(key, {"v": 1})
        plan = faults.FaultPlan([faults.Fault("store.get", "io-error")])
        with faults.injected(plan):
            assert store.get(key) is None
        assert store.stats.read_errors == 1
        assert store.get(key) == {"v": 1}  # blob itself is intact

    def test_injected_corruption_is_caught_by_digest(self, tmp_path):
        store = ResultStore(tmp_path)
        key = key_of("k1")
        store.put(key, {"v": 1})
        plan = faults.FaultPlan(
            [faults.Fault("store.get", "corrupt", count=-1)]
        )
        with faults.injected(plan):
            assert store.get(key) is None, "bit-flipped read must not parse"
        assert store.stats.quarantined == 1


class TestParsedOnce:
    """A line is parsed once per process; its digest is checked on every
    read.  Skipping the parse of a line whose digest was seen parsing is
    the same check, not a weaker one: the bytes are the bytes that
    parsed."""

    @pytest.fixture
    def loads(self, monkeypatch):
        calls = []
        real = json.loads
        monkeypatch.setattr(
            json, "loads", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        return calls

    @pytest.mark.parametrize("line", ["[1]", '{"a":'], ids=["array", "torn"])
    def test_a_digest_valid_line_that_is_no_object_misses_every_time(
        self, tmp_path, line
    ):
        store = ResultStore(tmp_path)
        key = key_of("k1")
        path = store._blob_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256(line.encode()).hexdigest()
        for reads in range(1, 4):
            path.write_text(f"{line}\nsha256:{digest}\n", encoding="utf-8")
            assert store.read(key) is None and not path.exists()
            assert store.stats.quarantined == reads

    def test_a_line_flipped_after_it_parsed_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        key = key_of("k1")
        store.put(key, {"v": 1})
        assert store.get(key) == {"v": 1}
        path = store._blob_path(key)
        path.write_text(
            path.read_text(encoding="utf-8").replace('"v":1', '"v":3'),
            encoding="utf-8",
        )
        assert store.read(key) is None
        assert store.stats.quarantined == 1

    def test_a_line_parses_once_until_the_digests_are_cleared(
        self, tmp_path, monkeypatch, loads
    ):
        from repro.service import store as store_module

        monkeypatch.setattr(store_module, "_PARSED_DIGESTS", set())
        store = ResultStore(tmp_path)
        key = key_of("k1")
        store.put(key, {"v": 1})
        line = store.read(key)
        assert len(loads) == 1
        assert [store.read(key) for _ in range(3)] == [line] * 3
        assert len(loads) == 1  # digest-checked, not parsed again
        assert store.get(key) == {"v": 1} and len(loads) == 2  # get parses
        store_module._PARSED_DIGESTS.clear()
        assert store.read(key) == line and len(loads) == 3
        assert store.stats.hits == 6

    def test_the_digest_set_stays_within_its_cap(self, tmp_path, monkeypatch):
        from repro.service import store as store_module

        monkeypatch.setattr(store_module, "_PARSED_DIGESTS", set())
        monkeypatch.setattr(store_module, "_PARSED_DIGESTS_CAP", 4)
        store = ResultStore(tmp_path)
        for index in range(10):
            store.put(key_of(f"k{index}"), {"v": index})
            assert store.get(key_of(f"k{index}")) == {"v": index}
            assert 1 <= len(store_module._PARSED_DIGESTS) <= 4


class TestTmpSweep:
    def test_stale_tmp_swept_fresh_kept(self, tmp_path):
        store = ResultStore(tmp_path)
        bucket = tmp_path / "objects" / "ab"
        bucket.mkdir(parents=True, exist_ok=True)
        stale = bucket / ".tmp-stale.json"
        stale.write_text("partial", encoding="utf-8")
        os.utime(stale, (100, 100))
        fresh = bucket / ".tmp-fresh.json"
        fresh.write_text("partial", encoding="utf-8")
        assert store.sweep_tmp() == 1
        assert not stale.exists()
        assert fresh.exists(), "a possibly-live publish must survive"
        assert store.stats.tmp_swept == 1

    def test_crash_mid_publish_then_restart_sweeps(self, tmp_path):
        """Simulate a publisher dying between mkstemp and os.link: the
        injected put fault fires before any write, so crash the hard way
        — write the temp file, never publish — then restart the store."""
        store = ResultStore(tmp_path)
        key = key_of("k1")
        bucket = store._blob_path(key).parent
        bucket.mkdir(parents=True, exist_ok=True)
        orphan = bucket / ".tmp-crashed-publisher.json"
        orphan.write_text('{"v":1}\nsha2', encoding="utf-8")  # torn write
        os.utime(orphan, (100, 100))
        reborn = ResultStore(tmp_path)  # the restart runs the sweep
        assert reborn.stats.tmp_swept == 1
        assert not orphan.exists()
        assert reborn.get(key) is None  # torn temp never became a blob
        assert reborn.put(key, {"v": 1}) is True

    def test_injected_put_fault_leaves_store_readable(self, tmp_path):
        store = ResultStore(tmp_path)
        k1, k2 = key_of("k1"), key_of("k2")
        store.put(k1, {"v": 1})
        plan = faults.FaultPlan([faults.Fault("store.put", "io-error")])
        with faults.injected(plan):
            with pytest.raises(OSError):
                store.put(k2, {"v": 2})
        assert store.get(k1) == {"v": 1}
        assert store.get(k2) is None
        assert store.put(k2, {"v": 2}) is True  # retry succeeds


# ---------------------------------------------------------------------------
# Multi-process race: one winner, bit-identical reads
# ---------------------------------------------------------------------------


def _churning_put(root, worker_id, barrier, failures):
    """Publish 40 distinct keys through an LRU cap of 8, all at once:
    every process is simultaneously putting and evicting each other's
    blobs.  Any exception is a failure (eviction must tolerate blobs
    vanishing underneath it)."""
    try:
        store = ResultStore(root, max_entries=8)
        barrier.wait(timeout=30)
        for index in range(40):
            key = key_of(f"churn-{worker_id}-{index}")
            store.put(key, {"worker": worker_id, "index": index})
            shared = key_of(f"shared-{index % 5}")
            store.put(shared, {"worker": -1, "index": index % 5})
            store.get(shared)
    except BaseException as error:  # noqa: BLE001 - reported to parent
        failures.put(f"worker {worker_id}: {type(error).__name__}: {error}")


def _racing_put(root, key, barrier, results):
    """Both processes publish the same deterministic record at once."""
    store = ResultStore(root)
    record = {"cycles": 42, "summary": {"scheduler_events": 7, "pi": 3.25}}
    barrier.wait(timeout=30)
    won = store.put(key, record)
    blob = store._blob_path(key).read_bytes()
    results.put((os.getpid(), won, blob))


class TestConcurrency:
    def test_two_process_race_single_winner_identical_reads(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        key = key_of("contested")
        barrier = ctx.Barrier(2)
        results = ctx.Queue()
        workers = [
            ctx.Process(
                target=_racing_put, args=(tmp_path, key, barrier, results)
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        outcomes = [results.get(timeout=60) for _ in workers]
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        wins = sorted(won for _, won, _ in outcomes)
        assert wins == [False, True], "exactly one process must win the put"
        blobs = {blob for _, _, blob in outcomes}
        assert len(blobs) == 1, "every reader sees bit-identical bytes"
        # And a fresh reader parses (and digest-verifies) the record back.
        line = blobs.pop().decode("utf-8").splitlines()[0]
        assert ResultStore(tmp_path).get(key) == json.loads(line)

    def test_eviction_races_concurrent_puts(self, tmp_path):
        """An LRU-capped store evicting while other processes publish:
        no crash, no corruption, every surviving blob digest-verifies."""
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(3)
        failures = ctx.Queue()
        workers = [
            ctx.Process(
                target=_churning_put,
                args=(tmp_path, worker_id, barrier, failures),
            )
            for worker_id in range(3)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        assert failures.empty(), failures.get()
        # Survivors are a valid subset: every blob reads back verified.
        survivor = ResultStore(tmp_path)
        keys = survivor.keys()
        assert keys, "churn must leave at least one blob"
        for key in keys:
            record = survivor.get(key)
            assert record is not None and "worker" in record
        assert survivor.stats.quarantined == 0
