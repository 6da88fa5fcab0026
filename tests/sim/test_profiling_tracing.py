"""Unit tests for the profiling summary and trace recorder."""

import json

import pytest

from repro.sim.profiling import (
    ConnectionReport,
    MemoryReport,
    ProfilingSummary,
)
from repro.sim.tracing import TraceRecord, TraceRecorder


def make_connection(**overrides):
    defaults = dict(
        name="link", kind="Streaming", bandwidth=4,
        bytes_read=400, bytes_written=200,
        busy_read_cycles=100, busy_write_cycles=50,
        peak_bandwidth=4.0, total_cycles=200,
    )
    defaults.update(overrides)
    return ConnectionReport(**defaults)


class TestConnectionReport:
    def test_average_bandwidths(self):
        report = make_connection()
        assert report.avg_read_bandwidth == 2.0
        assert report.avg_write_bandwidth == 1.0

    def test_max_bandwidth_portion(self):
        report = make_connection()
        assert report.max_bandwidth_portion_read == 0.5
        assert report.max_bandwidth_portion_write == 0.25

    def test_unconstrained_connection_has_no_portion(self):
        report = make_connection(bandwidth=0)
        assert report.max_bandwidth_portion_read == 0.0

    def test_zero_cycles_is_safe(self):
        report = make_connection(total_cycles=0)
        assert report.avg_read_bandwidth == 0.0
        assert report.max_bandwidth_portion_write == 0.0

    def test_portion_clamped_to_one(self):
        report = make_connection(busy_read_cycles=999)
        assert report.max_bandwidth_portion_read == 1.0


class TestMemoryReport:
    def test_bandwidths(self):
        report = MemoryReport(
            name="sram", kind="SRAM", bytes_read=1000, bytes_written=500,
            reads=10, writes=5, total_cycles=100,
        )
        assert report.avg_read_bandwidth == 10.0
        assert report.avg_write_bandwidth == 5.0


def make_summary():
    return ProfilingSummary(
        execution_time_s=0.5,
        cycles=100,
        connections={"c": make_connection(total_cycles=100)},
        memories={
            "accel.sram": MemoryReport(
                "accel.sram", "SRAM", 400, 100, 4, 1, 100
            ),
            "accel.regs": MemoryReport(
                "accel.regs", "Register", 200, 80, 2, 1, 100
            ),
        },
        scheduler_events=42,
        launches_executed=7,
    )


class TestSummary:
    def _summary(self):
        return make_summary()

    def test_bandwidth_by_kind(self):
        summary = self._summary()
        assert summary.bandwidth_by_memory_kind("SRAM") == 4.0
        assert summary.bandwidth_by_memory_kind("SRAM", write=True) == 1.0
        assert summary.bandwidth_by_memory_kind("Register") == 2.0
        assert summary.bandwidth_by_memory_kind("DRAM") == 0.0

    def test_memory_named_suffix_match(self):
        summary = self._summary()
        assert summary.memory_named("sram").kind == "SRAM"
        assert summary.memory_named("accel.regs").kind == "Register"
        assert summary.memory_named("ghost") is None

    def test_format_contains_all_sections(self):
        text = self._summary().format()
        assert "simulator execution time" in text
        assert "100 cycles" in text
        assert "connections" in text
        assert "memories" in text
        assert "accel.sram" in text
        # Bandwidth columns present with numbers.
        assert "4.000" in text

    def test_format_without_connections(self):
        summary = ProfilingSummary(execution_time_s=0.0, cycles=10)
        text = summary.format()
        assert "connections" not in text


class TestSummarySerialization:
    """to_dict/from_dict: the one machine-readable stats format shared
    by ``equeue-sim --stats-json``, the service store, and ``equeue-serve``."""

    def _summary(self):
        return make_summary()

    def test_round_trip_equality(self):
        summary = self._summary()
        assert ProfilingSummary.from_dict(summary.to_dict()) == summary

    def test_round_trip_through_json(self):
        summary = self._summary()
        record = json.loads(json.dumps(summary.to_dict()))
        assert ProfilingSummary.from_dict(record) == summary
        # And serializing the reconstruction is byte-stable.
        assert json.dumps(record, sort_keys=True) == json.dumps(
            ProfilingSummary.from_dict(record).to_dict(), sort_keys=True
        )

    def test_dict_is_plain_and_complete(self):
        record = self._summary().to_dict()
        assert record["cycles"] == 100
        assert record["scheduler_events"] == 42
        assert record["connections"]["c"]["bandwidth"] == 4
        assert record["memories"]["accel.sram"]["bytes_read"] == 400
        # Every report value is a JSON-native scalar.
        for report in (
            *record["connections"].values(), *record["memories"].values()
        ):
            assert all(
                isinstance(value, (int, float, str)) for value in report.values()
            )

    def test_the_flat_copy_is_what_asdict_made(self):
        """Same keys, in the same order — fields as declared, reports by
        sorted name — and the same values as ``dataclasses.asdict``."""
        import dataclasses

        summary = self._summary()
        summary.codegen_deopts = {"int:bool": 2}
        record = summary.to_dict()
        reference = dataclasses.asdict(summary)
        assert record == reference
        assert list(record) == list(reference)
        assert list(record["memories"]) == ["accel.regs", "accel.sram"]
        assert list(record["memories"]["accel.sram"]) == list(
            reference["memories"]["accel.sram"]
        )

    def test_the_dict_never_aliases_the_summary(self):
        summary = self._summary()
        summary.plan_share_declined = {"K_GEN:equeue.await": 1}
        untouched = make_summary()
        untouched.plan_share_declined = {"K_GEN:equeue.await": 1}
        record = summary.to_dict()
        record["plan_share_declined"]["identity:equeue.alloc"] = 3
        record["codegen_deopts"]["int:bool"] = 1
        record["connections"]["c"]["bandwidth"] = 99
        record["memories"]["accel.sram"]["reads"] = 0
        del record["memories"]["accel.regs"]
        record["connections"]["d"] = {}
        assert summary == untouched
        assert summary.to_dict() == untouched.to_dict()

    def test_from_dict_tolerates_unknown_and_missing_fields(self):
        record = self._summary().to_dict()
        record["future_counter"] = 123  # newer writer
        record["connections"]["c"]["future_field"] = 1
        del record["plans_compiled"]  # older writer
        loaded = ProfilingSummary.from_dict(record)
        assert loaded.cycles == 100
        assert loaded.plans_compiled == 0

    def test_engine_summary_round_trips(self):
        """A real engine-produced summary (not hand-built) survives the
        round trip bit-identically."""
        from repro.scenarios import simulate_scenario

        result, _ = simulate_scenario("gemm")
        summary = result.summary
        clone = ProfilingSummary.from_dict(
            json.loads(json.dumps(summary.to_dict()))
        )
        assert clone == summary


class TestTraceRecorder:
    def test_disabled_recorder_drops_records(self):
        recorder = TraceRecorder(enabled=False)
        recorder.record("x", "op", "P", "t", 0, 5)
        assert len(recorder) == 0

    def test_record_and_slices(self):
        recorder = TraceRecorder()
        recorder.record("a", "op", "Processor", "pe0", 0, 2)
        recorder.record("b", "op", "Processor", "pe1", 1, 3)
        recorder.record("c", "op", "Processor", "pe0", 5, 1)
        assert len(recorder) == 3
        assert [r.name for r in recorder.slices_for("pe0")] == ["a", "c"]

    def test_events_sorted_and_balanced(self):
        recorder = TraceRecorder()
        recorder.record("late", "op", "P", "t", 10, 2)
        recorder.record("early", "op", "P", "t", 0, 2)
        events = recorder.to_events()
        assert events[0]["name"] == "early"
        assert [e["ph"] for e in events] == ["B", "E", "B", "E"]
        assert events[1]["ts"] == 2
        assert events[2]["ts"] == 10

    def test_to_json_writes_file(self, tmp_path):
        recorder = TraceRecorder()
        recorder.record("op", "operation", "Processor", "pe", 3, 4)
        path = tmp_path / "trace.json"
        text = recorder.to_json(str(path))
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(text)
        begin = loaded[0]
        assert begin == {
            "name": "op", "cat": "operation", "ph": "B", "ts": 3,
            "pid": "Processor", "tid": "pe",
        }

    def test_record_dataclass_events(self):
        record = TraceRecord("n", "c", "p", "t", 1, 2)
        begin, end = record.to_events()
        assert begin["ph"] == "B" and end["ph"] == "E"
        assert end["ts"] - begin["ts"] == 2


pytest  # noqa: B018
