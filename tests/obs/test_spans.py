"""Host-span tracing: recorder semantics, the Perfetto merge, and the
``equeue-sim --host-trace`` CLI surface."""

from __future__ import annotations

import json

import pytest

from repro.obs import spans as obs_spans
from repro.obs.spans import HOST_PID, SpanRecorder, merge_host_trace, span
from repro.sim.tracing import TraceRecorder
from repro.tools import equeue_sim


class TestSpanRecorder:
    def test_disabled_span_is_shared_noop(self):
        first = span("anything", key="value")
        second = span("else")
        assert first is second  # the no-op is allocated once, ever
        with first:
            pass

    def test_enabled_span_records_complete_event(self):
        recorder = obs_spans.enable_spans()
        with span("engine.verify", mode="plan"):
            pass
        events = recorder.to_events()
        assert len(events) == 1
        event = events[0]
        assert event["name"] == "engine.verify"
        assert event["ph"] == "X"
        assert event["pid"] == HOST_PID
        assert event["cat"] == "host"
        assert event["dur"] >= 0
        assert event["ts"] >= 0
        assert event["args"] == {"mode": "plan"}
        assert isinstance(event["tid"], str)

    def test_exception_annotates_and_propagates(self):
        recorder = obs_spans.enable_spans()
        with pytest.raises(RuntimeError):
            with span("engine.des_run"):
                raise RuntimeError("boom")
        (event,) = recorder.to_events()
        assert event["args"]["error"] == "RuntimeError"

    def test_non_jsonable_args_stringified(self):
        recorder = obs_spans.enable_spans()
        with span("scenario.build", config=complex(1, 2)):
            pass
        (event,) = recorder.to_events()
        assert event["args"]["config"] == str(complex(1, 2))

    def test_max_records_caps_and_counts_drops(self):
        recorder = SpanRecorder(max_records=2)
        for index in range(5):
            with recorder.open(f"span-{index}", {}):
                pass
        assert len(recorder) == 2
        assert recorder.dropped == 3

    def test_enable_replaces_recorder(self):
        first = obs_spans.enable_spans()
        with span("one"):
            pass
        second = obs_spans.enable_spans()
        assert second is not first
        assert len(second) == 0
        assert obs_spans.spans_enabled()


class TestCycleTraceCap:
    @staticmethod
    def _fill(trace, count):
        for cycle in range(count):
            trace.record("step", "launch", "Processor", "ARMr5", cycle, 1)

    def test_trace_recorder_max_records(self):
        trace = TraceRecorder(enabled=True, max_records=3)
        self._fill(trace, 5)
        assert len(trace) == 3
        assert trace.dropped == 2

    def test_unbounded_by_default(self):
        trace = TraceRecorder(enabled=True)
        self._fill(trace, 5)
        assert len(trace) == 5
        assert trace.dropped == 0


class TestMergeHostTrace:
    def _events(self):
        recorder = obs_spans.enable_spans()
        with span("engine.des_run"):
            pass
        trace = TraceRecorder(enabled=True)
        trace.record("step", "launch", "Processor", "ARMr5", 0, 4)
        return recorder.to_events(), trace.to_events()

    def test_merged_json_holds_both_domains(self, tmp_path):
        host_events, cycle_events = self._events()
        path = tmp_path / "trace.json"
        text = merge_host_trace(host_events, cycle_events, path=str(path))
        assert path.read_text(encoding="utf-8") == text
        events = json.loads(text)
        pids = {event["pid"] for event in events}
        assert HOST_PID in pids
        assert "Processor" in pids
        phases = {event["ph"] for event in events}
        # Complete host spans, begin/end cycle slices, metadata labels.
        assert {"X", "M"} <= phases
        metadata = [event for event in events if event["ph"] == "M"]
        assert {m["pid"] for m in metadata} == pids
        for meta in metadata:
            assert meta["name"] == "process_name"

    def test_merge_without_path_returns_text_only(self):
        host_events, cycle_events = self._events()
        text = merge_host_trace(host_events, cycle_events)
        assert json.loads(text)


class TestHostTraceCLI:
    def test_scenario_host_trace_written(self, tmp_path, capsys):
        path = tmp_path / "host.json"
        code = equeue_sim.main(
            ["--scenario", "fir", "--host-trace", str(path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "host trace written to" in out
        events = json.loads(path.read_text(encoding="utf-8"))
        pids = {event["pid"] for event in events}
        assert HOST_PID in pids
        assert pids - {HOST_PID}  # at least one component-group pid
        host_names = {
            event["name"]
            for event in events
            if event["pid"] == HOST_PID and event["ph"] == "X"
        }
        # The pipeline stages are all present.  The scenario build
        # verified the module and nothing changed it since, so the engine
        # does not walk it again.
        assert {"scenario.build", "engine.elaborate", "engine.des_run"} <= (
            host_names
        )
        assert "engine.verify" not in host_names

    def test_host_trace_rejected_for_sweeps(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            equeue_sim.main(
                [
                    "--scenario", "gemm", "--sweep",
                    "--host-trace", str(tmp_path / "host.json"),
                ]
            )
        assert "--host-trace" in capsys.readouterr().err

    def test_host_trace_single_input_only(self, tmp_path, capsys):
        first = tmp_path / "a.mlir"
        second = tmp_path / "b.mlir"
        first.write_text("module {\n}\n")
        second.write_text("module {\n}\n")
        code = equeue_sim.main(
            [
                str(first), str(second),
                "--host-trace", str(tmp_path / "host.json"),
            ]
        )
        assert code == 1
        assert "single input" in capsys.readouterr().err
