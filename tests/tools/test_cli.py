"""Tests for the equeue-opt / equeue-sim command-line drivers."""

import json

import pytest

from repro import ir
from repro.dialects import linalg, memref
from repro.dialects.equeue import EQueueBuilder
from repro.passes import PassManager
from repro.sim import resolve_execution_mode
from repro.tools import equeue_opt, equeue_sim


@pytest.fixture
def program_file(tmp_path):
    module = ir.create_module()
    builder = ir.Builder(ir.InsertionPoint.at_end(module.body))
    eq = EQueueBuilder(builder)
    kernel = eq.create_proc("MAC", name="kernel")
    mem = eq.create_mem("Register", 16, ir.i32, name="regs")
    buf = eq.alloc(mem, [4], ir.i32, name="buf")
    start = eq.control_start()

    def body(b, buf_arg):
        inner = EQueueBuilder(b)
        data = inner.read(buf_arg)
        out = inner.op("mac", [data, data, data], [data.type])[0]
        inner.write(out, buf_arg)

    done, = eq.launch(start, kernel, args=[buf], body=body, label="step")
    eq.await_(done)
    path = tmp_path / "program.mlir"
    path.write_text(ir.print_op(module))
    return path


@pytest.fixture
def conv_file(tmp_path):
    module = ir.create_module()
    builder = ir.Builder(ir.InsertionPoint.at_end(module.body))
    eq = EQueueBuilder(builder)
    eq.create_proc("ARMr5", name="kernel")
    eq.create_mem("SRAM", 4096, ir.i32, name="sram")
    ifmap = memref.alloc(builder, [1, 4, 4], ir.i32)
    weight = memref.alloc(builder, [1, 1, 2, 2], ir.i32)
    ofmap = memref.alloc(builder, [1, 3, 3], ir.i32)
    linalg.conv2d(builder, ifmap, weight, ofmap)
    path = tmp_path / "conv.mlir"
    path.write_text(ir.print_op(module))
    return path


class TestEqueueOpt:
    def test_roundtrip_noop(self, program_file, capsys):
        assert equeue_opt.main([str(program_file)]) == 0
        out = capsys.readouterr().out
        assert "equeue.launch" in out

    def test_pipeline_applies(self, conv_file, capsys):
        code = equeue_opt.main(
            [
                str(conv_file),
                "--pipeline",
                "convert-linalg-to-affine-loops,equeue-read-write,"
                "allocate-buffer{memory=sram},launch{proc=kernel}",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "equeue.launch" in out
        assert "linalg.conv2d" not in out

    def test_list_passes(self, capsys):
        assert equeue_opt.main(["--list-passes"]) == 0
        out = capsys.readouterr().out
        assert "equeue-read-write" in out
        assert "split-launch" in out

    def test_verify_only_quiet(self, program_file, capsys):
        assert equeue_opt.main([str(program_file), "--verify-only"]) == 0
        assert capsys.readouterr().out == ""

    def test_output_file(self, program_file, tmp_path, capsys):
        out_path = tmp_path / "out.mlir"
        assert equeue_opt.main([str(program_file), "-o", str(out_path)]) == 0
        assert "equeue.launch" in out_path.read_text()

    def test_bad_input_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mlir"
        bad.write_text("not mlir at all %%%")
        assert equeue_opt.main([str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_pipeline_reports_error(self, program_file, capsys):
        assert (
            equeue_opt.main([str(program_file), "--pipeline", "no-such-pass"])
            == 1
        )
        assert "unknown pass" in capsys.readouterr().err


class TestEqueueSim:
    def test_summary_printed(self, program_file, capsys):
        assert equeue_sim.main([str(program_file)]) == 0
        out = capsys.readouterr().out
        assert "simulated runtime" in out
        assert "1 cycles" in out

    def test_scheduler_flag_matches_default(self, program_file, capsys):
        """--scheduler heap is the escape hatch: identical summary output
        (timing lines aside) to the default event-wheel scheduler."""

        def summary_lines(argv):
            assert equeue_sim.main(argv) == 0
            out = capsys.readouterr().out
            return [
                line
                for line in out.splitlines()
                if not line.startswith(
                    ("simulator execution time", "scheduler tiers")
                )
            ]

        wheel = summary_lines([str(program_file)])
        heap = summary_lines([str(program_file), "--scheduler", "heap"])
        assert wheel == heap

    def test_bad_scheduler_choice_rejected(self, program_file, capsys):
        with pytest.raises(SystemExit):
            equeue_sim.main([str(program_file), "--scheduler", "quantum"])
        assert "invalid choice" in capsys.readouterr().err

    def test_trace_written(self, program_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert equeue_sim.main(
            [str(program_file), "--trace", str(trace_path)]
        ) == 0
        events = json.loads(trace_path.read_text())
        assert any(event["name"] == "step" for event in events)

    def test_pipeline_then_simulate(self, conv_file, capsys):
        code = equeue_sim.main(
            [
                str(conv_file),
                "--pipeline",
                "convert-linalg-to-affine-loops,equeue-read-write,"
                "allocate-buffer{memory=sram},launch{proc=kernel}",
            ]
        )
        assert code == 0
        assert "simulated runtime" in capsys.readouterr().out

    @staticmethod
    def _verify_spans(argv, tmp_path):
        path = tmp_path / "host.json"
        assert equeue_sim.main([*argv, "--host-trace", str(path)]) == 0
        names = [event["name"] for event in json.loads(path.read_text())]
        return names.count("sim.verify"), names.count("engine.verify")

    def test_unmodified_module_verifies_once(
        self, program_file, conv_file, tmp_path, capsys, monkeypatch
    ):
        """The engine verifies only a module changed since it last
        verified.  The CLI verifies what it parsed, and the pass manager
        verifies after every pass, so the engine walks neither; a
        pipeline run without ``verify_each`` leaves its result stale, and
        the engine verifies that one."""
        assert self._verify_spans([str(program_file)], tmp_path) == (1, 0)
        lowered = [
            str(conv_file),
            "--pipeline",
            "convert-linalg-to-affine-loops,equeue-read-write,"
            "allocate-buffer{memory=sram},launch{proc=kernel}",
        ]
        assert self._verify_spans(lowered, tmp_path) == (1, 0)
        parse = PassManager.parse
        monkeypatch.setattr(
            PassManager,
            "parse",
            staticmethod(lambda text: parse(text, verify_each=False)),
        )
        assert self._verify_spans(lowered, tmp_path) == (1, 1)

    def test_error_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.mlir"
        bad.write_text("((((")
        assert equeue_sim.main([str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_inputs_npz_and_dump_buffer(self, program_file, tmp_path, capsys):
        import numpy as np

        npz = tmp_path / "inputs.npz"
        np.savez(npz, buf=np.array([1, 2, 3, 4], np.int32))
        code = equeue_sim.main(
            [str(program_file), "--inputs", str(npz), "--dump-buffer", "buf"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # buf held x; the program computed x*x + x into it.
        assert "buf = [2, 6, 12, 20]" in out

    def test_dump_unknown_buffer_errors(self, program_file, capsys):
        assert (
            equeue_sim.main([str(program_file), "--dump-buffer", "nope"]) == 1
        )
        assert "no buffer named" in capsys.readouterr().err

    def test_multi_input_batch_preserves_order(self, program_file, capsys):
        """Multiple inputs simulate as a batch; summaries print in input
        order with per-file headers, identically for --jobs 2."""
        argv = [str(program_file), str(program_file), "--jobs", "2"]
        assert equeue_sim.main(argv) == 0
        out = capsys.readouterr().out
        assert out.count(f"== {program_file} ==") == 2
        assert out.count("simulated runtime") == 2
        serial = equeue_sim.main([str(program_file), str(program_file)])
        assert serial == 0

        def semantic(text):  # everything but the wall-clock line
            return [
                line for line in text.splitlines()
                if not line.startswith("simulator execution time")
            ]

        assert semantic(capsys.readouterr().out) == semantic(out)

    def test_multi_input_trace_rejected(self, program_file, tmp_path, capsys):
        code = equeue_sim.main(
            [str(program_file), str(program_file),
             "--trace", str(tmp_path / "t.json")]
        )
        assert code == 1
        assert "--trace supports a single input" in capsys.readouterr().err

    def test_stats_json_written(self, program_file, tmp_path, capsys):
        """--stats-json writes the canonical result record: the same
        shape the service store blobs and equeue-serve responses use."""
        stats_path = tmp_path / "stats.json"
        code = equeue_sim.main(
            [str(program_file), "--stats-json", str(stats_path)]
        )
        assert code == 0
        assert f"stats written to {stats_path}" in capsys.readouterr().out
        record = json.loads(stats_path.read_text())
        assert sorted(record) == ["checked", "cycles", "summary", "truncated"]
        assert record["cycles"] == 1
        assert record["truncated"] is False
        assert record["checked"] is None  # no oracle on raw .mlir inputs
        from repro.sim.profiling import ProfilingSummary

        summary = ProfilingSummary.from_dict(record["summary"])
        assert summary.cycles == 1
        assert summary.to_dict() == record["summary"]

    def test_multi_input_stats_json_rejected(
        self, program_file, tmp_path, capsys
    ):
        code = equeue_sim.main(
            [str(program_file), str(program_file),
             "--stats-json", str(tmp_path / "s.json")]
        )
        assert code == 1
        assert (
            "--stats-json supports a single input" in capsys.readouterr().err
        )

    def test_stats_json_write_failure_reports_cleanly(
        self, program_file, capsys
    ):
        code = equeue_sim.main(
            [str(program_file), "--stats-json", "/nonexistent-dir/s.json"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "equeue-sim: error:" in captured.err
        assert "Traceback" not in captured.err

    def test_multi_input_error_reported_per_file(self, program_file,
                                                 tmp_path, capsys):
        bad = tmp_path / "bad.mlir"
        bad.write_text("((((")
        assert equeue_sim.main([str(program_file), str(bad)]) == 1
        captured = capsys.readouterr()
        assert "simulated runtime" in captured.out  # good file still ran
        assert "error" in captured.err

    def test_trace_write_failure_reports_cleanly(self, program_file, capsys):
        """A bad --trace path exits 1 with a message, not a traceback
        (regression: the trace write used to escape the error boundary)."""
        code = equeue_sim.main(
            [str(program_file), "--trace", "/nonexistent-dir/t.json"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "equeue-sim: error:" in captured.err
        assert "Traceback" not in captured.err

    def test_negative_max_cycles_rejected_via_argparse(
        self, program_file, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            equeue_sim.main([str(program_file), "--max-cycles", "-3"])
        assert excinfo.value.code == 2
        assert "--max-cycles" in capsys.readouterr().err

    def test_shipped_toy_accelerator_program(self, capsys, tmp_path):
        """The .mlir file shipped under examples/programs simulates through
        the CLI, including its leading // comments."""
        from pathlib import Path

        import numpy as np

        shipped = (
            Path(__file__).resolve().parents[2]
            / "examples" / "programs" / "toy_accelerator.mlir"
        )
        npz = tmp_path / "in.npz"
        np.savez(npz, sram_buf=np.array([1, 2, 3, 4], np.int32))
        code = equeue_sim.main(
            [str(shipped), "--inputs", str(npz), "--dump-buffer", "buf0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "5 cycles" in out          # 4-cycle DMA copy + 1-cycle MAC
        assert "buf0 = [2, 6, 12, 20]" in out


class TestEqueueSimScenarios:
    """The --scenario / --list-scenarios registry surface."""

    def test_list_scenarios(self, capsys):
        assert equeue_sim.main(["--list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "available scenarios:" in out
        for name in ("systolic", "fir", "pipeline", "gemm", "mesh"):
            assert name in out
        assert "defaults:" in out

    def test_scenario_runs_and_checks(self, capsys):
        code = equeue_sim.main(
            ["--scenario", "gemm:k=8,tile_k=4", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario gemm" in out
        assert "simulated runtime" in out
        assert "reference check: OK" in out

    def test_scenario_stats_json_includes_checked_oracle(
        self, tmp_path, capsys
    ):
        """--stats-json on a scenario run records the oracle's checked
        stats alongside the summary (the full service record shape)."""
        stats_path = tmp_path / "stats.json"
        code = equeue_sim.main(
            ["--scenario", "gemm:k=8,tile_k=4", "--seed", "3",
             "--stats-json", str(stats_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reference check: OK" in out
        record = json.loads(stats_path.read_text())
        assert record["checked"]["output"] == "A@B"
        assert record["checked"]["cycles"] == record["cycles"]
        from repro.sim.profiling import ProfilingSummary

        assert (
            ProfilingSummary.from_dict(record["summary"]).cycles
            == record["cycles"]
        )

    def test_scenario_respects_engine_flags(self, capsys):
        """--scheduler heap + --mode interpret/codegen produce the same
        semantic summary as the default backends (the CLI-level
        differential)."""

        def semantic(argv):
            assert equeue_sim.main(argv) == 0
            return [
                line
                for line in capsys.readouterr().out.splitlines()
                if not line.startswith(
                    ("simulator execution time", "scheduler tiers",
                     "block plans", "codegen blocks")
                )
            ]

        base = ["--scenario", "mesh:rows=2,cols=2,rounds=2"]
        assert semantic(base) == semantic(
            base + ["--scheduler", "heap", "--mode", "interpret"]
        )
        assert semantic(base) == semantic(base + ["--mode", "codegen"])

    def test_unknown_scenario_exits_cleanly_listing_names(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            equeue_sim.main(["--scenario", "warp-drive"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'warp-drive'" in err
        for name in ("systolic", "fir", "pipeline", "gemm", "mesh"):
            assert name in err
        assert "Traceback" not in err

    def test_bad_override_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            equeue_sim.main(["--scenario", "gemm:m=wide"])
        assert excinfo.value.code == 2
        assert "not an integer" in capsys.readouterr().err

    def test_invalid_config_combination_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            equeue_sim.main(["--scenario", "gemm:k=10,tile_k=4"])
        assert excinfo.value.code == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_scenario_with_input_files_rejected(self, program_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            equeue_sim.main([str(program_file), "--scenario", "mesh"])
        assert excinfo.value.code == 2
        assert "--scenario replaces input files" in capsys.readouterr().err

    def test_scenario_trace_and_dump_buffer(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "gemm_trace.json"
        code = equeue_sim.main(
            [
                "--scenario", "gemm:k=8",
                "--trace", str(trace_path),
                "--dump-buffer", "c_out",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "c_out = " in out
        events = json.loads(trace_path.read_text())
        assert any("gemm" in event["name"] for event in events)

    def test_scenario_truncation_skips_check(self, capsys):
        code = equeue_sim.main(
            ["--scenario", "mesh:rows=2,cols=2", "--max-cycles", "3"]
        )
        assert code == 0
        assert "reference check: skipped" in capsys.readouterr().out

    def test_scenario_rejects_file_only_flags(self, capsys):
        for extra in (
            ["--pipeline", "equeue-read-write"],
            ["--inputs", "data.npz"],
            ["--jobs", "2"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                equeue_sim.main(["--scenario", "mesh"] + extra)
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert extra[0] in err


class TestExecutionModeFlag:
    """--mode: three bit-identical execution paths behind one flag."""

    def _semantic(self, capsys, argv):
        assert equeue_sim.main(argv) == 0
        return [
            line
            for line in capsys.readouterr().out.splitlines()
            if not line.startswith(
                ("simulator execution time", "scheduler tiers",
                 "block plans", "codegen blocks")
            )
        ]

    def test_all_modes_semantically_identical(self, program_file, capsys):
        base = self._semantic(capsys, [str(program_file)])
        for mode in ("interpret", "plan", "codegen"):
            assert base == self._semantic(
                capsys, [str(program_file), "--mode", mode]
            ), mode

    def test_bad_mode_choice_rejected(self, program_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            equeue_sim.main([str(program_file), "--mode", "turbo"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["interpret", "plan", "codegen"])
    def test_stats_json_reports_resolved_mode(
        self, tmp_path, capsys, mode, tier_up_at
    ):
        tier_up_at(0)  # fir is too small to generate code on its own
        stats_path = tmp_path / "stats.json"
        code = equeue_sim.main(
            ["--scenario", "fir", "--mode", mode,
             "--stats-json", str(stats_path)]
        )
        assert code == 0
        record = json.loads(stats_path.read_text())
        assert record["summary"]["execution_mode"] == mode
        assert (record["summary"]["blocks_codegenned"] > 0) == (
            mode == "codegen"
        )

    def test_default_mode_follows_the_resolver(self):
        """``--mode``'s default and the default left out of a sweep's
        identity are ``resolve_execution_mode(None)``, not a spelling of
        their own: a journal written with the flag omitted resumes with
        the default spelled out, and every other mode is recorded."""
        default = resolve_execution_mode(None).value
        parser = equeue_sim.build_arg_parser()
        bare = parser.parse_args(["--scenario", "fir", "--sweep"])
        assert bare.mode == default
        assert equeue_sim._sweep_option_overrides(bare) is None
        for mode in ("interpret", "plan", "codegen"):
            args = parser.parse_args(
                ["--scenario", "fir", "--sweep", "--mode", mode]
            )
            assert equeue_sim._sweep_option_overrides(args) == (
                None if mode == default else {"mode": mode}
            )

    def test_sweep_accepts_mode(self, capsys):
        code = equeue_sim.main(
            ["--scenario", "fir", "--sweep", "--sample", "2",
             "--mode", "codegen", "--check"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reference checks: OK" in out
