"""Tests of the benchmark harness itself (not of ``repro``).

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Outside ``pytest.ini``'s testpaths, so the tier-1 suite is unchanged.
Everything runs in ``--quick`` mode (tiny op counts).
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(*flags: str):
    """``run.py`` with the given flags; returns (exit code, stdout)."""
    done = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--quick", *flags],
        capture_output=True, text=True, timeout=170, check=False,
    )
    return done.returncode, done.stdout


def block(workload: str, seed: int) -> dict:
    """One traced, fingerprint-collecting quick block."""
    code, out = run(
        "--block", "--workload", workload, "--seed", str(seed),
        "--seconds", "0", "--trace", "1", "--collect",
    )
    assert code == 0
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "results.json"
    code, stdout = run("--out", str(out))
    assert code == 0, stdout[-2000:]
    return json.loads(out.read_text())


def test_names_use_the_allowed_characters():
    names = WORKLOADS + [
        m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_every_metric_is_present_on_every_workload(quick_results):
    assert sorted(quick_results["workloads"]) == sorted(WORKLOADS)
    for name, report in quick_results["workloads"].items():
        assert report["correct"] and report["failed"] == 0, report["failures"]
        for metric in BENCHMARK["end_to_end"]:
            entry = report["end_to_end"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0, (name, metric["name"])
        assert set(report["per_layer"]) == {
            m["name"] for m in BENCHMARK["per_layer"]
        }
        layers = {k: v["value"] for k, v in report["per_layer"].items()}
        assert layers["failed_share"] == 0 and layers["ref_cycle_error"] == 0
        assert layers["obs.trace_overhead"] > 0
        # The self-time table accounts for one whole op.
        assert abs(layers["obs.first_op_closure"] - 1.0) < 0.05
        trace = json.loads((REPO_ROOT / report["trace"]).read_text())
        assert any(event.get("name") == "op" for event in trace)


def test_layers_are_separated(quick_results):
    layers = {
        name: {k: v["value"] for k, v in report["per_layer"].items()}
        for name, report in quick_results["workloads"].items()
    }
    steady = layers["engine_steady"]
    assert steady["sim.simulate_s"] >= 0.9 * steady["client.pass_wall_s"]
    assert steady["ir.parse_s"] == 0 and steady["client.run_s"] == 0
    cold = layers["cold_single_shot"]
    assert cold["ir.parse_s"] > max(cold["ir.verify_s"], cold["passes.run_s"])
    warm = layers["service_warm"]
    assert warm["scheduler.simulated"] == 0 and warm["sim.events"] == 0
    mixed = layers["service_mixed"]
    assert mixed["store.misses"] > 0 and mixed["scheduler.simulated"] > 0
    assert mixed["wal.append_ms"] > 0


@pytest.mark.parametrize(
    "workload, fault",
    [("service_warm", "bad-request"), ("cold_single_shot", "bad-fingerprint")],
)
def test_an_injected_failure_is_counted(workload, fault):
    code, out = run("--workload", workload, "--trace", "0", "--inject", fault)
    result = json.loads(out.strip().splitlines()[-1])
    assert code != 0
    assert result["failed"] >= 1 and not result["correct"]


def test_cycles_off_the_reference_fail_the_op():
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from block import Ledger
    from workloads import Op, Verdict

    fingerprint = {"cycles": 10, "events": 3}
    ledger = Ledger(expected={}, seed=0)
    ledger.record(Op("exact", 0.0, None), Verdict(fingerprint=fingerprint, reference_error=0.0))
    ledger.record(Op("unreferenced", 0.0, None), Verdict(fingerprint=fingerprint))
    assert ledger.failed == 0 and ledger.unreferenced == 1
    ledger.record(Op("off", 0.0, None), Verdict(fingerprint=fingerprint, reference_error=0.01))
    assert ledger.failed == 1 and ledger.reference_error == 0.01
    assert "reference" in ledger.failures[0]


def test_a_seed_changes_the_inputs_but_not_the_structure(quick_results):
    layers = lambda workload: {  # noqa: E731
        k: v["value"]
        for k, v in quick_results["workloads"][workload]["per_layer"].items()
    }
    pinned = json.loads((PERF_DIR / "expected.json").read_text())["cold_single_shot"]
    cold = block("cold_single_shot", seed=1)
    assert cold["failed"] == 0  # cycles and events as pinned for seed 0
    digests = {op: fp["digest"] for op, fp in cold["fingerprints"].items()}
    assert digests != {op: pinned[op]["digest"] for op in digests}  # other data
    events = cold["layers"]["metrics"]["sim.events"]
    assert events == layers("cold_single_shot")["sim.events"] > 0
    sweep = block("dse_sweep", seed=1)
    signatures = sweep["layers"]["metrics"]["dse.signatures"]
    assert signatures == layers("dse_sweep")["dse.signatures"] > 0


def test_a_seed_changes_the_schedule():
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import workloads

    sizes = workloads.load_sizes(quick=True)["service_warm"]
    pool = list(range(sizes["prepopulated"]))
    schedules = [
        workloads.uniform_schedules(
            workloads.pass_rng(seed, 0), pool, 2, sizes["requests_per_client"]
        )
        for seed in (0, 0, 1)
    ]
    assert schedules[0] == schedules[1] != schedules[2]


def synthetic(value: float, blocks) -> dict:
    metrics = [m["name"] for m in BENCHMARK["end_to_end"]]
    return {
        "workloads": {
            "engine_steady": {
                "failed": 0,
                "end_to_end": {m: {"value": value, "unit": "x"} for m in metrics},
                "samples": {m: list(blocks) for m in metrics},
                "per_layer": {
                    "sim.events": {"value": 100.0, "unit": "count"},
                    "sim.simulate_s": {"value": value, "unit": "s"},
                },
            }
        }
    }


def test_compare_verdicts():
    base = synthetic(100.0, [99.0, 101.0])
    verdicts = lambda other: {  # noqa: E731
        row["metric"]: row["verdict"]
        for row in compare.compare(base, other, BENCHMARK)["engine_steady"]["metrics"]
    }
    same = verdicts(synthetic(101.0, [100.0, 102.0]))
    assert set(same.values()) == {"unchanged"}
    # 40 % more: worse for lower-is-better metrics only.
    moved = verdicts(synthetic(140.0, [139.0, 141.0]))
    assert moved["op_p50_ms"] == "regressed" and moved["setup_s"] == "regressed"
    assert moved["ops_per_s"] == "unchanged"
    assert verdicts(synthetic(60.0, [59.5, 60.5]))["ops_per_s"] == "regressed"
    # Blocks further apart than any bound: no verdict either way.
    noisy = verdicts(synthetic(140.0, [100.0, 180.0]))
    assert set(noisy.values()) == {"unresolved"}
    other = copy.deepcopy(base)
    other["workloads"]["engine_steady"]["per_layer"]["sim.events"]["value"] = 101.0
    layers = other["workloads"]["engine_steady"]["per_layer"]
    layers["ref_cycle_error"] = {"value": 0.02, "unit": "ratio"}
    base["workloads"]["engine_steady"]["per_layer"]["ref_cycle_error"] = {
        "value": 0.0, "unit": "ratio",
    }
    report = compare.compare(base, other, BENCHMARK)["engine_steady"]
    assert report["counts"] == [
        "sim.events: 100 -> 101",
        "ref_cycle_error: 0 -> 0.02",
    ]
