"""The fault plane itself (``tests/faults.py``): the site table against
the hooks in ``src/``, the strategies' domains, firing semantics
(arming, budgets, matching, corruption) and installation."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults as hook
from tests.faults import CHAOS_PAIRS, SITES, SWEEP_KINDS, InjectedCrash, InjectedFault
from tests.faults import Fault, FaultPlan, chaos_plans, injected, sweep_plans

SRC = Path(__file__).resolve().parents[1] / "src"


def hook_sites():
    """``(where, site argument)`` for every ``faults.fire(...)`` call in
    ``src/``."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "fire"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "faults"
            ):
                where = f"{path.relative_to(SRC)}:{node.lineno}"
                yield where, node.args[0] if node.args else None


class TestSiteTable:
    """The static check that replaced ``fire``'s runtime typo check."""

    def test_every_hook_names_a_site_of_the_table(self):
        unknown = [
            where
            for where, site in hook_sites()
            if not isinstance(site, ast.Constant) or site.value not in SITES
        ]
        assert not unknown, f"hooks naming no site of SITES: {unknown}"

    def test_every_site_of_the_table_has_a_hook(self):
        hooked = {
            site.value
            for _, site in hook_sites()
            if isinstance(site, ast.Constant)
        }
        assert set(SITES) <= hooked, sorted(set(SITES) - hooked)

    def test_a_fault_names_a_site_and_one_of_its_actions(self):
        for site, actions in SITES.items():
            for action in actions:
                Fault(site, action)
        with pytest.raises(ValueError):
            Fault("store.nope", "io-error")
        with pytest.raises(ValueError):
            Fault("store.get", "poison")


class TestStrategies:
    @settings(max_examples=50, deadline=None)
    @given(plan=chaos_plans())
    def test_no_poison_without_a_victim(self, plan):
        assert 1 <= len(plan.faults) <= 3
        for fault in plan.faults:
            assert fault.action != "poison" and fault.site != "server.crash"
            assert 0 <= fault.after <= 2 and 1 <= fault.count <= 2

    @settings(max_examples=50, deadline=None)
    @given(plan=chaos_plans(poison_contexts=["mesh:seed=2"]))
    def test_poison_targets_a_supplied_context_and_round_trips(self, plan):
        for fault in plan.faults:
            if fault.action == "poison":
                assert fault.match == "mesh:seed=2" and fault.count == -1
        assert FaultPlan.from_dict(plan.to_dict()).to_dict() == plan.to_dict()

    @settings(max_examples=50, deadline=None)
    @given(st.data(), st.sampled_from(CHAOS_PAIRS), st.sampled_from(SWEEP_KINDS))
    def test_a_pinned_first_fault_leads_the_plan(self, data, pair, kind):
        plan = data.draw(chaos_plans(["gemm:seed=0"], first=pair))
        assert (plan.faults[0].site, plan.faults[0].action) == pair
        plan = data.draw(sweep_plans(points=5, first=kind))
        assert plan.faults[0].action == {"chunk-stall": "slow"}.get(kind, "kill")
        assert (plan.faults[0].match is None) == (kind != "poison-item")

    @settings(max_examples=50, deadline=None)
    @given(plan=sweep_plans(points=5))
    def test_sweep_plans_fire_in_pool_workers(self, plan):
        for fault in plan.faults:
            assert fault.site in ("batch.chunk", "batch.worker")
            if fault.match is not None:
                assert int(fault.match[len("item="):-1]) < 5


class TestFiring:
    def test_after_arms_and_count_budgets(self):
        plan = FaultPlan([Fault("store.get", "io-error", after=1, count=2)])
        assert plan.fire("store.get", payload="ok") == "ok"  # visit 0: unarmed
        for _ in range(2):
            with pytest.raises(OSError):
                plan.fire("store.get")
        assert plan.fire("store.get", payload="ok") == "ok"  # budget spent
        assert [entry[:2] for entry in plan.fired] == [
            ("store.get", "io-error")
        ] * 2

    def test_match_restricts_to_context(self):
        plan = FaultPlan(
            [Fault("job.evaluate", "poison", match="seed=2", count=-1)]
        )
        plan.fire("job.evaluate", context="gemm:seed=0")
        with pytest.raises(InjectedCrash):
            plan.fire("job.evaluate", context="gemm:seed=2")
        with pytest.raises(InjectedCrash):  # count=-1: fires forever
            plan.fire("job.evaluate", context="gemm:seed=2")

    def test_tickets_budget_every_copy_of_a_plan(self, tmp_path):
        # Two copies stand for two forked workers holding the plan.
        spec = [Fault("wal.append", "io-error", count=1)]
        first = FaultPlan(spec, state_dir=str(tmp_path))
        second = FaultPlan(spec, state_dir=str(tmp_path))
        with pytest.raises(OSError):
            first.fire("wal.append")
        assert second.fire("wal.append", payload="ok") == "ok"

    def test_corrupt_transforms_payload_deterministically(self):
        text = '{"cycles":42}'
        first = FaultPlan([Fault("store.get", "corrupt")], seed=5)
        second = FaultPlan([Fault("store.get", "corrupt")], seed=5)
        mutated = first.fire("store.get", payload=text)
        assert mutated != text
        assert second.fire("store.get", payload=text) == mutated

    def test_crash_is_base_exception_fault_is_exception(self):
        """A crash is not an ``Exception``: it passes every ordinary
        ``except Exception``, so the one job boundary that contains it
        (``evaluate_request``) has to catch ``BaseException``."""
        assert issubclass(InjectedCrash, BaseException)
        assert not issubclass(InjectedCrash, Exception)
        assert issubclass(InjectedFault, Exception)


class TestInstallation:
    def test_no_plan_means_no_effect(self):
        assert hook.HOOK is None
        assert hook.fire("store.get", "key", "ok") == "ok"

    def test_injected_installs_and_always_clears(self):
        plan = FaultPlan([Fault("batch.map", "pool-error")])
        with pytest.raises(InjectedFault):
            with injected(plan):
                assert hook.HOOK == plan.fire
                hook.fire("batch.map")
        assert hook.HOOK is None
