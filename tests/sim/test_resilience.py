"""Crash-tolerant pool recovery: kills, poison, deadlines, fallback.

The contract under test: whatever the pool machinery survives —
SIGKILLed children, poisoned items, wedged workers — :meth:`SweepRunner.
map`'s results are bit-identical to the ``jobs=1`` serial loop, every
result is delivered to ``on_result`` exactly once, and the recovery work
is visible on ``runner.resilience``.

Workers misbehave deterministically via *ticket files*: a fault claims
its ticket with ``O_CREAT | O_EXCL`` (atomic across the pool's
processes), so a "kill once" fault kills exactly one worker no matter
how chunks are re-dispatched.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.sim.batch import (
    ChunkDeadlineError,
    SweepInterrupted,
    SweepRunner,
)
from tests.faults import stall_clock


def _claim(token: str) -> bool:
    try:
        os.close(os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        return True
    except FileExistsError:
        return False


def _evaluate(payload):  # module-level: picklable for pool workers
    value, action, token = payload
    if action == "kill-once" and _claim(token):
        os.kill(os.getpid(), signal.SIGKILL)
    if action == "kill-in-child" and os.getpid() != int(token):
        # A worker-environment casualty: dies in any pool child, runs
        # fine in the parent — the in-parent isolation endpoint.
        os.kill(os.getpid(), signal.SIGKILL)
    if action == "stall-once" and _claim(token):
        time.sleep(20)
    if action == "kill-then-stall":
        if _claim(token + ".kill"):
            os.kill(os.getpid(), signal.SIGKILL)
        if _claim(token + ".stall"):
            time.sleep(20)
    if action == "stall-always":
        time.sleep(20)
    if action == "slow":
        time.sleep(0.2)
    if action == "raise":
        raise ValueError(f"bad item {value}")
    return value * 3


def _items(count, faults=()):
    """``count`` plain items with ``faults`` overrides at given indices."""
    payloads = [(i, "ok", "") for i in range(count)]
    for index, action, token in faults:
        payloads[index] = (index, action, token)
    return payloads


EXPECTED = [i * 3 for i in range(16)]


class TestCrashRecovery:
    def test_worker_kill_is_bit_identical(self, tmp_path):
        items = _items(16, [(7, "kill-once", str(tmp_path / "kill"))])
        runner = SweepRunner(jobs=2, chunk_size=4)
        assert runner.map(_evaluate, items) == EXPECTED
        assert runner.resilience.pool_rebuilds >= 1
        assert runner.resilience.chunks_retried >= 1
        assert not runner.fell_back

    def test_on_result_delivered_exactly_once(self, tmp_path):
        items = _items(16, [(3, "kill-once", str(tmp_path / "kill"))])
        seen = {}

        def on_result(index, value):
            seen[index] = seen.get(index, 0) + 1
            assert value == index * 3

        runner = SweepRunner(jobs=2, chunk_size=4)
        runner.map(_evaluate, items, on_result=on_result)
        assert seen == {i: 1 for i in range(16)}

    def test_poisoned_item_isolated_in_parent(self):
        items = _items(16, [(5, "kill-in-child", str(os.getpid()))])
        runner = SweepRunner(jobs=2, chunk_size=8)
        assert runner.map(_evaluate, items) == EXPECTED
        assert runner.resilience.chunk_splits >= 1
        assert runner.resilience.poison_isolated >= 1
        assert not runner.fell_back

    def test_pool_broken_mid_submit_is_a_failed_round(self, monkeypatch):
        """A worker can die while a round is still being submitted, and
        the next ``submit`` then raises.  That is a failed round, not a
        reason to fall back to serial: what never reached the pool goes
        back in the queue without a strike."""
        real_submit = ProcessPoolExecutor.submit
        calls = []

        def submit(pool, *args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise BrokenProcessPool("a worker died mid-round")
            return real_submit(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        items = _items(2, [(0, "kill-in-child", str(os.getpid()))])
        runner = SweepRunner(jobs=2, chunk_size=1)
        assert runner.map(_evaluate, items) == [0, 3]
        assert len(calls) > 2
        assert runner.resilience.poison_isolated == 1
        assert runner.resilience.serial_fallbacks == 0

    def test_worker_exception_propagates_from_pool(self):
        items = _items(8, [(2, "raise", "")])
        runner = SweepRunner(jobs=2, chunk_size=2)
        with pytest.raises(ValueError, match="bad item 2"):
            runner.map(_evaluate, items)

    def test_rebuild_budget_falls_back_serial(self, tmp_path, monkeypatch):
        # Budget 0: the first crash exhausts it.  The fallback must keep
        # whatever the pool resolved and recompute only the missing
        # items — and still produce the bit-identical result.
        monkeypatch.setattr(SweepRunner, "_rebuild_budget", lambda *_: 0)
        items = _items(16, [(1, "kill-once", str(tmp_path / "kill"))])
        runner = SweepRunner(jobs=2, chunk_size=4)
        assert runner.map(_evaluate, items) == EXPECTED
        assert runner.fell_back
        assert runner.resilience.serial_fallbacks == 1
        assert "budget" in runner.resilience.fallback_reason
        assert runner.resilience.items_recovered_serial >= 1

    def test_failing_key_falls_back_serial(self):
        """The runner's own machinery failing before any item runs — here
        the ``key`` that orders the items — runs them all serially."""

        def key(item):
            raise ValueError(f"no key for {item}")

        runner = SweepRunner(jobs=2, chunk_size=4, key=key)
        assert runner.map(_evaluate, _items(16)) == (
            SweepRunner(jobs=1).map(_evaluate, _items(16))
        )
        assert runner.fell_back
        assert runner.resilience.serial_fallbacks == 1
        assert "no key" in runner.resilience.fallback_reason

    def test_clean_run_reports_nothing(self):
        runner = SweepRunner(jobs=2, chunk_size=4)
        assert runner.map(_evaluate, _items(16)) == EXPECTED
        assert not runner.resilience.eventful()
        assert not runner.fell_back


class TestChunkDeadline:
    def test_transient_stall_recovers(self, tmp_path):
        stall = str(tmp_path / "stall")
        items = _items(8, [(4, "stall-once", stall)])
        runner = SweepRunner(jobs=2, chunk_size=2, chunk_deadline_s=1.0)
        started = time.monotonic()
        # The deadline's clock runs the 20 s on once the stall begins.
        with stall_clock(lambda: 20.0 * os.path.exists(stall)):
            assert runner.map(_evaluate, items) == [i * 3 for i in range(8)]
        assert time.monotonic() - started < 15.0  # never waited the 20s out
        assert runner.resilience.deadline_timeouts >= 1
        assert runner.resilience.pool_rebuilds >= 1

    def test_one_stall_after_a_crash_is_retried(self, tmp_path):
        # A singleton with a crash strike and one deadline kill gets one
        # more attempt in the pool: the crash may have been another
        # chunk's, and the stall a transient one.
        items = _items(4, [(1, "kill-then-stall", str(tmp_path / "x"))])
        runner = SweepRunner(jobs=2, chunk_size=1, chunk_deadline_s=1.0)
        assert runner.map(_evaluate, items) == [i * 3 for i in range(4)]
        assert runner.resilience.deadline_timeouts >= 1
        assert not runner.fell_back

    def test_wedged_singleton_fails_cleanly(self):
        items = _items(6, [(2, "stall-always", "")])
        runner = SweepRunner(jobs=2, chunk_size=2, chunk_deadline_s=0.5)
        started = time.monotonic()
        with pytest.raises(ChunkDeadlineError, match="deadline"):
            runner.map(_evaluate, items)
        # Escalation (kill, retry, bisect, give up) stays bounded — the
        # sweep never sleeps out a 20s wedge.
        assert time.monotonic() - started < 15.0


class TestCancel:
    def test_cancel_before_start_serial(self):
        cancel = threading.Event()
        cancel.set()
        runner = SweepRunner(jobs=1)
        with pytest.raises(SweepInterrupted) as info:
            runner.map(_evaluate, _items(4), cancel=cancel)
        assert info.value.completed == 0
        assert info.value.total == 4

    def test_cancel_mid_pool_drains_completions(self):
        cancel = threading.Event()
        delivered = []

        def on_result(index, value):
            delivered.append(index)
            cancel.set()

        # All but the first chunk take a while: on a loaded host the
        # pool must not finish the sweep before the cancel is seen.
        items = _items(16, [(i, "slow", "") for i in range(2, 16)])
        runner = SweepRunner(jobs=2, chunk_size=2)
        with pytest.raises(SweepInterrupted) as info:
            runner.map(_evaluate, items, on_result=on_result, cancel=cancel)
        # Everything reported completed was actually delivered.
        assert info.value.completed == len(delivered)
        assert 1 <= len(delivered) < 16
