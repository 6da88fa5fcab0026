"""The job lifecycle as a state machine, against a ten-line model.

Hypothesis drives a :class:`JobScheduler` over a real
:class:`AdmissionWAL` and :class:`ResultStore` in a temporary directory:
submits of new, duplicate (in-flight) and already-stored keys, drains,
watchdog failures (the scheduler's own watchdog pass, at a time the
test injects), pruning past a small :data:`MAX_JOBS`, evictions of
stored records, and crashes — the scheduler dropped, with or without
the terminal records of its last drain, and a new one recovered from
the same directory.  After every step every id ever issued must
resolve, to the outcome the model says, and no key already in the store
may simulate again.  A store hit writes no byte of WAL and enters no
index: its id names its key, and it resolves through the store alone —
in process and after a crash — until that record is evicted.

``evaluate_request`` is patched to a cheap deterministic function of
the request, so an example costs milliseconds; what is under test is
the lifecycle, not the engine.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.service import AdmissionWAL, JobRequest, JobScheduler, ResultStore
from repro.service import scheduler as scheduler_module
from repro.service import wal as wal_module
from repro.service.scheduler import HIT_PREFIX, request_store_key
from repro.sim.linecodec import record_line

#: Few enough keys that submits keep landing on in-flight and stored ones.
REQUESTS = [JobRequest.make("fir", seed=seed) for seed in range(3)] + [
    JobRequest.make("mesh")
]

#: Ids one example may issue: inside the terminal index (4 x MAX_JOBS)
#: and inside what a WAL compaction keeps, so every one stays resolvable.
ID_LIMIT = 24

#: The budget a doomed job runs with; no other job has one.
DEADLINE_S = 60.0

DEADLINE_ERROR = (
    f"deadline exceeded: job ran past its {DEADLINE_S:g}s wall-clock budget"
)


def fake_record(payload) -> dict:
    """What the patched engine returns for a request: a pure function."""
    name, config, seed, options = payload[:4]
    digest = hashlib.sha256(repr(payload[:5]).encode()).digest()
    return {
        "cycles": int.from_bytes(digest[:4], "big"),
        "scenario": name,
        "config": dict(config),
        "seed": seed,
        "options": dict(options),
    }


def expected_record(request: JobRequest) -> dict:
    return json.loads(record_line(fake_record(request.payload(None))))


class LifecycleMachine(RuleBasedStateMachine):
    ids = Bundle("ids")

    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="lifecycle-"))
        self._patches = [
            mock.patch.object(scheduler_module, "evaluate_request", self._evaluate),
            mock.patch.object(scheduler_module, "MAX_JOBS", ID_LIMIT // 4),
            mock.patch.object(wal_module, "COMPACT_EVERY", 5),
            mock.patch.object(wal_module, "KEEP_TERMINAL", ID_LIMIT),
        ]
        for patch in self._patches:
            patch.start()
        self.scheduler = self._recovered()
        # The model: keys with a record in the store, the unsettled job
        # of each key, and each issued id's key and state.
        self.stored = set()
        self.queued = {}
        self.state = {}
        self.key = {}
        self.doomed = set()

    def teardown(self):
        self.scheduler.wal.close()
        for patch in reversed(self._patches):
            patch.stop()
        shutil.rmtree(self.dir, ignore_errors=True)

    def _recovered(self) -> JobScheduler:
        scheduler = JobScheduler(
            store=ResultStore(self.dir / "store"),
            wal=AdmissionWAL(self.dir / "admission.wal"),
        )
        scheduler.recover()
        return scheduler

    def _evaluate(self, payload) -> dict:
        key = request_store_key(JobRequest(*payload[:5]))
        assert key not in self.stored, f"{payload} simulated a stored key"
        (job,) = [
            job for drained in self.scheduler._drains.values()
            for job in drained if job.key == key
        ]
        if job.id in self.doomed:
            # The watchdog's pass once the run is past the job's deadline,
            # while the engine grinds on: the job fails, and its record
            # is discarded.
            self.scheduler._watchdog_tick(job.deadline_at)
        return fake_record(payload)

    def _run_pending(self):
        """Drain the queue, each doomed job given a deadline: the one a
        client would have asked for, which the run then stamps."""
        for job_id in self.doomed.intersection(self.queued.values()):
            self.scheduler._jobs[job_id].deadline_s = DEADLINE_S
        self.scheduler.run_pending()

    # -- rules -----------------------------------------------------------

    @precondition(lambda self: len(self.state) < ID_LIMIT)
    @rule(target=ids, index=st.integers(0, len(REQUESTS) - 1))
    def submit(self, index):
        request = REQUESTS[index]
        key = request_store_key(request)
        wal_before = self.wal_bytes()
        job = self.scheduler.submit(request)
        if key in self.queued:
            assert job.id == self.queued[key], "an in-flight key coalesces"
        elif key in self.stored:
            assert job.source == "store"
            assert job.id == HIT_PREFIX + key, "a hit's id names its key"
            assert self.wal_bytes() == wal_before, "a hit wrote to the WAL"
            self.key[job.id] = key
            self.state[job.id] = "done"
        else:
            assert job.id not in self.state, f"{job.id} was issued twice"
            self.key[job.id] = key
            self.queued[key] = job.id
            self.state[job.id] = "queued"
        return job.id

    @precondition(lambda self: self.stored)
    @rule(data=st.data())
    def evict(self, data):
        key = data.draw(st.sampled_from(sorted(self.stored)))
        self.scheduler.store._blob_path(key).unlink()
        self.stored.discard(key)

    @rule(job_id=ids)
    def fail_when_it_runs(self, job_id):
        self.doomed.add(job_id)

    @rule()
    def run_pending(self):
        self._run_pending()
        self._drained()

    @rule(lose_terminals=st.booleans())
    def crash_and_recover(self, lose_terminals):
        if lose_terminals:
            # A kill after the drain's records reached the store but
            # before any terminal record reached the WAL: replay finds
            # them admitted, and answers each from the store.
            with mock.patch.object(self.scheduler.wal, "append_terminal"):
                self._run_pending()
            self._drained(outcome="done")
        self.scheduler.wal.close()
        self.scheduler = self._recovered()
        for job_id, key in self.key.items():
            if job_id.startswith(HIT_PREFIX):
                # Held by no log: the store it names answers, or misses.
                resolved = self.scheduler.job(job_id)
                assert (resolved is not None) == (key in self.stored), job_id

    @rule(job_id=ids)
    def resolve(self, job_id):
        job = self.scheduler.job(job_id)
        if job_id not in self.scheduler._jobs and not job_id.startswith(
            HIT_PREFIX
        ):
            assert job_id in self.scheduler._terminal  # pruned or recovered
        self._check(job_id, job)
        if job is not None:
            json.loads(job.to_json())  # and it serialises for the wire

    def wal_bytes(self) -> bytes:
        return self.scheduler.wal.path.read_bytes()

    def _drained(self, outcome=None):
        for key, job_id in self.queued.items():
            self.state[job_id] = outcome or (
                "error" if job_id in self.doomed else "done"
            )
            self.stored.add(key)  # a failed job's record is spilled too
        self.queued.clear()

    # -- invariants --------------------------------------------------------

    def _check(self, job_id, job):
        if (
            self.state[job_id] == "done"
            and self.key[job_id] not in self.stored
            and job_id not in self.scheduler._jobs
        ):
            # Evicted, and not held in memory: the store read misses.
            assert job is None, f"{job_id} resolved past its eviction"
            return
        assert job is not None, f"issued id {job_id} no longer resolves"
        assert job.state == self.state[job_id], job_id
        if job.state == "done":
            request = next(
                r for r in REQUESTS
                if request_store_key(r) == self.key[job_id]
            )
            assert job.record == expected_record(request)
        elif job.state == "error":
            assert job.error == DEADLINE_ERROR

    @invariant()
    def hits_are_held_by_the_store_alone(self):
        assert not [i for i in self.scheduler._jobs if i.startswith(HIT_PREFIX)]

    @invariant()
    def every_issued_id_resolves_as_the_model_says(self):
        for job_id in self.state:
            self._check(job_id, self.scheduler.job(job_id))


def test_the_lifecycle_holds_the_model():
    run_state_machine_as_test(
        LifecycleMachine,
        settings=settings(
            max_examples=25,
            stateful_step_count=25,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )


@pytest.mark.slow
def test_the_lifecycle_holds_the_model_deeply():
    run_state_machine_as_test(
        LifecycleMachine,
        settings=settings(
            max_examples=200,
            stateful_step_count=50,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
