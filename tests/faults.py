"""The fault plane: deterministic fault injection for the test suite.

The service's robustness claims — *never wrong, only unavailable* — are
only worth stating if faults are generated, injected and checked by
standing infrastructure rather than hand-written one bug at a time (the
Rodrigues/Cardoso functional-test-infrastructure model from PAPERS.md,
pointed at the serving stack).  The product keeps one hook,
:mod:`repro.faults`; this module is everything behind it:

* **Named sites.**  :data:`SITES` is the table of hook sites and the
  actions each supports; a test checks it against every
  ``faults.fire("<site>", ...)`` in ``src/`` (``tests/test_faults.py``).
* **Plans.**  A :class:`FaultPlan` is a list of :class:`Fault` specs
  (site, action, arming delay, firing budget, optional context match)
  with the firing state of one run, and a fired log.  :func:`install`
  / :func:`injected` point :data:`repro.faults.HOOK` at it.
* **Strategies.**  :func:`chaos_plans` and :func:`sweep_plans` draw
  plans for the chaos properties; a failing plan *shrinks* to its
  minimal fault set, and that is the plan the chaos suite dumps.
* **A launcher.**  ``python -m tests.faults PLAN.json -- <equeue-serve
  args>`` installs a plan and runs the server's ``main`` — how a kill-9
  test arms ``server.crash`` in a subprocess server.  SIGUSR1 releases
  the plan's stalls there.
"""

from __future__ import annotations

import json
import os
import random
import signal
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro import faults as hook
from repro.obs.logs import current_request_id


class InjectedFault(Exception):
    """An injected *recoverable* failure (engine error, pool failure,
    worker-loop death).  Ordinary ``except Exception`` job/batch
    boundaries see and contain it, exactly like the real thing."""


class InjectedCrash(BaseException):
    """An injected *non-recoverable* crash (the Python-level stand-in
    for a segfaulting worker).

    Deliberately a :class:`BaseException`: it sails through every
    ``except Exception`` on its way out, the way a real crash would, and
    proves that ``evaluate_request`` catches it where it happens — the
    job that carries it fails alone as ``job crashed: ...``, and no
    batch-mate runs twice to find it.
    """


class InjectedIOError(OSError):
    """An injected store or WAL I/O failure."""


#: Hook sites and the fault actions each one supports.
SITES: Dict[str, Tuple[str, ...]] = {
    #: ``ResultStore.get`` — raise on read, or bit-flip the blob text.
    "store.get": ("io-error", "corrupt"),
    #: ``ResultStore.put`` — raise before the blob publishes.
    "store.put": ("io-error",),
    #: ``evaluate_request`` — engine exception or poison crash (either
    #: way the job fails alone), or a stall (exercises the deadline
    #: watchdog).
    "job.evaluate": ("engine-error", "poison", "slow"),
    #: ``SweepRunner.map`` — transient batch-machinery failure.
    "batch.map": ("pool-error",),
    #: ``_run_chunk`` entry, *inside a pool worker*: ``kill`` SIGKILLs
    #: the worker process (the real crash the crash-tolerant pool
    #: recovers from), ``slow`` stalls the chunk (exercises the chunk
    #: deadline).  The serial loop never traverses it.
    "batch.chunk": ("kill", "slow"),
    #: Per item, inside a pool worker (context ``item=N:...``): ``kill``
    #: makes that one item a poisoned point — every worker that touches
    #: it dies — until the runner corners it and runs it in the parent.
    "batch.worker": ("kill",),
    #: The scheduler's background worker loop — kill one iteration.
    "scheduler.worker": ("die",),
    #: ``AdmissionWAL`` appends (context: the record kind) — raise
    #: before the record reaches the disk.
    "wal.append": ("io-error",),
    #: Whole-server kill points (contexts ``admit:``, ``finish:``,
    #: ``sweep-point:``): ``kill`` SIGKILLs the *server process*, so arm
    #: it only in a subprocess server (see the launcher below); ``slow``
    #: holds a crash window open deterministically.
    "server.crash": ("kill", "slow"),
}


@dataclass(frozen=True)
class Fault:
    """One injected fault: where, what, when, and how often.

    ``after`` arms the fault only from the Nth traversal of its site
    (0 = immediately); ``count`` is its firing budget (-1 = unlimited —
    the right choice for ``match``-targeted poison faults, which must
    keep crashing their job however often it runs).  ``match``
    restricts firing to traversals whose context contains it (and then
    ``after`` counts matching traversals).  ``delay_s`` is the longest
    a ``slow`` fault stalls: its plan's release ends the stall sooner.
    """

    site: str
    action: str
    after: int = 0
    count: int = 1
    match: Optional[str] = None
    delay_s: float = 0.0

    def __post_init__(self):
        if self.action not in SITES.get(self.site, ()):
            raise ValueError(
                f"no fault {self.action!r} at site {self.site!r}; "
                f"sites: {SITES}"
            )


class FaultPlan:
    """A deterministic schedule of faults, thread-safe to fire.

    Firing state (per-site traversal counts, per-fault budgets, the
    fired log) lives on the plan, so one plan instance is one run.
    ``state_dir`` moves the budgets to disk: a plan fired inside forked
    pool workers is a *copy* per worker, and a rebuilt pool forks fresh
    copies, so an in-memory budget would re-fire forever.  There, each
    firing claims a ticket file (``O_CREAT | O_EXCL``, atomic on a
    shared filesystem) and ``count=1`` means once across every process
    that holds the plan — required for ``batch.chunk``/``batch.worker``
    faults with a budget.
    """

    def __init__(
        self,
        faults: Sequence[Fault],
        seed: int = 0,
        name: Optional[str] = None,
        state_dir: Optional[str] = None,
    ):
        self.faults = list(faults)
        self.seed = int(seed)
        self.name = name or f"plan-{self.seed}"
        self.state_dir = state_dir
        self._lock = threading.Lock()
        self._rng = random.Random(self.seed)
        self._site_visits: Dict[str, int] = {}
        self._match_visits: Dict[int, int] = {}
        self._remaining = [fault.count for fault in self.faults]
        #: Every firing: ``(site, action, context, request_id)`` in
        #: firing order, so a post-mortem can join fired faults against
        #: service logs and WAL records.
        self.fired: List[Tuple[str, str, Optional[str], Optional[str]]] = []
        #: Set at uninstall: a stall still running then ends.
        self.released = threading.Event()
        #: A ``slow`` fault's stall, given its ``delay_s``; a test may
        #: put it on its own clock.
        self.stall = self.released.wait

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultPlan":
        return cls(
            [Fault(**spec) for spec in payload["faults"]],
            seed=payload.get("seed", 0),
            name=payload.get("name"),
            state_dir=payload.get("state_dir"),
        )

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "faults": [asdict(fault) for fault in self.faults],
            "state_dir": self.state_dir,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def stalled_s(self) -> float:
        """The delay of every stall begun so far, in any process: each
        claimed a budget ticket in ``state_dir``."""
        tickets = os.listdir(self.state_dir) if os.path.isdir(self.state_dir) else []
        return sum(
            fault.delay_s * sum(t.startswith(f"{self.name}-fault{i}-") for t in tickets)
            for i, fault in enumerate(self.faults)
            if fault.action == "slow"
        )

    def _consume_budget(self, index: int, fault: Fault) -> bool:
        """Spend one firing of ``fault`` (under the plan lock)."""
        if fault.count < 0:
            return True
        if self.state_dir is None:
            if self._remaining[index] == 0:
                return False
            self._remaining[index] -= 1
            return True
        os.makedirs(self.state_dir, exist_ok=True)
        for ticket in range(fault.count):
            path = os.path.join(
                self.state_dir, f"{self.name}-fault{index}-{ticket}"
            )
            try:
                os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                return True
            except FileExistsError:
                continue
        return False

    def fire(self, site: str, context: Optional[str] = None, payload=None):
        """Traverse ``site``: act on the first armed matching fault.

        Returns ``payload`` (bit-flipped by ``corrupt``); raises, stalls
        or kills for the other actions.  A stall happens outside the
        plan lock so a stalled job never blocks other hooks.
        """
        action = None
        with self._lock:
            visit = self._site_visits.get(site, 0)
            self._site_visits[site] = visit + 1
            for index, fault in enumerate(self.faults):
                if fault.site != site:
                    continue
                if fault.match is not None:
                    if context is None or fault.match not in context:
                        continue
                    matched = self._match_visits.get(index, 0)
                    self._match_visits[index] = matched + 1
                    if matched < fault.after:
                        continue
                elif visit < fault.after:
                    continue
                if not self._consume_budget(index, fault):
                    continue
                action = fault.action
                self.fired.append(
                    (site, action, context, current_request_id())
                )
                if action == "corrupt":
                    payload = self._corrupt(payload)
                break
        if action in (None, "corrupt"):
            return payload
        if action == "slow":
            self.stall(fault.delay_s)
            return payload
        if action == "io-error":
            raise InjectedIOError(f"injected I/O fault at {site}")
        if action == "engine-error":
            raise InjectedFault(f"injected engine fault at {site}")
        if action == "pool-error":
            raise InjectedFault(f"injected batch-machinery fault at {site}")
        if action == "die":
            raise InjectedFault(f"injected worker death at {site}")
        if action == "kill":
            # A real ``kill -9`` of this process: a pool worker dies the
            # way a segfault would, and a subprocess server leaves its
            # state dir to recovery.
            os.kill(os.getpid(), signal.SIGKILL)
        assert action == "poison"
        raise InjectedCrash(f"injected crash at {site} ({context})")

    def _corrupt(self, payload):
        """Flip one deterministic bit in a text/bytes payload."""
        if not payload:
            return payload
        text = isinstance(payload, str)
        data = bytearray(payload.encode("utf-8") if text else payload)
        index = self._rng.randrange(len(data))
        data[index] ^= 1 << self._rng.randrange(7)
        return bytes(data).decode("utf-8", "replace") if text else bytes(data)


# ---------------------------------------------------------------------------
# Installation (process-global, like the failures it simulates)
# ---------------------------------------------------------------------------


def install(plan: FaultPlan) -> None:
    """Arm ``plan`` for every hook in this process (and in the pool
    workers it forks from here on)."""
    hook.HOOK = plan.fire


def clear() -> None:
    """Disarm: every hook is back to one ``None`` check."""
    hook.HOOK = None


@contextmanager
def injected(plan: FaultPlan):
    """``with injected(plan): ...`` — armed for the block, always
    disarmed and released on exit."""
    install(plan)
    try:
        yield plan
    finally:
        clear()
        plan.released.set()


@contextmanager
def stall_clock(stalled_s: Callable[[], float]):
    """The sweep runner's chunk deadlines read ``time.monotonic()`` plus
    ``stalled_s()`` for the block: a stall overruns its round's deadline
    when the next chunk lands, not a deadline later."""
    from repro.sim import batch

    real = batch.time
    batch.time = SimpleNamespace(monotonic=lambda: time.monotonic() + stalled_s())
    try:
        yield
    finally:
        batch.time = real


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def derandomized(examples: int) -> settings:
    """The chaos properties' settings: ``examples`` plans, the same ones
    every run (a CI failure replays locally), no per-example deadline."""
    return settings(
        max_examples=examples,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


#: The (site, action) pairs chaos plans draw: all but ``server.crash``,
#: which SIGKILLs the whole process (the kill-9 tests' business).
CHAOS_PAIRS = [
    (site, action)
    for site, actions in sorted(SITES.items())
    if site != "server.crash"
    for action in actions
]

#: The fault kinds :func:`sweep_plans` draws.
SWEEP_KINDS = ("chunk-kill", "chunk-stall", "poison-item")


def _led_by(first, fault, size: int):
    """1..``size`` ``fault`` draws, the first from ``first`` if given."""
    if first is None:
        return st.lists(fault, min_size=1, max_size=size)
    return st.tuples(first, st.lists(fault, max_size=size - 1)).map(
        lambda drawn: [drawn[0], *drawn[1]]
    )


def chaos_plans(
    poison_contexts: Sequence[str] = (),
    slow_delay_s: float = 0.4,
    faults: int = 3,
    first: Optional[Tuple[str, str]] = None,
):
    """Plans of 1..``faults`` faults for an in-process server.

    Each fault is one of :data:`CHAOS_PAIRS`, armed after 0–2 traversals
    with a budget of 1–2.  ``poison`` must name its victim (an unmatched
    unlimited crash would fail every job), so it is drawn only against
    ``poison_contexts``, with an unlimited budget.  ``slow`` stalls
    ``slow_delay_s``: chaos runs set the deadline *below* it, so every
    stall is a deadline failure, not a slow pass.  ``first`` pins the
    first fault's pair, so a campaign can run one property per pair.
    """
    pairs = [p for p in CHAOS_PAIRS if p[1] != "poison" or poison_contexts]

    @st.composite
    def fault(draw, pair=None):
        site, action = pair or draw(st.sampled_from(pairs))
        if action == "poison":
            victim = draw(st.sampled_from(sorted(poison_contexts)))
            return Fault(site, action, match=victim, count=-1)
        return Fault(
            site,
            action,
            after=draw(st.integers(0, 2)),
            count=draw(st.integers(1, 2)),
            delay_s=slow_delay_s if action == "slow" else 0.0,
        )

    return st.builds(
        FaultPlan,
        _led_by(first and fault(first), fault(), faults),
        seed=st.integers(0, 255),
        name=st.just("chaos"),
    )


def sweep_plans(points: int, first: Optional[str] = None):
    """Plans of one or two faults fired inside pool workers: a chunk
    kill, a chunk stall, or a poisoned item (one of ``points``);
    ``first`` pins the first fault's kind (one of :data:`SWEEP_KINDS`).

    Kills are budgeted (a sweep must finish), so the plan needs a fresh
    ``state_dir`` before it is installed.  Stalls are 2 s long — runs
    set ``chunk_deadline_s`` *below* that, so every stall is a deadline
    kill.
    """
    arming = st.integers(0, 2)
    budget = st.integers(1, 2)
    kinds = dict(zip(SWEEP_KINDS, [
        st.builds(Fault, st.just("batch.chunk"), st.just("kill"),
                  after=arming, count=budget),
        st.builds(Fault, st.just("batch.chunk"), st.just("slow"),
                  after=arming, delay_s=st.just(2.0)),
        st.builds(Fault, st.just("batch.worker"), st.just("kill"),
                  match=st.integers(0, points - 1).map("item={}:".format),
                  count=budget),
    ]))
    return st.builds(
        FaultPlan,
        _led_by(first and kinds[first], st.one_of(*kinds.values()), 2),
        name=st.just("sweep"),
    )


if __name__ == "__main__":
    # python -m tests.faults PLAN.json -- <equeue-serve args>
    plan_path, separator, *server_args = sys.argv[1:]
    if separator != "--":
        raise SystemExit(__doc__)
    with open(plan_path, encoding="utf-8") as handle:
        plan = FaultPlan.from_dict(json.load(handle))
    install(plan)
    signal.signal(signal.SIGUSR1, lambda signum, frame: plan.released.set())
    from repro.service import server

    raise SystemExit(server.main(server_args))
