"""Batch simulation: sharded multi-process sweeps with cross-simulation
compile caching (the §VI-E scalability subsystem).

A design-space exploration evaluates thousands of *independent*
simulations, which makes whole-sweep wall clock the hottest remaining
path after the per-simulation fast paths of :mod:`repro.sim.plan`.  This
module scales it the way bulk-synchronous hardware simulators (Manticore,
GSIM) do, along two orthogonal axes:

**Sharding** — :class:`SweepRunner` partitions the work items into
chunks, dispatches them to a :class:`~concurrent.futures.ProcessPoolExecutor`
of spawn-safe workers, and merges the results back into the original item
order, so a parallel sweep is observably identical to a serial one
(wall-clock timing fields aside).  ``jobs=1`` — and any environment where
process pools are unavailable or the work is not picklable — degrades to
an in-process serial loop with the same semantics.

**Cross-simulation compile caching** — sweep points are frequently
*structurally identical*: a generated systolic module depends only on the
dataflow, array shape, stream length, and fold counts
(:func:`structural_signature`), while the points differ in convolution
dims and data.  :class:`CompileCache` keys on whatever structure key its
caller computes and reuses both the built (and verified) module and
the compiled block plans — in ONE :class:`~repro.sim.plan.PlanCache`
for all its programs, so structures of one family share the launch-body
shapes they have in common — making compilation
compile-once/execute-many *across* simulations.  Each
process holds ONE such cache (:func:`process_compile_cache`) — the
systolic DSE, scenario sweeps and the service all fill and hit it — and
the runner sorts work so structurally identical points land in the same
chunk ("signature-affine" sharding), which keeps the per-worker caches
as warm as the serial cache would be.

**One resumable driver** — :meth:`SweepRunner.resume_map` computes only
what a checkpoint lacks: a journal (:func:`journaled_sweep`, both
library sweeps) or the service's result store.

Determinism: every simulation is independent and internally
deterministic, the cache changes nothing observable (proven by the
plan/engine differential tests), and the merge restores submission order
— so ``jobs=N`` output is bit-identical to ``jobs=1``.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import weakref
from collections import OrderedDict
from contextlib import nullcontext
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from .. import faults, permanent
from .engine import EngineOptions, ExecutionMode, SimulationResult, simulate
from .journal import SweepJournal, journal_header
from .plan import PlanCache

T = TypeVar("T")
R = TypeVar("R")

#: Failures of the pool *machinery* (as opposed to the work itself) that
#: the runner converts into a serial in-process fallback.  Deliberately
#: narrow — worker exceptions are application errors and must propagate;
#: unpicklable workers/items are screened by up-front probes instead.
_POOL_FAILURES = (
    BrokenProcessPool,
    pickle.PicklingError,
)

#: Placeholder for a result slot the pool has not produced yet.  The
#: recovery paths test against it by identity, so ``None`` (a perfectly
#: valid worker result) never looks like missing work.
_PENDING = object()


class SweepInterrupted(RuntimeError):
    """A cooperative cancel stopped the sweep after a clean drain.

    Raised by :meth:`SweepRunner.map` (and, recounted over the whole
    sweep, by :meth:`SweepRunner.resume_map`) when a ``cancel`` event is
    observed: in-flight chunks are drained and delivered first, so
    everything completed before the interruption has already reached
    ``on_result`` — the state on disk (journal, store) is resumable,
    never torn.
    """

    def __init__(self, completed: int, total: int):
        super().__init__(
            f"sweep interrupted after {completed}/{total} items"
        )
        self.completed = completed
        self.total = total


class ChunkDeadlineError(RuntimeError):
    """A single item was implicated in two chunk-deadline kills.

    The terminal verdict of the deadline escalation: the wedged chunk
    was killed, retried in a fresh pool, bisected down to one item, and
    that item *still* did not finish in time.  Running it in the parent
    could wedge the whole sweep, so it fails cleanly instead — completed
    points stay journaled and resumable.
    """


@dataclass
class ResilienceStats:
    """What it took to finish a sweep (all zeros on a clean run).

    One instance per :meth:`SweepRunner.map` call (``runner.resilience``)
    with :meth:`merge` for accumulation across batches — the service
    scheduler folds every runner's stats into its ``/stats`` payload,
    and journaled sweeps add the points they skipped on resume.
    """

    #: Worker pools rebuilt after a ``BrokenProcessPool`` or a deadline
    #: kill (each rebuild re-dispatches only the unresolved chunks).
    pool_rebuilds: int = 0
    #: Chunks re-dispatched intact after their first failure.
    chunks_retried: int = 0
    #: Chunks bisected after repeated failures (cornering a poisoned item).
    chunk_splits: int = 0
    #: Singleton items that kept killing workers and were re-run in the
    #: parent process (the bisection endpoint).
    poison_isolated: int = 0
    #: Dispatch rounds that overran ``chunk_deadline_s`` (wedged children
    #: killed, their chunks re-run).
    deadline_timeouts: int = 0
    #: Times :meth:`SweepRunner.map` degraded to the serial loop.
    serial_fallbacks: int = 0
    #: Items completed serially *after* a pool failure (the completed
    #: pool results are kept — only these were re-run).
    items_recovered_serial: int = 0
    #: Items skipped because a checkpoint (journal or store) already
    #: held their results.
    points_resumed: int = 0
    #: Why the last serial fallback happened (``None`` = no fallback).
    fallback_reason: Optional[str] = None

    def merge(self, other: "ResilienceStats") -> None:
        for name, value in asdict(other).items():
            if name != "fallback_reason":
                setattr(self, name, getattr(self, name) + value)
        if other.fallback_reason is not None:
            self.fallback_reason = other.fallback_reason

    def to_dict(self) -> Dict:
        return asdict(self)

    def eventful(self) -> bool:
        """True when anything nonzero happened (worth reporting)."""
        return any(value for value in self.to_dict().values())


@dataclass
class _ChunkState:
    """One dispatched chunk's recovery bookkeeping across pool rebuilds."""

    indices: List[int]
    crashes: int = 0
    timeouts: int = 0
    suspect_timeout: bool = False

#: Failures creating the pool itself (no fork/sem support in sandboxes).
#: Caught only around executor construction — an OSError raised by the
#: *worker function* must not be mistaken for a missing pool.
_POOL_SETUP_FAILURES = (ImportError, NotImplementedError, OSError)


class _PoolUnavailable(Exception):
    """This environment cannot create a worker pool (serial fallback)."""


def default_jobs() -> int:
    """Usable CPU count (affinity-aware); the natural ``jobs`` choice."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def _mp_context():
    """The multiprocessing start method for worker pools.

    ``fork`` (where available) starts workers in milliseconds; ``spawn``
    is the portable fallback.  Workers are written spawn-safe either way
    — module-level functions, picklable payloads, import path propagated
    via ``PYTHONPATH``.
    """
    import multiprocessing

    fork = "fork" in multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if fork else "spawn")


def _export_import_path() -> None:
    """Make ``repro`` importable in spawned children.

    Spawned workers re-import the task function's module from scratch;
    if the parent found :mod:`repro` through ``sys.path`` manipulation
    (e.g. a test harness) rather than an installed package, the children
    would not.  Prepending the package root to ``PYTHONPATH`` — which
    child processes inherit — closes that gap.
    """
    import repro

    root = str(Path(repro.__file__).resolve().parents[1])
    existing = os.environ.get("PYTHONPATH", "")
    parts = existing.split(os.pathsep) if existing else []
    if root not in parts:
        os.environ["PYTHONPATH"] = (
            os.pathsep.join([root] + parts) if parts else root
        )


def _run_chunk(
    worker: Callable[[T], R],
    items: Sequence[T],
    indices: Optional[Sequence[int]] = None,
    describe: Optional[Callable[[T], str]] = None,
) -> List[R]:
    """Worker-side chunk driver (module-level, hence spawn-picklable).

    Fires the two *in-worker* fault sites: ``batch.chunk`` once per
    dispatched chunk and ``batch.worker`` once per item, each with a
    context naming the chunk's original item indices (``item=N:...``) so
    chaos plans can kill or stall one specific point.  Forked workers
    inherit the parent's hook; with none set, the contexts are never
    built and each site costs one ``None`` check.
    """
    if faults.HOOK is not None and indices:
        faults.fire(
            "batch.chunk",
            context=f"chunk={indices[0]}..{indices[-1]},n={len(items)}",
        )
    results: List[R] = []
    for position, item in enumerate(items):
        if faults.HOOK is not None and indices:
            context = f"item={indices[position]}:"
            if describe is not None:
                context += describe(item)
            faults.fire("batch.worker", context=context)
        results.append(worker(item))
    return results


class SweepRunner:
    """Shard independent work items across a process pool, deterministically.

    ``jobs``: worker process count (``None`` or non-positive — the CLI's
    ``--jobs 0`` — = all usable CPUs; ``1`` = in-process serial
    execution, no pool).
    ``chunk_size``: items per dispatched task (``None`` = balanced
    automatically, a few chunks per worker).
    ``key``: optional item key for cache-affine sharding — items with
    equal keys are placed contiguously so they land in the same worker's
    process-wide :class:`CompileCache` (e.g. ``structural_signature``).

    :meth:`map` is the whole API: apply a picklable module-level callable
    to every item and return the results in item order.  Exceptions
    raised by the *worker function itself* propagate unchanged in both
    modes; failures of the runner's machinery are survived in place:

    * A failure before any item runs — the ``batch.map`` seam, the
      ``key`` function, a worker or items that cannot be pickled — runs
      every item in the serial loop instead.
    * A dead worker (``BrokenProcessPool``) keeps every already-resolved
      chunk, rebuilds the pool, and re-dispatches only the missing
      chunks — bounded by a rebuild budget, past which the *missing*
      items complete serially in-process.
    * A chunk that keeps killing workers is bisected down to a single
      item, which is then run in the parent: determinism means it either
      succeeds (it was a worker-environment casualty) or raises the same
      exception ``jobs=1`` would.
    * ``chunk_deadline_s`` puts a wall clock on every dispatch round: a
      wedged child is killed (the sweep never hangs) and its chunk
      re-run in a fresh pool; a singleton that still cannot finish fails
      cleanly with :class:`ChunkDeadlineError`.

    ``on_result(index, result)`` observes completions as they land (the
    checkpoint seam — journals and stores write through it), ``cancel``
    (a :class:`threading.Event`) requests a graceful drain that raises
    :class:`SweepInterrupted`, and ``runner.resilience`` accounts what
    recovery work the last :meth:`map` performed.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        chunk_size: Optional[int] = None,
        key: Optional[Callable[[T], object]] = None,
        chunk_deadline_s: Optional[float] = None,
        describe: Optional[Callable[[T], str]] = None,
    ):
        self.jobs = default_jobs() if jobs is None or jobs <= 0 else int(jobs)
        self.chunk_size = chunk_size
        self.key = key
        #: Wall-clock budget for one dispatch round of chunks (``None``
        #: = no deadline).  Size it for the *round*, not one item: with
        #: default chunking a round holds every chunk.
        self.chunk_deadline_s = chunk_deadline_s
        #: Optional picklable ``item -> str`` used to annotate the
        #: ``batch.worker`` fault-hook context (diagnostics only).
        self.describe = describe
        #: True when the last :meth:`map` degraded to the serial fallback
        #: after a pool failure (useful for tests and diagnostics).
        self.fell_back = False
        #: Recovery accounting for the last :meth:`map` call.
        self.resilience = ResilienceStats()

    # -- sharding ------------------------------------------------------

    def _order(self, items: Sequence[T]) -> Tuple[List[int], List[str]]:
        """Dispatch order — signature-affine when a key is provided —
        plus each item's key string (by item index), computed once: a
        key may be as costly as re-resolving a scenario config."""
        indices = list(range(len(items)))
        if self.key is None:
            return indices, []
        keys = [repr(self.key(item)) for item in items]
        indices.sort(key=keys.__getitem__)
        return indices, keys

    def _chunks(self, order: List[int], keys: List[str]) -> List[List[int]]:
        count = len(order)
        if self.chunk_size is not None:
            size = max(1, int(self.chunk_size))
        else:
            # A few chunks per worker balances load without splintering
            # the signature groups the affine ordering created.
            size = max(1, -(-count // (self.jobs * 2)))
        if not keys:
            return [order[i : i + size] for i in range(0, count, size)]
        # Cut only at key-group boundaries: a group split across chunks
        # may land in different workers, whose process-wide caches would
        # each pay the group's compile (and memoized-simulation) cost.
        chunks: List[List[int]] = []
        current: List[List[int]] = []
        filled = 0
        group: List[int] = []
        group_key = object()
        for index in order + [None]:  # sentinel flushes the last group
            key = keys[index] if index is not None else None
            if key != group_key:
                if group:
                    current.append(group)
                    filled += len(group)
                    if filled >= size:
                        chunks.append([i for g in current for i in g])
                        current, filled = [], 0
                if index is None:
                    break
                group, group_key = [], key
            group.append(index)
        if current:
            chunks.append([i for g in current for i in g])
        return chunks

    # -- execution -----------------------------------------------------

    def map(
        self,
        worker: Callable[[T], R],
        items: Iterable[T],
        on_result: Optional[Callable[[int, R], None]] = None,
        cancel: Optional["threading.Event"] = None,
    ) -> List[R]:
        """``[worker(x) for x in items]``, sharded across processes.

        ``on_result(index, result)`` is called exactly once per item as
        its result lands (pool completions, recovery re-runs, and serial
        execution alike) — the checkpoint seam.  ``cancel.set()``
        requests a graceful stop: in-flight chunks drain, their results
        are delivered, then :class:`SweepInterrupted` is raised.
        """
        items = list(items)
        self.fell_back = False
        self.resilience = ResilienceStats()
        serial = self.jobs <= 1 or len(items) <= 1
        try:
            # The runner's own machinery, before any item runs: the
            # seam, the item keys, and the probe for work that can never
            # reach a pool (a lambda worker, items holding locks or
            # handles).  A failure here leaves nothing to recover, so the
            # serial loop runs every item — where an error raised *by*
            # the worker propagates, never mistaken for a pool failure.
            faults.fire("batch.map", context=f"items={len(items)}")
            if not serial:
                chunks = self._chunks(*self._order(items))
                pickle.dumps(worker)
                pickle.dumps(items)
        except Exception as error:  # noqa: BLE001 - machinery boundary
            self._fall_back(f"{type(error).__name__}: {error}")
            serial = True
        if serial:
            return self._map_serial(worker, items, on_result, cancel)
        results: List = [_PENDING] * len(items)
        try:
            with permanent.frozen_for_fork():
                return self._map_pooled(
                    worker, items, chunks, results, on_result, cancel
                )
        except _PoolUnavailable as error:
            self._fall_back(str(error) or "pool unavailable")
        except _POOL_FAILURES as error:
            self._fall_back(f"{type(error).__name__}: {error}")
        # Serial completion: keep every result the pool already
        # produced and run only the items still missing.
        return self._map_serial(worker, items, on_result, cancel, results)

    def resume_map(
        self,
        worker: Callable[[T], R],
        items: Sequence[T],
        completed: Mapping[int, R],
        on_result: Optional[Callable[[int, R], None]] = None,
        cancel: Optional["threading.Event"] = None,
        stats: Optional[ResilienceStats] = None,
    ) -> List[R]:
        """:meth:`map` over only the items a checkpoint does not hold —
        THE resumable sweep driver.

        ``completed`` maps item indices to results a checkpoint already
        has; the rest are computed, ``on_result`` observes each under
        its *original* index (the checkpoint write), and the merged list
        comes back in item order — bit-identical to an uninterrupted
        run, since every result is a pure function of its item.  A
        :class:`SweepInterrupted` is recounted over the whole sweep;
        ``stats`` accumulates the resumed count and this run's recovery
        work, interrupted or not.
        """
        total = len(items)
        results: List = [completed.get(i, _PENDING) for i in range(total)]
        missing = [i for i in range(total) if results[i] is _PENDING]
        if stats is not None:
            stats.points_resumed += total - len(missing)

        def deliver(position: int, value: R) -> None:
            index = missing[position]
            if on_result is not None:
                on_result(index, value)
            results[index] = value

        try:
            if missing:
                self.map(
                    worker,
                    [items[i] for i in missing],
                    on_result=deliver,
                    cancel=cancel,
                )
        except SweepInterrupted:
            raise SweepInterrupted(self._completed(results), total) from None
        finally:
            if stats is not None and missing:
                stats.merge(self.resilience)
        return results

    def _fall_back(self, reason: str) -> None:
        self.fell_back = True
        self.resilience.serial_fallbacks += 1
        self.resilience.fallback_reason = reason

    @staticmethod
    def _completed(results: List) -> int:
        return sum(1 for value in results if value is not _PENDING)

    def _map_serial(
        self,
        worker: Callable[[T], R],
        items: Sequence[T],
        on_result: Optional[Callable[[int, R], None]],
        cancel,
        results: Optional[List] = None,
    ) -> List[R]:
        # A results array means we got to the pool and fell back: the
        # items run here are recovery work (completed slots are kept).
        recovering = results is not None
        if results is None:
            results = [_PENDING] * len(items)
        for index, item in enumerate(items):
            if results[index] is not _PENDING:
                continue
            if cancel is not None and cancel.is_set():
                raise SweepInterrupted(self._completed(results), len(items))
            value = worker(item)
            results[index] = value
            if recovering:
                self.resilience.items_recovered_serial += 1
            if on_result is not None:
                on_result(index, value)
        return results

    def _make_pool(self, chunk_count: int) -> ProcessPoolExecutor:
        try:
            return ProcessPoolExecutor(
                max_workers=min(self.jobs, max(1, chunk_count)),
                mp_context=_mp_context(),
            )
        except _POOL_SETUP_FAILURES as error:
            raise _PoolUnavailable(str(error)) from error

    def _rebuild_budget(self, count: int) -> int:
        # Enough for a bisection chain down to a singleton (one intact
        # retry plus one split per level) with slack for transient
        # crashes elsewhere in the sweep.
        return 4 + 2 * max(1, count).bit_length()

    def _map_pooled(
        self,
        worker: Callable[[T], R],
        items: Sequence[T],
        chunks: List[List[int]],
        results: List,
        on_result: Optional[Callable[[int, R], None]],
        cancel,
    ) -> List[R]:
        # Children must find repro via PYTHONPATH; restore the parent's
        # environment afterwards so the mutation cannot leak into later
        # unrelated subprocesses.
        previous_pythonpath = os.environ.get("PYTHONPATH")
        _export_import_path()
        pool = None
        budget = self._rebuild_budget(len(items))
        try:
            pool = self._make_pool(len(chunks))
            pending = [_ChunkState(indices=list(chunk)) for chunk in chunks]
            while pending:
                if cancel is not None and cancel.is_set():
                    raise SweepInterrupted(
                        self._completed(results), len(items)
                    )
                round_states, pending = pending, []
                futures: Dict = {}
                for position, state in enumerate(round_states):
                    try:
                        future = pool.submit(
                            _run_chunk,
                            worker,
                            [items[i] for i in state.indices],
                            state.indices,
                            self.describe,
                        )
                    except BrokenProcessPool:
                        # A worker died before this submit: the round
                        # failed.  What never reached the pool goes back
                        # in the queue without a strike.
                        pending = round_states[position:]
                        break
                    futures[future] = state
                failed, interrupted = self._collect(
                    pool, futures, results, on_result, cancel
                )
                if interrupted:
                    raise SweepInterrupted(
                        self._completed(results), len(items)
                    )
                if not failed and not pending:
                    continue
                self.resilience.pool_rebuilds += 1
                if self.resilience.pool_rebuilds > budget:
                    raise _PoolUnavailable(
                        f"pool rebuild budget exhausted ({budget} rebuilds)"
                    )
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
                pending += self._retry_plan(
                    worker, items, results, on_result, failed
                )
                if pending:
                    pool = self._make_pool(len(pending))
            missing = self._completed(results) != len(items)
            if missing:  # pragma: no cover - defensive
                raise _PoolUnavailable("pool lost track of dispatched items")
            return list(results)
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            if previous_pythonpath is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = previous_pythonpath

    def _collect(
        self,
        pool: ProcessPoolExecutor,
        futures: Dict,
        results: List,
        on_result: Optional[Callable[[int, R], None]],
        cancel,
    ) -> Tuple[List[_ChunkState], bool]:
        """Wait out one dispatch round, recording each chunk's outcome.

        Successful chunks resolve into ``results`` (and ``on_result``)
        the moment they land.  Returns ``(failed, interrupted)``: the
        chunk states that died with the pool (crash or deadline kill,
        distinguished on the state's counters), and whether ``cancel``
        was observed — in which case queued chunks were cancelled and
        the running ones drained first.
        """
        failed: List[_ChunkState] = []
        interrupted = False
        not_done = set(futures)
        deadline = (
            None
            if self.chunk_deadline_s is None
            else time.monotonic() + self.chunk_deadline_s
        )
        while not_done:
            if cancel is not None and cancel.is_set() and not interrupted:
                interrupted = True
                # Queued chunks can still be cancelled; running ones
                # drain (their results are kept and checkpointed).
                for future in list(not_done):
                    if future.cancel():
                        not_done.discard(future)
                continue
            timeout = None if cancel is None else 0.05
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    # The round overran its wall-clock budget: the
                    # running chunks are wedged suspects.  Kill the
                    # children — the pool breaks, every unresolved
                    # future fails fast, and the sweep never hangs.
                    suspects = {f for f in not_done if f.running()}
                    if not suspects:
                        suspects = set(not_done)
                    for future in suspects:
                        futures[future].suspect_timeout = True
                    self.resilience.deadline_timeouts += len(suspects)
                    processes = getattr(pool, "_processes", None) or {}
                    for process in list(processes.values()):
                        process.terminate()
                    deadline = None
                    continue
                timeout = (
                    remaining if timeout is None else min(timeout, remaining)
                )
            done, not_done = wait(
                not_done, timeout=timeout, return_when=FIRST_COMPLETED
            )
            for future in done:
                state = futures[future]
                if self._resolve(future, state, results, on_result):
                    continue
                if state.suspect_timeout:
                    state.timeouts += 1
                else:
                    state.crashes += 1
                failed.append(state)
        return failed, interrupted

    def _resolve(
        self,
        future,
        state: _ChunkState,
        results: List,
        on_result: Optional[Callable[[int, R], None]],
    ) -> bool:
        """Deliver one finished future; False when its chunk died with
        the pool.  Worker-raised exceptions propagate unchanged."""
        try:
            values = future.result()
        except BrokenProcessPool:
            return False
        except CancelledError:
            return True
        for index, value in zip(state.indices, values):
            results[index] = value
            if on_result is not None:
                on_result(index, value)
        return True

    def _retry_plan(
        self,
        worker: Callable[[T], R],
        items: Sequence[T],
        results: List,
        on_result: Optional[Callable[[int, R], None]],
        failed: List[_ChunkState],
    ) -> List[_ChunkState]:
        """The next dispatch round after a pool death.

        First strike: re-dispatch the chunk intact (a transient crash).
        Second: bisect, cornering a poisoned item (PR 6's batch-bisection
        pattern — safe by determinism).  A *singleton* that keeps
        killing workers runs in the parent: outside the pool (and the
        worker-only fault hooks) it either succeeds or raises exactly
        what ``jobs=1`` would.  A singleton implicated in a deadline
        kill is never run in the parent — that could wedge the whole
        sweep: it gets one more attempt in the pool (its other strike
        may be another chunk's crash, which fails every chunk in
        flight), and a second deadline kill fails it cleanly.
        """
        pending: List[_ChunkState] = []
        for state in failed:
            state.suspect_timeout = False
            strikes = state.crashes + state.timeouts
            if strikes <= 1:
                self.resilience.chunks_retried += 1
                pending.append(state)
                continue
            if len(state.indices) > 1:
                self.resilience.chunk_splits += 1
                middle = len(state.indices) // 2
                for half in (state.indices[:middle], state.indices[middle:]):
                    pending.append(
                        _ChunkState(
                            indices=half,
                            crashes=min(state.crashes, 1),
                            timeouts=min(state.timeouts, 1),
                        )
                    )
                continue
            index = state.indices[0]
            if state.timeouts > 1:
                raise ChunkDeadlineError(
                    f"item {index} exceeded the chunk deadline "
                    f"({self.chunk_deadline_s:.3g}s) twice"
                )
            if state.timeouts:
                self.resilience.chunks_retried += 1
                pending.append(state)
                continue
            self.resilience.poison_isolated += 1
            value = worker(items[index])
            results[index] = value
            if on_result is not None:
                on_result(index, value)
        return pending


def journaled_sweep(
    worker: Callable[[T], R],
    payloads: Sequence[T],
    request: Mapping,
    encode: Callable[[R], Dict],
    decode: Callable[[Mapping], R],
    runner: SweepRunner,
    journal=None,
    resume: bool = False,
    cancel=None,
    runner_stats: Optional[ResilienceStats] = None,
) -> List[R]:
    """One library sweep, optionally checkpointed to a journal.

    The shared body of :func:`repro.analysis.run_sweep` and
    :func:`repro.scenarios.run_scenario_sweep` (which documents
    ``journal``/``resume``/``cancel``/``runner_stats``); callers bring
    only what differs — their worker and payloads, the ``request`` dict
    that identifies the sweep (:func:`~repro.sim.journal.journal_header`)
    and their point codec (``encode`` to a JSON-native record, ``decode``
    back).  The journal is closed on every way out, so an interrupted
    sweep leaves a resumable file.
    """
    if journal is None:
        return runner.resume_map(worker, payloads, {}, None, cancel, runner_stats)
    if not isinstance(journal, SweepJournal):
        journal = SweepJournal(journal)
    total = len(payloads)

    def checkpoint(index: int, point: R) -> None:
        journal.append_point(index, encode(point))

    try:
        header = journal_header(request, total)
        completed = {
            index: decode(record)
            for index, record in journal.open(header, resume).items()
            if 0 <= index < total
        }
        return runner.resume_map(
            worker, payloads, completed, checkpoint, cancel, runner_stats
        )
    finally:
        journal.close()


def subsample(points: Sequence[T], sample: Optional[int], seed: int) -> List[T]:
    """The deterministic ``sample``-point subsample of a sweep space, in
    sweep order — one rule, so a library sweep, a CLI ``--sweep
    --sample`` and a service sweep of the same request evaluate the
    same points."""
    if sample is None or sample >= len(points):
        return list(points)
    chosen = np.random.default_rng(seed).choice(
        len(points), size=sample, replace=False
    )
    return [points[i] for i in sorted(chosen)]


# ---------------------------------------------------------------------------
# The cross-simulation compile cache
# ---------------------------------------------------------------------------


def structural_signature(cfg) -> Tuple:
    """The structure key of a systolic configuration's generated module.

    Two configurations with equal signatures build *identical* EQueue
    modules: generation depends only on the dataflow, the array shape,
    the stream length, and the fold counts — the convolution dims enter
    solely through those derived quantities (and through the input data,
    which is per-point).
    """
    return (
        cfg.dataflow,
        cfg.array_height,
        cfg.array_width,
        cfg.stream_length,
        cfg.folds_rows,
        cfg.folds_cols,
    )


#: How many programs a :class:`CompileCache` keeps.  The 62 structures
#: of the design-space sweep fit; a server's stream of first-seen
#: structures evicts the least recently used.
PROGRAM_CACHE_ENTRIES = 64


@dataclass
class CompileCacheStats:
    """Build/hit/eviction accounting for one :class:`CompileCache`.  The
    process cache's instance is what ``/stats`` reports as
    ``program_cache``; tests use it to prove a warm path builds
    nothing."""

    programs_built: int = 0
    program_hits: int = 0
    programs_evicted: int = 0


@dataclass
class CachedProgram:
    """One structure's reusable compilation artifacts: the
    built-and-verified module, simulated against the plan cache its
    :class:`CompileCache` keeps for all its programs.  Every cached
    simulation — DSE point, scenario sweep point, service job — goes
    through :meth:`simulate`."""

    module: object
    #: The compile cache's: shared with every other program of it, and
    #: serving one engine at a time — hence its lock.
    plan_cache: PlanCache
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Something of this program is in the permanent generation or owed
    #: to it (:mod:`repro.permanent`): the IR from the moment
    #: :meth:`CompileCache.lookup` built it, the plans once ``warmed``.
    parked: bool = False
    #: Set once a simulation has compiled the plans (again, if the
    #: cache forgot them).  They — and code a later simulation generates
    #: for blocks that got hot — are parked by the next cached
    #: simulation.
    warmed: bool = False
    #: What the build knows of its launch bodies: each block that is a
    #: copy of another but for its constants' values -> that other (the
    #: systolic generator's stamped PE bodies).  It holds because the
    #: module never changes once built.  Handed to the plan cache,
    #: which binds a copy to its original's shape without keying it
    #: and consumes the entry as it does (``PlanCache.stamps``).
    stamps: Dict = field(default_factory=dict)
    #: Seed -> the DSE point measured on this program
    #: (:func:`repro.analysis.dse._sweep_worker`), gone with it.
    measured: Dict = field(default_factory=dict)

    def simulate(
        self,
        inputs: Optional[Dict[str, np.ndarray]] = None,
        options: Optional[EngineOptions] = None,
    ) -> SimulationResult:
        """Simulate the cached module, sharing compiled block plans.

        Verification already happened at build time, so the default
        options skip re-verifying; results are bit-identical to a cold
        :func:`repro.sim.simulate` of a freshly built program.
        """
        if options is None:
            options = EngineOptions(verify_module=False)
        compiled = options.mode is not ExecutionMode.INTERPRET
        with self.lock:
            self.plan_cache.stamps = self.stamps
            # The previous cached simulation's result is out of its
            # caller's hands by now: the safe point for the hand-off it
            # deferred.
            permanent.settle()
            # The first simulation compiles the plans; like the build
            # before it (CompileCache.lookup) it allocates what the cache
            # keeps, so the collector sits it out and the hand-off owed
            # below walks what the run leaves, once.
            with nullcontext() if self.warmed else permanent.paused():
                result = simulate(
                    self.module,
                    options,
                    inputs=inputs,
                    plan_cache=self.plan_cache if compiled else None,
                )
            if not self.warmed or result.summary.blocks_codegenned:
                # Plans compiled: nothing here changes any more, so the
                # collector need never walk it again.  Blocks that only
                # got hot in a later simulation gained their generated
                # bodies after that hand-off; they join the next.
                self.warmed = self.parked = True
                permanent.defer()
        return result


def drop_programs(
    entries: Dict[Tuple, CachedProgram], evicted: List[Tuple]
) -> None:
    """Empty a program cache's tables, thawing the heap if any of its
    programs was parked — IR is cyclic, so a dropped module that was
    not torn down is only reclaimed once the collector can see it
    again."""
    parked = evicted or any(entry.parked for entry in entries.values())
    entries.clear()
    evicted.clear()
    if parked:
        permanent.release()


def _blocks(op, ids=None) -> set:
    """The ``id`` of every block nested in ``op``."""
    ids = set() if ids is None else ids
    for region in op.regions:
        for block in region.blocks:
            ids.add(id(block))
            for inner in block.ops:
                if inner.regions:
                    _blocks(inner, ids)
    return ids


def _module_of(block):
    """The top-level op ``block`` is nested in."""
    op = block.parent_op
    while op.parent is not None:
        op = op.parent.parent_op
    return op


@dataclass
class CompileCache:
    """Reusable compilation artifacts keyed by structural signature.

    The nth structurally identical simulation skips IR construction,
    verification, *and* block-plan compilation.  Callers bring the
    signature and the builder (equal signatures must build identical
    modules), so a ``systolic`` scenario request and a DSE point of the
    same structure share one entry.  Entries pin their modules (and the
    plans pin their blocks), so the cache is also what keeps
    ``id``-keyed plan lookups safe over time.

    All programs compile into ONE :class:`~repro.sim.plan.PlanCache`:
    a launch-body shape is keyed without its buffers' dimensions, so
    the 62 systolic programs of a sweep meet 18 shapes between them
    where each used to compile its own nine — steps, emitted code and
    tier-up count are the family's.  A plan cache serves one engine at
    a time; ``lock`` makes that so for the cache's simulations, and for
    the table of entries.

    The cache holds :data:`PROGRAM_CACHE_ENTRIES` programs, least
    recently used first out.  An evicted program is torn down — the
    plan cache forgets its blocks and its IR is broken into trees —
    so reference counting frees it where it lies, frozen or not; one a
    caller still holds waits in ``evicted`` until none does.
    """

    entries: "OrderedDict[Tuple, CachedProgram]" = field(
        default_factory=OrderedDict
    )
    stats: CompileCacheStats = field(default_factory=CompileCacheStats)
    plans: PlanCache = field(default_factory=PlanCache)
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Evicted programs not yet torn down: ``(ref, module, stamps)``.
    evicted: List[Tuple] = field(default_factory=list)

    def __post_init__(self):
        # A cache dropped without clear() must not strand the programs
        # it parked.
        finalizer = weakref.finalize(
            self, drop_programs, self.entries, self.evicted
        )
        finalizer.atexit = False

    def lookup(
        self, signature: Tuple, build: Callable[[], object]
    ) -> CachedProgram:
        """The cached artifacts for ``signature``, now the most recently
        used.  A miss calls ``build()`` for the (verified) module — or
        for a program that holds it as ``module`` and brings its
        :attr:`CachedProgram.stamps` as ``stamps`` (``SystolicProgram``)
        — and evicts the least recently used past the bound."""
        with self.lock:
            entry = self.entries.get(signature)
            if entry is not None:
                self.entries.move_to_end(signature)
                self.stats.program_hits += 1
                return entry
        # A program under construction is all live: the collector is
        # held off while it is built and the finished IR goes straight
        # to the permanent generation.
        with permanent.under_construction():
            built = build()
            entry = CachedProgram(
                getattr(built, "module", built), self.plans, self.lock,
                parked=True, stamps=getattr(built, "stamps", {}),
            )
        with self.lock:
            self.stats.programs_built += 1
            kept = self.entries.setdefault(signature, entry)
            if kept is not entry:  # another thread built it meanwhile
                self._evict(entry)
            while len(self.entries) > PROGRAM_CACHE_ENTRIES:
                self._evict(self.entries.popitem(last=False)[1])
                self.stats.programs_evicted += 1
            if self.evicted:
                self._tear_down()
        return kept

    def _evict(self, entry: CachedProgram) -> None:
        self.evicted.append((weakref.ref(entry), entry.module, entry.stamps))

    def _tear_down(self) -> None:
        """Free every evicted program no caller holds any more (under
        ``lock``).  The plan cache forgets its blocks; a shape goes with
        its representative, and with it the plans of every program bound
        to that shape (they compile again on their next simulation).
        Then the IR is broken into trees (``drop_all_references``): no
        cycle is left, so nothing waits for a collection."""
        held = []
        for record in self.evicted:
            if record[0]() is not None:
                held.append(record)
                continue
            _, module, stamps = record
            if self.plans.stamps is stamps:
                self.plans.stamps = {}
            ids = _blocks(module)
            while ids:
                bound = self.plans.forget(ids)
                ids, modules = set(), set()
                for block in bound:
                    if id(block) not in ids:
                        owner = _module_of(block)
                        modules.add(id(owner))
                        _blocks(owner, ids)
                for entry in self.entries.values():
                    if id(entry.module) in modules:
                        entry.warmed = False
            module.drop_all_references()
        self.evicted[:] = held

    def clear(self) -> None:
        """Drop every program: torn down if no caller holds it, else
        left in ``evicted`` — the plans a held program compiles after
        this go with it at the first teardown once its holder lets go —
        and to the collector by the one thaw (a result or program kept
        across the next cached simulation was parked with it)."""
        with self.lock:
            parked = self.evicted or any(
                entry.parked for entry in self.entries.values()
            )
            while self.entries:
                self._evict(self.entries.popitem(last=False)[1])
            self._tear_down()
            self.plans.clear()
        if parked:
            permanent.release()
        self.stats.programs_built = 0
        self.stats.program_hits = 0
        self.stats.programs_evicted = 0


#: The per-process cache shared by every cached simulation in this
#: process — in a pool worker it persists across chunks, which is what
#: makes signature-affine sharding pay off.
_PROCESS_CACHE = CompileCache()


def process_compile_cache() -> CompileCache:
    """This process's compile cache (one per worker, one in the parent)."""
    return _PROCESS_CACHE


def result_record(
    result: SimulationResult,
    checked: Optional[Dict] = None,
) -> Dict:
    """The canonical machine-readable record of one simulation.

    One stats format for every consumer — ``equeue-sim --stats-json``,
    the service result store's blobs, ``equeue-serve`` responses — so
    they cannot drift: a plain JSON-native dict with stable keys wrapping
    :meth:`~repro.sim.profiling.ProfilingSummary.to_dict` plus the
    result-level observables and the oracle's checked stats (``None``
    when no oracle ran).
    """
    return {
        "cycles": int(result.cycles),
        "truncated": bool(result.truncated),
        "summary": result.summary.to_dict(),
        "checked": checked,
    }


def sample_conv_inputs(dims, rng):
    """The sweep/bench convention for conv test data: small ints drawn
    from ``rng`` (one definition — the DSE evaluator, the benchmark
    workers, and the bench fixtures all draw through here)."""
    ifmap = rng.integers(-3, 4, (dims.c, dims.h, dims.w)).astype(np.int32)
    weights = rng.integers(
        -3, 4, (dims.n, dims.c, dims.fh, dims.fw)
    ).astype(np.int32)
    return ifmap, weights


def deterministic_conv_inputs(dims, seed: int):
    """:func:`sample_conv_inputs` from a per-point seeded generator."""
    return sample_conv_inputs(dims, np.random.default_rng(seed))
