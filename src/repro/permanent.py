"""Parking long-lived heaps in the collector's permanent generation.

CPython's cyclic collector re-walks every tracked object of the oldest
generation on each full collection.  A cached program — tens of
thousands of IR objects and compiled plan closures — never changes once
its first simulation has compiled its plans and lives as long as its
cache entry, so every one of those walks over it is wasted: with 62
programs cached, full collections were half of a sweep's wall clock.
``gc.freeze()`` moves everything alive into a generation the collector
never visits.

That call is process-wide, which is why the three places that need it —
:class:`repro.sim.batch.CompileCache`, the scenario program cache and
the pre-fork freeze of :class:`repro.sim.batch.SweepRunner` — share
this module.  It imports nothing from ``repro``, so the bottom layer
uses it too: the IR parser builds every module inside :func:`paused`.

* :func:`defer` / :func:`settle` split the hand-off in two.  When a
  program's first simulation returns, its caller still holds the
  result, whose engine-side object graph is cyclic; freezing then would
  strand that graph once the caller drops it.  So the simulation only
  *defers* the hand-off, and the next cached simulation *settles* it on
  its way in — by then the previous result is garbage, and
* :func:`hand_off` collects before it freezes, so cyclic garbage is
  freed rather than made permanent.
* :func:`under_construction` brackets the build of a new program: it
  collects what the previous run left, then holds automatic collection
  off while the builder allocates — every object of a program under
  construction is live, so a collection there only re-walks it — and
  parks the finished program (and whatever hand-off was still owed)
  with a bare ``gc.freeze()``, an O(1) list splice.
* :func:`paused` holds collection off over the program's first
  simulation the same way: what that run leaves behind is the next
  hand-off's to walk, once, instead of the automatic collector's many
  times.  A parse is construction too (:func:`repro.ir.parser.parse_module`):
  everything it allocates is still alive when it returns, so a
  collection during it would only re-walk the module being built.
* :func:`release` thaws the heap when a cache is cleared or dropped
  (IR is cyclic: while frozen, a dropped module that was not torn down
  — one a caller still held — is never reclaimed, nor is a result kept
  across the next cached simulation).  It thaws everything, including
  programs another cache still holds; they are ordinary old objects
  until the next hand-off parks them again.  Eviction never thaws: a
  bounded cache tears the program it drops down into trees — its plans
  forgotten, its IR's back-references cut — and reference counting
  frees them where they lie, frozen.
* :func:`frozen_for_fork` leaves the heap the way it found it, so a
  pooled sweep does not thaw programs a cache had parked.

Frozen objects are still freed by reference counting the moment their
last reference goes.  Only a *cycle* that was alive at a hand-off and
died later waits for the next :func:`release` — which is why an evicted
program is broken into trees before it is let go.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager

#: A hand-off is owed (:func:`defer`).  Process-wide like the freeze
#: itself; a lost update between threads costs one hand-off, sooner or
#: later, never correctness.
_deferred = False


def defer() -> None:
    """Something just became immutable: park it at the next safe point."""
    global _deferred
    _deferred = True


def settle() -> None:
    """A safe point (nothing of the last simulation is referenced any
    more): run the hand-off a :func:`defer` asked for, if any."""
    if _deferred:
        hand_off()


def hand_off() -> None:
    """Park everything alive now; garbage is collected, not kept."""
    global _deferred
    _deferred = False
    gc.collect()
    gc.freeze()


#: Nested/concurrent :func:`paused` windows, and whether collection was
#: enabled when the outermost opened.
_pause_lock = threading.Lock()
_pauses = 0
_was_enabled = False


class paused:
    """Hold automatic collection off; whatever way the block is left,
    the collector is as it was found once the last window closes.

    A class, not a generator: leaving the block allocates nothing once
    collection is back on, so the collection a window deferred fires in
    the caller's code after it, never inside the window's own exit."""

    __slots__ = ()

    def __enter__(self) -> None:
        global _pauses, _was_enabled
        with _pause_lock:
            if not _pauses:
                _was_enabled = gc.isenabled()
                gc.disable()
            _pauses += 1

    def __exit__(self, kind, value, traceback) -> None:
        global _pauses
        with _pause_lock:
            _pauses -= 1
            if not _pauses and _was_enabled:
                gc.enable()


@contextmanager
def under_construction():
    """Build a long-lived object graph without the collector walking it.

    The last run's leftovers are garbage by now: collect them, then
    build with collection paused and park everything alive — the new
    graph, and whatever that run's hand-off still owed — with a bare
    freeze.  The builder must leave no cyclic garbage behind (it would
    be parked); nothing is parked if it raises."""
    global _deferred
    gc.collect()
    with paused():
        yield
        _deferred = False
        gc.freeze()


def release() -> None:
    """Return every parked object to the collector's care."""
    global _deferred
    _deferred = False
    gc.unfreeze()


@contextmanager
def frozen_for_fork():
    """Fork workers from a collected, frozen heap.

    Child collections skip frozen objects, so they never touch — and
    never copy-on-write duplicate — the parent's heap, the dominant pool
    overhead for a warm parent.
    """
    parked = _deferred or gc.get_freeze_count() > 0
    hand_off()
    try:
        yield
    finally:
        if not parked:
            release()
