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
this module:

* :func:`defer` / :func:`settle` split the hand-off in two.  When a
  program's first simulation returns, its caller still holds the
  result, whose engine-side object graph is cyclic; freezing then would
  strand that graph once the caller drops it.  So the simulation only
  *defers* the hand-off, and the next cached simulation *settles* it on
  its way in — by then the previous result is garbage, and
* :func:`hand_off` collects before it freezes, so cyclic garbage is
  freed rather than made permanent.
* :func:`release` thaws the heap when a cache drops parked programs (IR
  is cyclic: while frozen, dropped modules are never reclaimed).  It
  thaws everything, including programs another cache still holds; they
  are ordinary old objects until the next hand-off parks them again.
* :func:`frozen_for_fork` leaves the heap the way it found it, so a
  pooled sweep does not thaw programs a cache had parked.

Frozen objects are still freed by reference counting the moment their
last reference goes.  Only a *cycle* that was alive at a hand-off and
died later waits for the next :func:`release`.
"""

from __future__ import annotations

import gc
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
