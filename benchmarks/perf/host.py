"""The host-speed ruler the gated times of this benchmark are scaled by.

The sandbox this benchmark was sized on has two speeds 1.5× apart (a
fixed loop takes 4.0 ms or 6.0 ms) and flips between them many times a
second; the share of time spent in the slow one drifts from 0.3 to 0.8
over minutes.  A 10 s run therefore sees one commit up to 1.4× slower
than the run before it: raw quartile spreads over ten runs were 6–41 %,
more than the largest bound the driver's contract allows (README.md,
"Why the gated times are normalised").

So a block reads the ruler at process start, after set-up and after
every timed segment, and divides its wall and CPU seconds by *one*
number, :func:`slowdown` of its readings: a gated time is "seconds on a
host where the ruler takes ``REFERENCE_PROBE_S``".  Every workload gets
the same ruler and the same ``ELASTICITY``; nothing is set per
workload.  Per-layer metrics stay raw.

The ruler is a pointer chase over ~15 MB of small objects with method
calls, dict stores, a deque and a heap, because an arithmetic loop that
lives in L1 does not see the cache contention that slows the simulator
down.  It never imports ``repro``: a change to the program must not
move the ruler.  What the ruler itself costs the block's process — the
time spent in it and the memory of its ring — is kept, so that the
block can take both out of ``setup_s`` and ``peak_rss_mb``.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import deque
from heapq import heappop, heappush

#: Steps of the ruler's loop and cells of its working set (fixed:
#: changing either redefines every normalised metric).
PROBE_STEPS = 12_000
PROBE_CELLS = 150_000
#: Loops per reading; the middle one counts (the first re-warms the
#: caches the program has just used).
PROBE_LOOPS = 3
#: What a reading is on the sizing machine when nothing else runs.  A
#: unit conversion only: it makes normalised times read as seconds.
REFERENCE_PROBE_S = 0.0047
#: By how much the program slows down when the ruler does: time grows
#: as reading ** ELASTICITY.  The ruler misses the cache on every step
#: and so feels the host's slow speed more than the program does.
#: Measured, not chosen per workload: the slope of log time on log mean
#: reading over 40 runs of each workload was 0.57-0.88 for wall, median
#: latency and CPU per op alike, median 0.73 (README.md); one constant
#: serves all five.
ELASTICITY = 0.7
#: Readings taken at each end of set-up.  A timed stretch gets a reading
#: per segment; set-up has only its two ends, and the mean of two
#: readings of a host with two speeds is itself noise.
SETUP_READINGS = 5
#: Two consecutive readings that differ by more than this share mark
#: the segment between them noisy (reported, never dropped).
NOISY_SHARE = 0.10


class _Cell:
    __slots__ = ("value", "peer")

    def __init__(self, value: int):
        self.value = value
        self.peer = None

    def bump(self, by: int) -> int:
        self.value += by
        return self.value


def _ring() -> _Cell:
    cells = [_Cell(i) for i in range(PROBE_CELLS)]
    for i, cell in enumerate(cells):
        cell.peer = cells[(i * 7919 + 13) % PROBE_CELLS]
    return cells[0]


def _loop(cell: _Cell) -> float:
    started = time.perf_counter()
    queue: deque = deque()
    heap: list = []
    table: dict = {}
    total = 0
    for step in range(PROBE_STEPS):
        cell = cell.peer  # pointer chase across the ring
        total += cell.bump(step & 7)
        queue.append(cell)
        table[step & 4095] = (cell, total)
        if step & 3 == 0:
            heappush(heap, (total & 1023, step))
        if step & 7 == 0:
            queue.popleft()
            heappop(heap)
    return time.perf_counter() - started


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Ruler:
    """The ring, every reading taken on it, and what it cost.

    Build it first thing in a fresh process: ``rss_mb`` is the growth of
    the process's peak RSS while the ring was built, which is the ring
    only while nothing else has been allocated yet.
    """

    def __init__(self):
        started = time.perf_counter()
        rss_before = _max_rss_mb()
        self._start = _ring()
        #: Peak RSS the ring added to this process.
        self.rss_mb = _max_rss_mb() - rss_before
        self.readings: list = []
        #: Wall seconds spent building the ring and reading it.
        self.spent_s = time.perf_counter() - started

    def read(self, times: int = 1) -> None:
        """Take ``times`` readings, each the median of ``PROBE_LOOPS``
        loops in wall seconds.  The collector is held off meanwhile:
        the loop allocates, and a collection it triggered would charge
        the *program's* heap size to the ruler."""
        started = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                loops = sorted(_loop(self._start) for _ in range(PROBE_LOOPS))
                self.readings.append(loops[PROBE_LOOPS // 2])
        finally:
            if collecting:
                gc.enable()
        self.spent_s += time.perf_counter() - started


def slowdown(readings) -> float:
    """How much slower than on the reference host the program ran over
    the stretch covered by ``readings`` (1.0 = reference speed).  The
    mean reading, not the median: the host has two speeds, and the mean
    follows the share of time spent in the slow one where the median
    jumps between them."""
    return (statistics.fmean(readings) / REFERENCE_PROBE_S) ** ELASTICITY


def noisy_share(readings) -> float:
    """Share of consecutive reading pairs further apart than
    ``NOISY_SHARE``."""
    pairs = list(zip(readings, readings[1:]))
    noisy = sum(abs(a - b) / min(a, b) > NOISY_SHARE for a, b in pairs)
    return noisy / len(pairs)
