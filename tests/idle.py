"""Per-test wall and idle time: wall clock, and wall clock less the CPU
time the process spent meanwhile (``os.times()``, children included),
over a test's setup, call and teardown.  The terminal summary prints the
summed wall and idle, the tests that took longest and the files and
tests that idled longest.  Registered from ``conftest.py``.
"""

from __future__ import annotations

import os
import time
from collections import Counter

import pytest

TOP = 10  # rows of each ranking


def _cpu_s() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


class IdleClock:
    def __init__(self) -> None:
        self.idle: Counter = Counter()  # nodeid -> idle seconds
        self.walls: Counter = Counter()  # nodeid -> wall seconds

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        wall, cpu = time.perf_counter(), _cpu_s()
        yield
        wall = time.perf_counter() - wall
        self.walls[item.nodeid] = wall
        # Threads on two cores can spend more CPU than wall time.
        self.idle[item.nodeid] = max(0.0, wall - (_cpu_s() - cpu))

    def pytest_terminal_summary(self, terminalreporter) -> None:
        by_file: Counter = Counter()
        for nodeid, seconds in self.idle.items():
            by_file[nodeid.split("::")[0]] += seconds
        write = terminalreporter.write_line
        terminalreporter.write_sep("-", "wall and idle (wall - CPU) time per test")
        write(
            f"{len(self.idle)} tests: {sum(self.walls.values()):.1f} s wall "
            f"summed, {sum(self.idle.values()):.1f} s of it idle"
        )
        write("longest by wall:")
        for name, seconds in self.walls.most_common(TOP):
            write(f"  {seconds:7.2f} s wall  {name}")
        for title, ranking in (("file", by_file), ("test", self.idle)):
            write(f"most idle by {title}:")
            for name, seconds in ranking.most_common(TOP):
                write(f"  {seconds:7.2f} s idle  {name}")
