"""The process's program cache, its plans and the DSE results memoized
on its programs, as one state machine.

Hypothesis drives :func:`~repro.sim.batch.process_compile_cache`, its
bound patched to two programs, over six small systolic structures (two
structural twins of each): lookups that hold a program or not,
simulations of held programs, letting go, DSE points through the sweep
worker with result reuse, the one teardown
(:func:`~repro.analysis.dse.clear_sweep_caches`), and a program held
across that teardown, simulated and let go.  After every step:

* the cache holds at most its bound;
* every DSE result still alive (the test keeps weak references to what
  the worker returned, so a result lives only where it is memoized)
  sits on a program the cache or the test holds — at most that many
  programs times the seeds drawn;
* once every program let go has met a teardown (a miss, or a clear),
  the cache's ``evicted`` holds only held programs and its plan cache
  answers for no block of any other program;

every simulation and every DSE point equals a cold build-and-simulate
of its config, and at the end a thaw plus a collection strands nothing
(the check ``test_permanent.py::TestNothingLeaks`` makes).
"""

from __future__ import annotations

import gc
import hashlib
import weakref
from unittest import mock

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import permanent
from repro.analysis import SweepSpec
from repro.analysis import dse
from repro.analysis.dse import clear_sweep_caches
from repro.generators.systolic import SystolicProgram, build_systolic_program
from repro.sim import batch, simulate
from repro.sim.batch import (
    deterministic_conv_inputs,
    process_compile_cache,
    structural_signature,
)

BOUND = 2


def _structures():
    """Two configs of one structure, for the first such structure of
    each dataflow and array height in a small sweep space."""
    spec = SweepSpec(
        array_heights=(2, 4),
        total_pes=8,
        image_sizes=(3,),
        filter_sizes=(1, 2),
        channels=(1, 2),
        filter_counts=(1, 2),
    )
    twins = {}
    for cfg in spec.points():
        twins.setdefault(structural_signature(cfg), []).append(cfg)
    chosen = {}
    for signature, cfgs in twins.items():
        if len(cfgs) > 1:
            chosen.setdefault(signature[:2], cfgs[:2])
    return list(chosen.values())


STRUCTURES = _structures()
SEEDS = st.integers(0, 1)
CONFIGS = st.tuples(
    st.integers(0, len(STRUCTURES) - 1), st.integers(0, 1)
).map(lambda at: STRUCTURES[at[0]][at[1]])


def _observed(result):
    """Cycles, a digest of every buffer, and the ofmap write bandwidth
    a DSE point records."""
    digest = hashlib.sha256()
    for name, buffer in sorted(result.buffers.items()):
        digest.update(name.encode())
        digest.update(buffer.array.tobytes())
    ofmap = result.summary.memory_named("ofmap_mem")
    return result.cycles, digest.hexdigest(), ofmap.avg_write_bandwidth


_COLD = {}


def _cold(cfg, seed):
    """:func:`_observed` of a cold build-and-simulate (memoized: the
    reference is a pure function of the config and the seed)."""
    if (cfg, seed) not in _COLD:
        program = build_systolic_program(cfg)
        inputs = program.prepare_inputs(*deterministic_conv_inputs(cfg.dims, seed))
        _COLD[cfg, seed] = _observed(simulate(program.module, inputs=inputs))
    return _COLD[cfg, seed]


def _table_keys(cache):
    """The block ``id``s the plan cache answers for: plans, sites and
    access memo cells."""
    keys = set()
    for plans, _, sites, memos in cache.plans._tables.values():
        keys.update(plans, sites, (id(memo[2]) for memo in memos))
    return keys


def _stranded_after_thaw() -> int:
    permanent.settle()
    gc.collect()
    gc.unfreeze()
    return gc.collect()


class CacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self._bound = mock.patch.object(batch, "PROGRAM_CACHE_ENTRIES", BOUND)
        self._bound.start()
        clear_sweep_caches()
        self.cache = process_compile_cache()
        self.held = []  # (cfg, CachedProgram)
        self.points = []  # weak references to the points the worker returned
        self.seeds = set()
        # No program was let go since the last teardown.
        self.settled = True

    def teardown(self):
        self.held.clear()
        try:
            stranded = _stranded_after_thaw()
        finally:
            clear_sweep_caches()
            self._bound.stop()
        assert stranded == 0

    def _counting_misses(self, lookup):
        """Run ``lookup``; a miss tears down what was let go."""
        built = self.cache.stats.programs_built
        value = lookup()
        if self.cache.stats.programs_built > built:
            self.settled = True
        return value

    def _simulate(self, cfg, seed, entry):
        ifmap, weights = deterministic_conv_inputs(cfg.dims, seed)
        inputs = SystolicProgram(entry.module, cfg).prepare_inputs(ifmap, weights)
        assert _observed(entry.simulate(inputs)) == _cold(cfg, seed), cfg

    @rule(cfg=CONFIGS, hold=st.booleans())
    def look_up(self, cfg, hold):
        entry = self._counting_misses(lambda: dse._cached_program(cfg))
        if hold:
            self.held.append((cfg, entry))

    @precondition(lambda self: self.held)
    @rule(data=st.data(), seed=SEEDS)
    def simulate_a_held_program(self, data, seed):
        cfg, entry = data.draw(st.sampled_from(self.held))
        self._simulate(cfg, seed, entry)

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def let_go(self, data):
        del self.held[data.draw(st.integers(0, len(self.held) - 1))]
        self.settled = False

    @rule(cfg=CONFIGS, seed=SEEDS, compile_cache=st.booleans())
    def dse_point(self, cfg, seed, compile_cache):
        point = self._counting_misses(
            lambda: dse._sweep_worker((cfg, True, seed, compile_cache, True))
        )
        self.seeds.add(seed)
        cycles, _, bandwidth = _cold(cfg, seed)
        assert point.config == cfg and point.simulated
        assert point.loop_iterations == cfg.loop_iterations
        assert (point.cycles, point.peak_write_bw_x_portion) == (cycles, bandwidth)
        self.points.append(weakref.ref(point))

    @rule()
    def clear(self):
        clear_sweep_caches()
        self.settled = True

    @rule(cfg=CONFIGS, seed=SEEDS)
    def hold_across_a_clear(self, cfg, seed):
        entry = self._counting_misses(lambda: dse._cached_program(cfg))
        clear_sweep_caches()
        self._simulate(cfg, seed, entry)
        self.settled = False

    @invariant()
    def the_cache_holds_its_bound(self):
        assert len(self.cache.entries) <= BOUND

    @invariant()
    def every_memoized_result_sits_on_a_live_program(self):
        live = {id(entry): entry for entry in self.cache.entries.values()}
        live.update((id(entry), entry) for _, entry in self.held)
        memoized = {
            id(point) for entry in live.values() for point in entry.measured.values()
        }
        self.points = [ref for ref in self.points if ref() is not None]
        assert {id(ref()) for ref in self.points} <= memoized
        assert len(self.points) <= len(live) * len(self.seeds or {0})
        assert len(live) <= BOUND + len(self.held)

    @invariant()
    def what_was_let_go_is_torn_down(self):
        if not self.settled:
            return
        assert all(record[0]() is not None for record in self.cache.evicted)
        live = [entry.module for entry in self.cache.entries.values()]
        live += [entry.module for _, entry in self.held]
        assert _table_keys(self.cache) <= set().union(*map(batch._blocks, live))


def _run(examples: int, steps: int) -> None:
    run_state_machine_as_test(
        CacheMachine,
        settings=settings(
            max_examples=examples,
            stateful_step_count=steps,
            derandomize=True,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )


def test_the_cache_holds_its_bounds():
    _run(examples=25, steps=20)


@pytest.mark.slow
def test_the_cache_holds_its_bounds_deeply():
    _run(examples=200, steps=50)
