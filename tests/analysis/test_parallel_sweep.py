"""Parallel-vs-serial sweep determinism and cross-simulation caching
(the §VI-E batch-sweep subsystem end-to-end)."""

import pytest

from repro.analysis import SweepSpec, run_sweep
from repro.analysis.dse import clear_sweep_caches
from repro.sim.batch import process_compile_cache, structural_signature


def small_des_spec() -> SweepSpec:
    """48 cheap DES points on 8-PE arrays, with repeated structures."""
    return SweepSpec(
        array_heights=(2, 4),
        total_pes=8,
        image_sizes=(3,),
        filter_sizes=(1, 2),
        channels=(1, 2),
        filter_counts=(1, 2),
    )


def fingerprint(points):
    """Everything timing-semantic a DSE point records."""
    return [
        (
            p.config,
            p.cycles,
            p.loop_iterations,
            p.peak_write_bw_x_portion,
            p.simulated,
        )
        for p in points
    ]


@pytest.fixture(autouse=True)
def _cold_caches():
    clear_sweep_caches()
    yield
    clear_sweep_caches()


class TestParallelDeterminism:
    def test_jobs4_matches_serial_reference(self):
        """The ISSUE's determinism contract: run_sweep(jobs=4) produces
        DSEPoints with identical cycles, loop_iterations, and bandwidth
        stats to the jobs=1 reference loop."""
        spec = small_des_spec()
        serial = run_sweep(spec, use_des=True, jobs=1)
        assert len(serial) == 48
        clear_sweep_caches()
        parallel = run_sweep(spec, use_des=True, jobs=4)
        assert fingerprint(parallel) == fingerprint(serial)
        for point in parallel:
            assert point.simulated
            assert point.cycles == point.config.expected_cycles

    def test_parallel_analytical_sweep_matches_serial(self):
        spec = small_des_spec()
        serial = run_sweep(spec, use_des=False, jobs=1)
        parallel = run_sweep(spec, use_des=False, jobs=3)
        assert fingerprint(parallel) == fingerprint(serial)

    def test_jobs_none_and_zero_use_default(self):
        spec = small_des_spec()
        reference = run_sweep(spec, use_des=True, jobs=1)
        points = run_sweep(spec, use_des=True, jobs=None)
        assert fingerprint(points) == fingerprint(reference)
        clear_sweep_caches()
        points = run_sweep(spec, use_des=True, jobs=0)
        assert fingerprint(points) == fingerprint(reference)


class TestCrossSimulationCaching:
    def test_compile_cache_hits_are_identical_to_cold(self):
        """The batch path (compile cache + structural result reuse) is
        bit-identical to the cold reference loop on a sub-space with
        repeated structures."""
        spec = small_des_spec()
        reference = run_sweep(
            spec,
            use_des=True,
            jobs=1,
            compile_cache=False,
            reuse_results=False,
        )
        clear_sweep_caches()
        cached = run_sweep(
            spec, use_des=True, jobs=1, compile_cache=True, reuse_results=True
        )
        assert fingerprint(cached) == fingerprint(reference)

    def test_compile_cache_is_hit_for_repeated_structures(self):
        spec = small_des_spec()
        signatures = {
            structural_signature(cfg) for cfg in spec.points()
        }
        assert len(signatures) < spec.count()  # the space repeats structures
        run_sweep(spec, use_des=True, jobs=1, compile_cache=True,
                  reuse_results=False)
        stats = process_compile_cache().stats
        assert stats.programs_built == len(signatures)
        assert stats.program_hits == spec.count() - len(signatures)

    def test_result_memo_replicates_per_signature(self):
        """One measurement per structure, kept on its cached program;
        every other point is a compile-cache hit that replicates it."""
        spec = small_des_spec()
        run_sweep(spec, use_des=True, jobs=1, compile_cache=True,
                  reuse_results=True)
        signatures = {structural_signature(cfg) for cfg in spec.points()}
        entries = process_compile_cache().entries.values()
        assert [len(entry.measured) for entry in entries] == [1] * len(signatures)
        stats = process_compile_cache().stats
        assert stats.programs_built == len(signatures)
        assert stats.program_hits == spec.count() - len(signatures)

    def test_result_reuse_implies_the_compile_cache(self):
        """The memo lives on the cached programs, so reusing results
        goes through the cache even when the caller turns it off — and
        stays bit-identical to the cold reference loop."""
        spec = small_des_spec()
        reference = run_sweep(spec, use_des=True, jobs=1)
        assert not process_compile_cache().entries
        reused = run_sweep(
            spec, use_des=True, jobs=1, compile_cache=False, reuse_results=True
        )
        assert fingerprint(reused) == fingerprint(reference)
        signatures = {structural_signature(cfg) for cfg in spec.points()}
        assert len(process_compile_cache().entries) == len(signatures)

    def test_reference_loop_stays_cold(self):
        """jobs=1 defaults preserve the pre-batch behaviour exactly: no
        process-wide cache is touched, so no result is memoized."""
        spec = small_des_spec()
        run_sweep(spec, use_des=True, jobs=1)
        assert not process_compile_cache().entries
