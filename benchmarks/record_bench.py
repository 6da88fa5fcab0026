"""The 288-point / 62-signature sweep of the §VI-E space that
``benchmarks/perf/workloads.py::sweep_slices`` cuts into the
``dse_sweep`` workload's 12-point slices.

Nothing else lives here: CI's perf gate counts calls per layer
(``tests/test_call_budget.py``) and perf claims are interleaved pairs
in ``BENCHMARK.json`` (``benchmarks/perf/run.py``).
"""


def throughput_sweep_spec():
    """The sweep-throughput workload: a natural DSE slice of the §VI-E
    space (all three dataflows over two array shapes and a block of conv
    shapes) in the many-small-points regime Fig. 12 targets.  288 DES
    points over 62 distinct structural signatures (~4.6 points per
    structure), so it exercises both sharding and the cross-simulation
    caches."""
    from repro.analysis import SweepSpec

    return SweepSpec(
        array_heights=(4, 8),
        total_pes=64,
        image_sizes=(2, 4),
        filter_sizes=(1, 2),
        channels=(1, 2, 4),
        filter_counts=(1, 2, 4, 8),
        dataflows=("WS", "IS", "OS"),
    )
