"""Figure 3: coverage and accuracy of LLC prefetchers.

The paper measures, for eleven published prefetchers, what fraction of LLC
misses they eliminate (coverage) and what fraction of their prefetches are
useful (accuracy), concluding that even the best (DCPT) leaves half of the
misses for main memory — the opportunity level prediction targets.

This benchmark runs each prefetcher as the LLC prefetcher on a small mix of
workload classes (streaming, graph gathers, mixed reuse), computes coverage
against a no-prefetch run of the same traces, and checks the paper's headline:
no prefetcher covers more than ~60 % of LLC misses.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import format_table
from repro.prefetch import FIGURE3_PREFETCHERS, make_prefetcher
from repro.sim.config import SystemConfig
from repro.sim.system import SimulatedSystem
from repro.workloads import build_workload

from conftest import BENCH_ACCESSES, save_result

#: A small cross-section of behaviours: prefetch-friendly streaming,
#: irregular graph gathers, and mixed reuse.
WORKLOADS = ["stream", "gapbs.pr", "nas.cg"]


def _run_prefetcher_sweep():
    accesses = max(BENCH_ACCESSES, 3000)
    traces = {app: build_workload(app).generate_buffer(accesses, seed=0)
              for app in WORKLOADS}

    def llc_misses(llc_prefetcher):
        total_misses = 0
        useful = useless = 0
        for app, trace in traces.items():
            # No private prefetchers: isolate the LLC prefetcher.
            config = replace(SystemConfig.paper_single_core("baseline"),
                             prefetch_scheme="none")
            system = SimulatedSystem(config, llc_prefetcher=llc_prefetcher)
            system.hierarchy.run_buffer(trace)
            total_misses += system.hierarchy.stats.memory_accesses
        if llc_prefetcher is not None:
            useful = llc_prefetcher.stats.useful
            useless = llc_prefetcher.stats.useless
        return total_misses, useful, useless

    baseline_misses, _, _ = llc_misses(None)
    rows = {}
    for name in sorted(FIGURE3_PREFETCHERS):
        prefetcher = make_prefetcher(name, degree=2)
        misses, useful, useless = llc_misses(prefetcher)
        coverage = max(0.0, 1.0 - misses / baseline_misses) if baseline_misses else 0.0
        resolved = useful + useless
        accuracy = useful / resolved if resolved else 0.0
        rows[name] = (coverage, accuracy)
    return baseline_misses, rows


def test_figure3_prefetcher_coverage_accuracy(benchmark):
    baseline_misses, rows = benchmark.pedantic(_run_prefetcher_sweep,
                                               rounds=1, iterations=1)

    table_rows = [[name, round(cov, 3), round(acc, 3)]
                  for name, (cov, acc) in sorted(rows.items())]
    average = [sum(v[i] for v in rows.values()) / len(rows) for i in (0, 1)]
    table_rows.append(["Average", round(average[0], 3), round(average[1], 3)])
    table = format_table(["prefetcher", "coverage", "accuracy"], table_rows,
                         title="Figure 3: LLC prefetcher coverage and accuracy")
    print("\n" + table)
    save_result("fig03_prefetchers", table)

    assert baseline_misses > 0
    # The paper's central observation: even the best prefetcher leaves roughly
    # half of the LLC misses uncovered, so level prediction has headroom.
    assert all(coverage <= 0.65 for coverage, _ in rows.values())
    # At least some prefetchers provide non-trivial coverage on this mix.
    assert any(coverage > 0.05 for coverage, _ in rows.values())
    # Accuracy is a fraction.
    assert all(0.0 <= accuracy <= 1.0 for _, accuracy in rows.values())
