"""Figure 2: per-level miss counts across execution for six applications.

The paper shows miss traces for hpcg (both levels filter), gapbs.tc (L2
ineffective), nas.ua (L3 ineffective), gups (nothing filters), 619.lbm
(streaming: misses at every level) and 602.gcc (phase-dependent behaviour).
This benchmark regenerates the windowed per-level miss series on the baseline
system and checks each application's characteristic signature.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.sim.config import SystemConfig
from repro.sim.stats import run_with_windows
from repro.sim.system import SimulatedSystem
from repro.workloads import build_workload

from conftest import BENCH_ACCESSES, save_result

FIGURE2_APPS = ["hpcg", "gapbs.tc", "nas.ua", "gups", "619.lbm", "602.gcc"]


def _run_traces():
    windows_per_app = {}
    # Long enough that looping workloads (hpcg's grid sweep in particular)
    # revisit their working set, so LLC filtering becomes visible the way it
    # is in the paper's full-length runs.
    accesses = max(BENCH_ACCESSES * 2, 30_000)
    for app in FIGURE2_APPS:
        system = SimulatedSystem(SystemConfig.paper_single_core("baseline"))
        trace = build_workload(app).generate_buffer(accesses, seed=0)
        windows_per_app[app] = run_with_windows(system.hierarchy, trace,
                                                window_size=accesses // 8)
    return windows_per_app


def test_figure2_miss_traces(benchmark):
    windows_per_app = benchmark.pedantic(_run_traces, rounds=1, iterations=1)

    rows = []
    totals = {}
    for app, windows in windows_per_app.items():
        l1 = sum(w.l1_misses for w in windows)
        l2 = sum(w.l2_misses for w in windows)
        l3 = sum(w.l3_misses for w in windows)
        totals[app] = (l1, l2, l3)
        for window in windows:
            rows.append([app, window.window_index, window.l1_misses,
                         window.l2_misses, window.l3_misses])
    table = format_table(
        ["application", "window", "L1 misses", "L2 misses", "L3 misses"],
        rows, title="Figure 2: windowed per-level miss counts")
    print("\n" + table)
    save_result("fig02_miss_traces", table)

    # hpcg: both L2 and L3 filter a substantial fraction of misses.
    l1, l2, l3 = totals["hpcg"]
    assert l2 < 0.8 * l1
    assert l3 < l2

    # gapbs.tc: L2 is ineffective (L2 misses close to L1 misses).
    l1, l2, l3 = totals["gapbs.tc"]
    assert l2 > 0.6 * l1

    # gups: nothing filters; almost every miss reaches memory.
    l1, l2, l3 = totals["gups"]
    assert l3 > 0.85 * l1

    # nas.ua: the LLC adds little over L2 (misses at L3 close to L2).
    l1, l2, l3 = totals["nas.ua"]
    assert l3 > 0.5 * l2

    # Every application: windowed counts are monotone across levels.
    for app, windows in windows_per_app.items():
        for window in windows:
            assert window.l1_misses >= window.l2_misses >= window.l3_misses
