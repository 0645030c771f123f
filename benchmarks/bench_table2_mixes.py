"""Table II: the multi-program and multi-threaded workload mixes.

Regenerates the mix composition table.  The placement the multi-core
evaluation relies on (disjoint address spaces for multi-program mixes, shared
data for multi-threaded runs) is checked in ``tests/test_workloads.py``.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.workloads import MIXES

from conftest import save_result


def _build_table_rows():
    rows = []
    for name, mix in MIXES.items():
        rows.append([name, ", ".join(mix.applications),
                     "multi-threaded" if mix.multithreaded else "multi-program"])
    return rows


def test_table2_workload_mixes(benchmark):
    rows = benchmark.pedantic(_build_table_rows, rounds=1, iterations=1)

    table = format_table(["mix", "applications", "kind"], rows,
                         title="Table II: multi-program and multi-threaded mixes")
    print("\n" + table)
    save_result("table2_mixes", table)

    # Composition matches the paper.
    assert MIXES["mix1"].applications == ("gapbs.bfs", "619.lbm", "nas.lu",
                                          "bmt")
    assert MIXES["mix4"].applications == ("627.cam", "nas.cg", "621.wrf",
                                          "nas.bt")
    assert MIXES["MT2"].applications == ("gapbs.pr",) * 4
