"""Figure 1: L1/L2 vs L2/L3 miss-filtering scatter and box classification.

The paper plots every application by how well L2 filters L1 misses (x-axis)
and how well L3 filters L2 misses (y-axis), then classifies applications into
a green box (both levels ineffective: high expected benefit from level
prediction), a red box (modest benefit) and the remainder (sequential lookup
already works).  This benchmark regenerates those coordinates on the baseline
system for every registered application and checks that the paper's green-box
applications are reproduced as such.
"""

from __future__ import annotations

from repro.analysis import classify_applications, format_table
from repro.workloads import APPLICATIONS, high_benefit_applications

from conftest import BENCH_ACCESSES, save_result


def _classify_all():
    return classify_applications(sorted(APPLICATIONS),
                                 num_accesses=max(BENCH_ACCESSES, 3000))


def test_figure1_miss_filtering_classification(benchmark):
    classifications = benchmark.pedantic(_classify_all, rounds=1, iterations=1)

    rows = []
    for item in classifications:
        rows.append([
            item.application,
            round(item.ratios.l1_over_l2, 2)
            if item.ratios.l1_over_l2 != float("inf") else "inf",
            round(item.ratios.l2_over_l3, 2)
            if item.ratios.l2_over_l3 != float("inf") else "inf",
            item.classification,
            item.expected,
        ])
    table = format_table(
        ["application", "L1/L2 misses", "L2/L3 misses", "measured", "paper"],
        rows, title="Figure 1: miss-filtering effectiveness per application")
    print("\n" + table)
    save_result("fig01_filtering", table)

    by_name = {item.application: item for item in classifications}

    # Green-box anchors of the paper must land in (or near) the green box.
    for app in ("gups", "gapbs.pr", "gapbs.tc", "nas.is"):
        assert by_name[app].classification == "high", app

    # Cache-friendly applications must not be classified as high benefit.
    for app in ("641.leela", "648.exchange2"):
        assert by_name[app].classification in ("low", "modest"), app

    # Most measured classifications agree with the paper's expectation.  The
    # red-box boundary is qualitative and, at the default benchmark volume,
    # cold (first-touch) misses blur it for small-footprint applications, so
    # the bar is a clear majority rather than near-total agreement.
    matches = sum(1 for item in classifications if item.matches_expectation)
    assert matches >= int(0.6 * len(classifications))
