"""Tests for statistics helpers, classification and report formatting."""

from __future__ import annotations

import pytest

from repro.analysis import (
    classify_application,
    format_breakdown,
    format_table,
    geomean_row,
)
from repro.core.recovery import summarize_recovery
from repro.memory.block import Level, MemoryAccess
from repro.memory.hierarchy import CoreMemoryHierarchy
from repro.memory.spec import HierarchySpec
from repro.sim.stats import (
    MissFilteringRatios,
    WindowedMissTracker,
    miss_filtering_ratios,
    run_with_windows,
)
from repro.workloads import build_workload


class TestMissFilteringRatios:
    def test_ratios(self):
        ratios = MissFilteringRatios(l1_misses=1000, l2_misses=100, l3_misses=50)
        assert ratios.l1_over_l2 == pytest.approx(10.0)
        assert ratios.l2_over_l3 == pytest.approx(2.0)

    def test_zero_misses_give_infinity(self):
        ratios = MissFilteringRatios(l1_misses=10, l2_misses=0, l3_misses=0)
        assert ratios.l1_over_l2 == float("inf")

    def test_classification_boxes(self):
        green = MissFilteringRatios(1000, 900, 850)   # nothing filters
        red = MissFilteringRatios(1000, 50, 2)        # everything filters
        middle = MissFilteringRatios(1000, 300, 290)
        assert green.classify() == "high"
        assert red.classify() == "low"
        assert middle.classify() in ("modest", "high")

    def test_extraction_from_hierarchy(self):
        hierarchy = CoreMemoryHierarchy(HierarchySpec.paper_single_core())
        for i in range(500):
            hierarchy.access(MemoryAccess(address=i * 64))
        ratios = miss_filtering_ratios(hierarchy)
        assert ratios.l1_misses >= ratios.l2_misses >= ratios.l3_misses


class TestWindowedTracker:
    def test_window_counts(self):
        tracker = WindowedMissTracker(window_size=10)
        for i in range(25):
            tracker.record(Level.MEM if i % 2 else Level.L1)
        windows = tracker.finalize()
        assert len(windows) == 3
        assert windows[0].l1_misses == 5
        assert windows[-1].window_index == 2

    def test_invalid_window_size(self):
        with pytest.raises(ValueError):
            WindowedMissTracker(window_size=0)

    def test_run_with_windows_on_real_workload(self):
        hierarchy = CoreMemoryHierarchy(HierarchySpec.paper_single_core())
        trace = build_workload("gups").generate_buffer(2000, seed=0)
        windows = run_with_windows(hierarchy, trace, window_size=500)
        assert len(windows) == 4
        for window in windows:
            assert window.l1_misses >= window.l2_misses >= window.l3_misses


class TestClassification:
    def test_gups_classified_high(self):
        classification = classify_application("gups", num_accesses=4000)
        assert classification.classification == "high"
        assert classification.expected == "high"
        assert classification.matches_expectation

    def test_cache_friendly_app_not_high(self):
        classification = classify_application("641.leela", num_accesses=4000)
        assert classification.classification in ("low", "modest")


class TestRecoverySummary:
    def test_summary_fields(self):
        hierarchy = CoreMemoryHierarchy(HierarchySpec.paper_single_core())
        for i in range(200):
            hierarchy.access(MemoryAccess(address=i * 64))
        summary = summarize_recovery(hierarchy)
        assert summary.predictions == hierarchy.stats.predictions
        assert summary.recoveries == 0
        assert summary.recovery_rate == 0.0
        assert "recovery_rate" in summary.as_dict()


class TestReportFormatting:
    def test_format_table_alignment(self):
        table = format_table(["app", "speedup"],
                             [["gups", 1.086], ["stream", 1.075]],
                             title="Figure 11")
        lines = table.splitlines()
        assert lines[0] == "Figure 11"
        assert "gups" in table and "1.086" in table
        assert len(lines) == 5

    def test_format_breakdown_order(self):
        text = format_breakdown({"skip": 0.5, "sequential": 0.25},
                                order=["sequential", "skip"])
        assert text.startswith("sequential=0.250")

    def test_geomean_row(self):
        name, value = geomean_row("geomean", [1.0, 4.0])
        assert name == "geomean"
        assert value == pytest.approx(2.0)
        assert geomean_row("empty", [])[1] == 0.0
