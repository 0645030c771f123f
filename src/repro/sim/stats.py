"""Statistics helpers: windowed miss traces and miss-filtering ratios.

These helpers compute the two characterisation views of Section II:

* Figure 1 plots each application by its L1/L2 and L2/L3 miss-filtering
  ratios (how many misses each level removes relative to the level above);
* Figure 2 plots per-level miss counts across execution in time windows,
  showing which levels filter effectively and when.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..memory.block import Level
from ..memory.hierarchy import CoreMemoryHierarchy
from ..trace import TraceBuffer


@dataclass
class MissFilteringRatios:
    """The Figure-1 coordinates of one application.

    ``l1_over_l2`` is the ratio of L1 misses to L2 misses (x-axis: how well L2
    filters); ``l2_over_l3`` is the ratio of L2 misses to L3 misses (y-axis:
    how well L3 filters).  Values close to 1 mean the level is ineffective.
    """

    l1_misses: int
    l2_misses: int
    l3_misses: int

    @property
    def l1_over_l2(self) -> float:
        return self.l1_misses / self.l2_misses if self.l2_misses else float("inf")

    @property
    def l2_over_l3(self) -> float:
        return self.l2_misses / self.l3_misses if self.l3_misses else float("inf")

    def classify(self, green_threshold: float = 2.0,
                 red_threshold: float = 6.0) -> str:
        """Classify into the paper's green/red/neither boxes.

        Applications whose both ratios are small (neither L2 nor L3 filters
        much) are in the green box (high expected benefit); applications where
        both levels filter strongly are outside the red box (sequential lookup
        is fine); everything else is in between ("modest").
        """
        effective_l2 = self.l1_over_l2 >= red_threshold
        effective_l3 = self.l2_over_l3 >= red_threshold
        weak_l2 = self.l1_over_l2 <= green_threshold
        weak_l3 = self.l2_over_l3 <= green_threshold
        if weak_l2 and weak_l3:
            return "high"
        if effective_l2 and effective_l3:
            return "low"
        return "modest"


def miss_filtering_ratios(hierarchy: CoreMemoryHierarchy) -> MissFilteringRatios:
    """Extract the Figure-1 coordinates from a finished run."""
    stats = hierarchy.stats
    return MissFilteringRatios(
        l1_misses=stats.l1_misses,
        l2_misses=stats.l2_misses,
        l3_misses=stats.l3_misses,
    )


@dataclass
class MissTraceWindow:
    """Per-level miss counts in one execution window (Figure 2)."""

    window_index: int
    l1_misses: int
    l2_misses: int
    l3_misses: int


class WindowedMissTracker:
    """Tracks per-window miss counts while a trace is replayed.

    Feed every access's hit level to :meth:`record`; the tracker counts,
    per fixed-size window of demand accesses, how many of them missed L1,
    missed L2 and went to memory — the series plotted in Figure 2.
    """

    def __init__(self, window_size: int = 10_000) -> None:
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        self.window_size = window_size
        self.windows: List[MissTraceWindow] = []
        self._accesses_in_window = 0
        self._l1 = 0
        self._l2 = 0
        self._l3 = 0

    def record(self, level: Level) -> None:
        self._accesses_in_window += 1
        if level is not Level.L1:
            self._l1 += 1
        if level is Level.L3 or level is Level.MEM:
            self._l2 += 1
        if level is Level.MEM:
            self._l3 += 1
        if self._accesses_in_window >= self.window_size:
            self._flush()

    def _flush(self) -> None:
        self.windows.append(MissTraceWindow(
            window_index=len(self.windows),
            l1_misses=self._l1, l2_misses=self._l2, l3_misses=self._l3))
        self._accesses_in_window = 0
        self._l1 = 0
        self._l2 = 0
        self._l3 = 0

    def finalize(self) -> List[MissTraceWindow]:
        """Flush any partial window and return all windows."""
        if self._accesses_in_window:
            self._flush()
        return list(self.windows)


def run_with_windows(hierarchy: CoreMemoryHierarchy, trace: TraceBuffer,
                     window_size: int = 10_000) -> List[MissTraceWindow]:
    """Walk a trace through ``hierarchy`` and return its windowed miss
    profile.  Which level serves an access does not depend on the level
    prediction, so the walk alone gives it; nothing is replayed."""
    tracker = WindowedMissTracker(window_size=window_size)
    for level in hierarchy.hit_levels(hierarchy.walk(trace)):
        tracker.record(level)
    return tracker.finalize()
