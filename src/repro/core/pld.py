"""Popular Levels Detector (PLD).

Section III.D of the paper.  When the LocMap metadata cache misses, waiting
for the LocMap block to arrive from memory would take longer than the lookup
the prediction is meant to accelerate, so a tiny history-based predictor
supplies the level instead.

The PLD keeps one 32-bit counter per predictable level (L2, L3, MEM).  On a
hit to a level, that level's counter is incremented and the others are
decremented by one (never below zero), which makes the counters track the
*recently* popular levels and prevents saturation.  When a prediction is needed the
counters are sorted:

* the top level is always a target;
* if its counter alone does not reach a confidence threshold, the second level
  is added (two-way parallel lookup);
* if the top two together still do not reach the threshold, all three levels
  are predicted (three-way).

Single-way predictions are the common case; multi-way predictions trade a
little lookup overhead for accuracy when the counters are not strongly biased
toward one level (Section V.A, Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..memory.block import Level


#: Width of each counter (32 in the paper).  It matters only for the
#: storage report: the update rule prevents saturation in practice.
COUNTER_BITS = 32
_MAX_COUNTER = (1 << COUNTER_BITS) - 1


@dataclass
class PLDConfig:
    """Tuning knob of the Popular Levels Detector.

    Attributes:
        confidence_threshold: Fraction of the total counter mass the selected
            level(s) must reach before the prediction stops adding levels.
    """

    confidence_threshold: float = 0.6


#: Shared result tuples for every level subset predict() can return,
#: already in hierarchy (closest-to-furthest) order.
_L2_ONLY = (Level.L2,)
_L3_ONLY = (Level.L3,)
_MEM_ONLY = (Level.MEM,)
_L2_L3 = (Level.L2, Level.L3)
_L2_MEM = (Level.L2, Level.MEM)
_L3_MEM = (Level.L3, Level.MEM)
_ALL = (Level.L2, Level.L3, Level.MEM)


class PopularLevelsDetector:
    """Counter-based popular-level predictor used on metadata cache misses.

    The three counters live as plain integer attributes (not a dict):
    :meth:`record_hit` runs on every L1 miss of the LP system, and the dict
    iteration showed up in simulation profiles.
    """

    __slots__ = ("config", "_l2", "_l3", "_mem")

    def __init__(self, config: PLDConfig | None = None) -> None:
        self.config = config or PLDConfig()
        self._l2 = 0
        self._l3 = 0
        self._mem = 0

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def record_hit(self, level: Level) -> None:
        """Update the counters after a demand access resolved at ``level``."""
        if level is Level.L1:
            return
        if level is Level.L2:
            self._l2 = min(self._l2 + 1, _MAX_COUNTER)
            self._l3 = l3 if (l3 := self._l3 - 1) > 0 else 0
            self._mem = mem if (mem := self._mem - 1) > 0 else 0
        elif level is Level.L3:
            self._l3 = min(self._l3 + 1, _MAX_COUNTER)
            self._l2 = l2 if (l2 := self._l2 - 1) > 0 else 0
            self._mem = mem if (mem := self._mem - 1) > 0 else 0
        elif level is Level.MEM:
            self._mem = min(self._mem + 1, _MAX_COUNTER)
            self._l2 = l2 if (l2 := self._l2 - 1) > 0 else 0
            self._l3 = l3 if (l3 := self._l3 - 1) > 0 else 0
        else:  # pragma: no cover - Level has no other members
            raise ValueError(f"PLD does not track level {level}")

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self) -> Tuple[Level, ...]:
        """Return the predicted level(s), ordered closest-to-furthest.

        With no history at all (all counters zero) the detector falls back to
        the conservative sequential choice, L2.
        """
        l2, l3, mem = self._l2, self._l3, self._mem
        total = l2 + l3 + mem
        if total == 0:
            return _L2_ONLY

        # Rank descending by count, ties broken toward the closer level
        # (plain tuple comparison, no lambda).
        ranked = sorted(((-l2, 2, _L2_ONLY), (-l3, 3, _L3_ONLY),
                         (-mem, 4, _MEM_ONLY)))
        threshold = self.config.confidence_threshold * total

        mask = 0
        accumulated = 0
        for negated, order, _ in ranked:
            mask |= 1 << order
            accumulated -= negated
            if accumulated >= threshold:
                break
        if mask == 1 << ranked[0][1]:
            return ranked[0][2]
        # Report targets in hierarchy order so the hierarchy knows which
        # levels are being probed in parallel.
        if mask == 0b01100:
            return _L2_L3
        if mask == 0b10100:
            return _L2_MEM
        if mask == 0b11000:
            return _L3_MEM
        return _ALL

    # ------------------------------------------------------------------
    # Introspection / reporting
    # ------------------------------------------------------------------
    def counters(self) -> Dict[Level, int]:
        """A copy of the current counter values."""
        return {Level.L2: self._l2, Level.L3: self._l3, Level.MEM: self._mem}

    def storage_bits(self) -> int:
        """Three counters of :data:`COUNTER_BITS` bits each (96 bits)."""
        return COUNTER_BITS * 3

    def reset(self) -> None:
        self._l2 = 0
        self._l3 = 0
        self._mem = 0
