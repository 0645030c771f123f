"""Level-predictor interfaces and shared prediction types.

Every predictor evaluated by the paper (the proposed LocMap+PLD level
predictor, the TAGE-based miss predictors extended to level prediction, the
D2D precise scheme and the Ideal oracle) implements the
:class:`LevelPredictor` interface defined here.  The memory hierarchy is
written against this interface, so swapping predictors is a one-line change in
the system configuration — exactly how the paper's comparison experiments are
structured.  D2D and Ideal are *oracles* (:attr:`LevelPredictor.oracle`): the
hierarchy hands them the level each L1 miss found its block at instead of
asking :meth:`LevelPredictor.predict`.

The module also defines :class:`PredictionOutcome`, the four-way
classification used in Figure 7 (sequential / skip / lost opportunity /
harmful), and :class:`PredictorStats` which accumulates the breakdown.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..memory.block import Level

#: Levels of a degenerate (sequential) prediction, shared on the hot path.
_SEQUENTIAL_LEVELS = (Level.L2,)


class PredictionOutcome(enum.Enum):
    """Classification of one level prediction against the actual location.

    Mirrors Section V.A of the paper:

    * ``SEQUENTIAL`` — correctly predicted sequential: the predictor targeted
      L2 (the next level anyway) and the block was indeed in L2.
    * ``SKIP`` — correctly predicted skip: at least one level was bypassed and
      no recovery was required.
    * ``LOST_OPPORTUNITY`` — wrongly predicted sequential: the predictor
      targeted a level closer than the block's actual location, so lookups
      that could have been avoided were performed (safe, but no gain).
    * ``HARMFUL`` — wrongly predicted skip: a level holding the data was
      bypassed and the directory had to re-issue the request (recovery).
    """

    SEQUENTIAL = "sequential"
    SKIP = "skip"
    LOST_OPPORTUNITY = "lost_opportunity"
    HARMFUL = "harmful"

    # Members are singletons, so the identity hash is exact and runs in C;
    # Enum's own __hash__ is a Python-level call on every
    # LevelPredictor.train.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Prediction:
    """The set of levels a predictor asks the hierarchy to look up.

    Attributes:
        levels: Predicted lookup targets, ordered from closest to furthest.
            An empty tuple means "no prediction, fall back to sequential
            lookup" (the hierarchy then behaves exactly like the baseline).
        used_pld: True when the Popular Levels Detector produced the
            prediction (i.e. the LocMap metadata cache missed).
        metadata_hit: True when the LocMap metadata cache supplied the
            location.
        source: Free-form tag identifying which internal structure produced
            the prediction (useful for debugging and for the TAGE baseline's
            table-provider statistics).
    """

    levels: Tuple[Level, ...]
    used_pld: bool = False
    metadata_hit: bool = False
    source: str = ""

    @property
    def is_sequential(self) -> bool:
        """True when the prediction degenerates to the sequential baseline."""
        return not self.levels or self.levels[0] is Level.L2

    @property
    def is_multi_way(self) -> bool:
        return len(self.levels) > 1

    @property
    def nearest(self) -> Optional[Level]:
        return self.levels[0] if self.levels else None

    def targets(self, level: Level) -> bool:
        return level in self.levels

    @staticmethod
    def sequential() -> "Prediction":
        """A prediction equivalent to the baseline level-by-level lookup.

        Returns a shared immutable instance: the baseline consults it on
        every L1 miss and the object never varies.
        """
        return _SEQUENTIAL_PREDICTION


#: Shared frozen instance returned by :meth:`Prediction.sequential`.
_SEQUENTIAL_PREDICTION = Prediction(levels=(Level.L2,), source="sequential")


def classify_prediction(prediction: Prediction, actual: Level) -> PredictionOutcome:
    """Classify a prediction against the level where the block was found.

    ``actual`` is the level at which the data was actually found after the L1
    miss (L2, L3, or MEM; blocks supplied by another core's private cache are
    classified as L3 since the directory, collocated with the LLC tags,
    services them).
    """
    if actual is Level.L1:
        raise ValueError("level prediction is only consulted on L1 misses")
    levels = prediction.levels or (Level.L2,)
    skipped_l2 = Level.L2 not in levels

    if actual is Level.L2:
        if skipped_l2:
            return PredictionOutcome.HARMFUL
        return PredictionOutcome.SEQUENTIAL

    # Block is in L3 or memory.
    if skipped_l2:
        return PredictionOutcome.SKIP
    return PredictionOutcome.LOST_OPPORTUNITY


@dataclass
class PredictorStats:
    """Accuracy bookkeeping shared by all predictors, updated by
    :meth:`LevelPredictor.train`.

    The counters map directly onto Figures 7, 8, 9 and 13 of the paper.
    """

    predictions: int = 0
    outcomes: Dict[PredictionOutcome, int] = field(
        default_factory=lambda: {outcome: 0 for outcome in PredictionOutcome}
    )
    multi_way_predictions: int = 0
    pld_predictions: int = 0
    pld_mispredictions: int = 0
    metadata_hits: int = 0
    metadata_misses: int = 0
    level_histogram: Dict[Tuple[Level, ...], int] = field(default_factory=dict)
    updates: int = 0

    # ------------------------------------------------------------------
    # Derived ratios (Figure 7 / 8 style)
    # ------------------------------------------------------------------
    def fraction(self, outcome: PredictionOutcome) -> float:
        if not self.predictions:
            return 0.0
        return self.outcomes[outcome] / self.predictions

    @property
    def accuracy(self) -> float:
        """Fraction of predictions that did not require recovery."""
        if not self.predictions:
            return 1.0
        harmful = self.outcomes[PredictionOutcome.HARMFUL]
        return 1.0 - harmful / self.predictions

    @property
    def metadata_miss_ratio(self) -> float:
        total = self.metadata_hits + self.metadata_misses
        return self.metadata_misses / total if total else 0.0

    @property
    def pld_misprediction_ratio(self) -> float:
        if not self.pld_predictions:
            return 0.0
        return self.pld_mispredictions / self.pld_predictions

    def breakdown(self) -> Dict[str, float]:
        """Return the Figure-7 breakdown as fractions summing to one."""
        return {outcome.value: self.fraction(outcome) for outcome in
                PredictionOutcome}

    def reset(self) -> None:
        self.predictions = 0
        self.outcomes = {outcome: 0 for outcome in PredictionOutcome}
        self.multi_way_predictions = 0
        self.pld_predictions = 0
        self.pld_mispredictions = 0
        self.metadata_hits = 0
        self.metadata_misses = 0
        self.level_histogram = {}
        self.updates = 0


class LevelPredictor(ABC):
    """Interface implemented by every level predictor.

    The hierarchy queries :meth:`predict` on every L1 miss, feeds the actual
    outcome back through :meth:`train`, and notifies the predictor of cache
    events (fills, dirty evictions, prefetch fills) through :meth:`on_fill`
    and :meth:`on_eviction` so location metadata can be maintained.
    """

    #: Extra cycles the predictor adds to the L1 miss path.
    prediction_latency: int = 1
    #: True for a predictor that knows every block's level (D2D, Ideal):
    #: the replay then predicts the level the walk found the block at and
    #: never calls :meth:`predict`.
    oracle: bool = False
    #: True for a prediction that costs nothing (Ideal): the replay then
    #: charges neither :attr:`prediction_latency` nor predictor energy.
    free: bool = False

    def __init__(self) -> None:
        self.stats = PredictorStats()

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    @abstractmethod
    def predict(self, block_addr: int, pc: int = 0) -> Prediction:
        """Predict the level(s) holding ``block_addr`` on an L1 miss."""

    def train(self, block_addr: int, pc: int, prediction: Prediction,
              actual: Level) -> PredictionOutcome:
        """Record the actual location and return the outcome classification.

        Predictors that learn from demand outcomes extend this method.
        """
        # classify_prediction and the statistics update, inlined: this runs
        # once per L1 miss.
        if actual is Level.L1:
            raise ValueError("level prediction is only consulted on L1 misses")
        levels = prediction.levels
        if Level.L2 in (levels or _SEQUENTIAL_LEVELS):
            outcome = (PredictionOutcome.SEQUENTIAL if actual is Level.L2
                       else PredictionOutcome.LOST_OPPORTUNITY)
        else:
            outcome = (PredictionOutcome.HARMFUL if actual is Level.L2
                       else PredictionOutcome.SKIP)
        stats = self.stats
        stats.predictions += 1
        stats.outcomes[outcome] += 1
        if len(levels) > 1:
            stats.multi_way_predictions += 1
        used_pld = prediction.used_pld
        if used_pld:
            stats.pld_predictions += 1
            if actual not in levels:
                stats.pld_mispredictions += 1
        if prediction.metadata_hit:
            stats.metadata_hits += 1
        elif used_pld:
            stats.metadata_misses += 1
        histogram = stats.level_histogram
        histogram[levels] = histogram.get(levels, 0) + 1
        return outcome

    # ------------------------------------------------------------------
    # Cache-event notifications
    # ------------------------------------------------------------------
    def on_fill(self, block_addr: int, level: Level,
                from_prefetch: bool = False) -> None:
        """A block was filled into ``level``."""

    def on_eviction(self, block_addr: int, level: Level, dirty: bool) -> None:
        """A block was evicted from ``level`` (dirty evictions matter most)."""

    def on_hit(self, level: Level) -> None:
        """A demand access hit at ``level`` (drives the PLD counters)."""

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return type(self).__name__

    def storage_bits(self) -> int:
        """Total predictor storage in bits (for the overhead analysis)."""
        return 0

    def energy_per_prediction_nj(self) -> float:
        """Access energy charged per prediction, in nanojoules."""
        return 0.0

    def reset_statistics(self) -> None:
        self.stats.reset()


class SequentialPredictor(LevelPredictor):
    """Baseline behaviour: always look up the next level (no bypassing).

    Used to model the baseline system within the same code path, so baseline
    and level-predicted runs share every other piece of machinery.
    """

    prediction_latency = 0

    def predict(self, block_addr: int, pc: int = 0) -> Prediction:
        return Prediction.sequential()

    def storage_bits(self) -> int:
        return 0
