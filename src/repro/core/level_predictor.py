"""The proposed cache level predictor: LocMap metadata cache + PLD.

This is the paper's main contribution (Section III.B).  On every L1 miss the
predictor is consulted:

1. the LocMap metadata cache is probed with the block's physical address;
2. on a **metadata hit**, the stored 2-bit location (L2, LLC or MEM) is the
   (single-way) prediction;
3. on a **metadata miss**, the Popular Levels Detector supplies a single- or
   multi-way prediction while the LocMap block is fetched from memory in the
   background.

The predictor is updated by cache events reported by the hierarchy: demand
fills, dirty evictions, and prefetch fills that hit in the metadata cache
(Section III.C), plus per-level hit signals that train the PLD counters.

The whole structure costs one cycle on the L1 miss path, a 2 KiB metadata
cache and three 32-bit counters per core, and 0.39 % of physical memory for
the LocMap itself (Section V.F).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..energy.model import sram_access_energy
from ..memory.block import Level, PREDICTABLE_LEVELS
from .base import LevelPredictor, Prediction
from .locmap import LocMap
from .pld import PLDConfig, PopularLevelsDetector

#: Shared frozen predictions for the metadata-hit path (one per stored level)
#: and a memo for PLD level combinations — predict() runs on every L1 miss
#: and the Prediction value space is tiny, so nothing is allocated per call.
_LOCMAP_PREDICTIONS = {
    level: Prediction(levels=(level,), metadata_hit=True, source="locmap")
    for level in PREDICTABLE_LEVELS
}
_PLD_PREDICTIONS: dict = {}


@dataclass
class LevelPredictorConfig:
    """Configuration of the proposed level predictor.

    The paper fixes the rest of LP's cost: a
    :data:`~repro.core.locmap.METADATA_ASSOCIATIVITY`-way metadata cache
    and one cycle added to the L1 miss path
    (:attr:`CacheLevelPredictor.prediction_latency`).

    Attributes:
        metadata_cache_bytes: Metadata cache capacity (2 KiB in the paper;
            Figure 5 sweeps 1-8 KiB).
        pld: Popular Levels Detector configuration.
    """

    metadata_cache_bytes: int = 2048
    pld: PLDConfig = None

    def __post_init__(self) -> None:
        if self.pld is None:
            self.pld = PLDConfig()


class CacheLevelPredictor(LevelPredictor):
    """LocMap + Popular Levels Detector level predictor (the paper's LP)."""

    prediction_latency = 1

    def __init__(self, config: Optional[LevelPredictorConfig] = None) -> None:
        super().__init__()
        self.config = config or LevelPredictorConfig()
        self.locmap = LocMap(
            metadata_cache_bytes=self.config.metadata_cache_bytes)
        self.pld = PopularLevelsDetector(self.config.pld)
        self._metadata_access_energy = sram_access_energy(
            self.config.metadata_cache_bytes)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, block_addr: int, pc: int = 0) -> Prediction:
        stored = self.locmap.query(block_addr)
        if stored is not None:
            return _LOCMAP_PREDICTIONS[stored]
        levels = self.pld.predict()
        prediction = _PLD_PREDICTIONS.get(levels)
        if prediction is None:
            prediction = Prediction(levels=levels, used_pld=True,
                                    metadata_hit=False, source="pld")
            _PLD_PREDICTIONS[levels] = prediction
        return prediction

    # ------------------------------------------------------------------
    # Updates from the hierarchy
    # ------------------------------------------------------------------
    def on_fill(self, block_addr: int, level: Level,
                from_prefetch: bool = False) -> None:
        if level is Level.L1:
            # L1 is not a prediction target; its contents are covered by the
            # inclusive L2, which is tracked.
            return
        self.locmap.record_fill(block_addr, level, from_prefetch=from_prefetch)
        self.stats.updates += 1

    def on_eviction(self, block_addr: int, level: Level, dirty: bool) -> None:
        self.locmap.record_eviction(block_addr, level, dirty)
        if dirty:
            self.stats.updates += 1

    def on_hit(self, level: Level) -> None:
        self.pld.record_hit(level)

    # ------------------------------------------------------------------
    # Costs and overhead (Section V.F)
    # ------------------------------------------------------------------
    def storage_bits(self) -> int:
        return self.locmap.storage_bits_on_chip() + self.pld.storage_bits()

    def energy_per_prediction_nj(self) -> float:
        return self._metadata_access_energy

    def overhead_report(self) -> Dict[str, float]:
        """The quantities reported in the paper's overhead analysis."""
        return {
            "metadata_cache_bytes": float(self.config.metadata_cache_bytes),
            "pld_counter_bits": float(self.pld.storage_bits()),
            "on_chip_storage_bits": float(self.storage_bits()),
            "memory_overhead_fraction": self.locmap.memory_overhead_fraction(),
            "prediction_latency_cycles": float(self.prediction_latency),
        }

    def reset_statistics(self) -> None:
        super().reset_statistics()
        self.locmap.reset_statistics()
        self.pld.reset()
