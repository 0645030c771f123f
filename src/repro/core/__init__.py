"""The paper's contribution: cache level prediction and its baselines."""

from .base import (
    LevelPredictor,
    Prediction,
    PredictionOutcome,
    PredictorStats,
    SequentialPredictor,
    classify_prediction,
)
from .d2d import DirectToDataPredictor, IdealPredictor
from .level_predictor import CacheLevelPredictor, LevelPredictorConfig
from .locmap import LocMap, MetadataCache, locmap_block_address
from .pld import PLDConfig, PopularLevelsDetector
from .recovery import RecoverySummary, summarize_recovery
from .tage import TAGEConfig, TAGELevelPredictor, make_tage_2kb, make_tage_8kb

__all__ = [
    "CacheLevelPredictor",
    "DirectToDataPredictor",
    "IdealPredictor",
    "LevelPredictor",
    "LevelPredictorConfig",
    "LocMap",
    "MetadataCache",
    "PLDConfig",
    "PopularLevelsDetector",
    "Prediction",
    "PredictionOutcome",
    "PredictorStats",
    "RecoverySummary",
    "SequentialPredictor",
    "TAGEConfig",
    "TAGELevelPredictor",
    "classify_prediction",
    "locmap_block_address",
    "make_tage_2kb",
    "make_tage_8kb",
    "summarize_recovery",
]
