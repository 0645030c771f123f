"""Unit tests for the proposed level predictor (LocMap + PLD) and its base."""

from __future__ import annotations

import pytest

from repro.core.base import (
    Prediction,
    PredictionOutcome,
    SequentialPredictor,
    classify_prediction,
)
from repro.core.level_predictor import CacheLevelPredictor, LevelPredictorConfig
from repro.memory.block import Level


class TestPredictionType:
    def test_sequential_prediction(self):
        prediction = Prediction.sequential()
        assert prediction.is_sequential
        assert not prediction.is_multi_way
        assert prediction.nearest is Level.L2

    def test_multi_way_detection(self):
        prediction = Prediction(levels=(Level.L3, Level.MEM))
        assert prediction.is_multi_way
        assert prediction.targets(Level.MEM)
        assert not prediction.targets(Level.L2)

    def test_empty_prediction_is_sequential(self):
        assert Prediction(levels=()).is_sequential


class TestClassification:
    """The four-way breakdown of Figure 7."""

    def test_correct_sequential(self):
        outcome = classify_prediction(Prediction(levels=(Level.L2,)), Level.L2)
        assert outcome is PredictionOutcome.SEQUENTIAL

    def test_correct_skip(self):
        outcome = classify_prediction(Prediction(levels=(Level.L3,)), Level.L3)
        assert outcome is PredictionOutcome.SKIP

    def test_skip_when_memory_predicted_and_block_in_llc(self):
        # The collocated directory finds the block during the LLC check, so no
        # recovery is needed and L2 was still skipped correctly.
        outcome = classify_prediction(Prediction(levels=(Level.MEM,)), Level.L3)
        assert outcome is PredictionOutcome.SKIP

    def test_lost_opportunity(self):
        outcome = classify_prediction(Prediction(levels=(Level.L2,)), Level.MEM)
        assert outcome is PredictionOutcome.LOST_OPPORTUNITY

    def test_harmful_bypass_of_l2(self):
        outcome = classify_prediction(Prediction(levels=(Level.L3,)), Level.L2)
        assert outcome is PredictionOutcome.HARMFUL

    def test_multi_way_including_l2_is_never_harmful(self):
        outcome = classify_prediction(Prediction(levels=(Level.L2, Level.L3)),
                                      Level.L2)
        assert outcome is PredictionOutcome.SEQUENTIAL

    def test_l1_actual_rejected(self):
        with pytest.raises(ValueError):
            classify_prediction(Prediction.sequential(), Level.L1)


class TestSequentialPredictor:
    def test_always_predicts_l2_with_no_latency(self):
        predictor = SequentialPredictor()
        assert predictor.predict(0x40).levels == (Level.L2,)
        assert predictor.prediction_latency == 0
        assert predictor.storage_bits() == 0

    def test_statistics_accumulate(self):
        predictor = SequentialPredictor()
        prediction = predictor.predict(0x40)
        predictor.train(0x40, 0, prediction, Level.MEM)
        assert predictor.stats.predictions == 1
        assert predictor.stats.fraction(PredictionOutcome.LOST_OPPORTUNITY) == 1.0


class TestCacheLevelPredictor:
    def test_cold_predictor_uses_pld(self):
        predictor = CacheLevelPredictor()
        prediction = predictor.predict(0x100000)
        assert prediction.used_pld
        assert not prediction.metadata_hit

    def test_locmap_hit_after_demand_fill(self):
        predictor = CacheLevelPredictor()
        predictor.on_fill(0x4000, Level.L2)
        prediction = predictor.predict(0x4000)
        assert prediction.metadata_hit
        assert prediction.levels == (Level.L2,)

    def test_dirty_eviction_moves_prediction_down(self):
        predictor = CacheLevelPredictor()
        predictor.on_fill(0x4000, Level.L2)
        predictor.on_eviction(0x4000, Level.L2, dirty=True)
        assert predictor.predict(0x4000).levels == (Level.L3,)

    def test_pld_driven_prediction_tracks_popular_level(self):
        predictor = CacheLevelPredictor()
        for _ in range(30):
            predictor.on_hit(Level.MEM)
        # A block in a never-touched region misses the metadata cache and the
        # PLD supplies the (popular) level.
        prediction = predictor.predict(0x40_000_000)
        assert prediction.used_pld
        assert Level.MEM in prediction.levels

    def test_training_classifies_and_counts(self):
        predictor = CacheLevelPredictor()
        prediction = predictor.predict(0x8000)
        outcome = predictor.train(0x8000, 0, prediction, Level.MEM)
        assert outcome in PredictionOutcome
        assert predictor.stats.predictions == 1

    def test_one_cycle_latency_and_small_storage(self):
        predictor = CacheLevelPredictor()
        assert predictor.prediction_latency == 1
        # 2 KiB metadata cache + three 32-bit counters (Section V.F).
        assert predictor.storage_bits() == 2048 * 8 + 96

    def test_overhead_report_matches_paper(self):
        report = CacheLevelPredictor().overhead_report()
        assert report["metadata_cache_bytes"] == 2048
        assert report["memory_overhead_fraction"] == pytest.approx(0.0039, abs=1e-4)
        assert report["prediction_latency_cycles"] == 1

    def test_metadata_cache_size_configurable(self):
        predictor = CacheLevelPredictor(
            LevelPredictorConfig(metadata_cache_bytes=8192))
        assert predictor.locmap.metadata_cache.size_bytes == 8192
        # A bigger metadata cache costs more energy per prediction.
        small = CacheLevelPredictor(
            LevelPredictorConfig(metadata_cache_bytes=1024))
        assert (predictor.energy_per_prediction_nj()
                > small.energy_per_prediction_nj())

    def test_l1_fill_events_ignored(self):
        predictor = CacheLevelPredictor()
        predictor.on_fill(0x4000, Level.L1)
        assert predictor.locmap.peek(0x4000) is Level.MEM

    def test_reset_statistics_clears_everything(self):
        predictor = CacheLevelPredictor()
        prediction = predictor.predict(0x40)
        predictor.train(0x40, 0, prediction, Level.L3)
        predictor.reset_statistics()
        assert predictor.stats.predictions == 0
        assert predictor.locmap.metadata_cache.stats.accesses == 0
        assert set(predictor.pld.counters().values()) == {0}


class TestPredictorStats:
    def test_breakdown_sums_to_one(self):
        predictor = CacheLevelPredictor()
        for i in range(50):
            block = i * 64
            prediction = predictor.predict(block)
            predictor.train(block, 0, prediction,
                            Level.MEM if i % 2 else Level.L3)
        breakdown = predictor.stats.breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_accuracy_is_one_minus_harmful(self):
        predictor = CacheLevelPredictor()
        predictor.on_fill(0x40, Level.L3)          # LocMap says L3
        prediction = predictor.predict(0x40)
        predictor.train(0x40, 0, prediction, Level.L2)   # actually in L2
        assert predictor.stats.accuracy == pytest.approx(0.0)
        assert predictor.stats.fraction(PredictionOutcome.HARMFUL) == 1.0
