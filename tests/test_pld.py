"""Unit and property tests for the Popular Levels Detector."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pld import PLDConfig, PopularLevelsDetector
from repro.memory.block import Level


class TestTraining:
    def test_hit_increments_level_and_decrements_others(self):
        pld = PopularLevelsDetector()
        pld.record_hit(Level.L3)
        pld.record_hit(Level.L3)
        pld.record_hit(Level.L2)
        counters = pld.counters()
        assert counters[Level.L3] == 1   # +1 +1 -1
        assert counters[Level.L2] == 1   # -1 -1 +1 floored at 0 then +1
        assert counters[Level.MEM] == 0

    def test_counters_never_negative(self):
        pld = PopularLevelsDetector()
        for _ in range(5):
            pld.record_hit(Level.MEM)
        assert all(value >= 0 for value in pld.counters().values())

    def test_l1_hits_ignored(self):
        pld = PopularLevelsDetector()
        pld.record_hit(Level.L1)
        assert set(pld.counters().values()) == {0}

    def test_unknown_level_rejected(self):
        pld = PopularLevelsDetector()
        with pytest.raises(ValueError):
            pld.record_hit("L5")  # type: ignore[arg-type]


class TestPrediction:
    def test_cold_detector_predicts_sequential(self):
        pld = PopularLevelsDetector()
        assert pld.predict() == (Level.L2,)

    def test_strong_bias_gives_single_way(self):
        pld = PopularLevelsDetector()
        for _ in range(20):
            pld.record_hit(Level.MEM)
        assert pld.predict() == (Level.MEM,)

    def test_weak_bias_gives_multi_way(self):
        """When no level dominates the counters, more levels are predicted in
        parallel (multi-way prediction, Section III.D)."""
        pld = PopularLevelsDetector(PLDConfig(confidence_threshold=0.9))
        for level in [Level.L2, Level.L2, Level.L3]:
            pld.record_hit(level)
        # Counters are now L2=1, L3=1, MEM=0: no single level reaches 90 %.
        prediction = pld.predict()
        assert len(prediction) >= 2

    def test_prediction_ordered_from_closest_level(self):
        pld = PopularLevelsDetector(PLDConfig(confidence_threshold=0.95))
        for level in [Level.MEM, Level.L2, Level.MEM, Level.L2, Level.L3]:
            pld.record_hit(level)
        prediction = pld.predict()
        assert list(prediction) == sorted(prediction, key=int)

    def test_adapts_to_phase_change(self):
        """The +1/-1 update rule tracks the recently popular level."""
        pld = PopularLevelsDetector()
        for _ in range(50):
            pld.record_hit(Level.L2)
        for _ in range(60):
            pld.record_hit(Level.MEM)
        assert pld.predict() == (Level.MEM,)


class TestReporting:
    def test_storage_is_three_32bit_counters(self):
        pld = PopularLevelsDetector()
        assert pld.storage_bits() == 96

    def test_reset(self):
        pld = PopularLevelsDetector()
        pld.record_hit(Level.L2)
        pld.predict()
        pld.reset()
        assert all(value == 0 for value in pld.counters().values())


@given(hits=st.lists(st.sampled_from([Level.L2, Level.L3, Level.MEM]),
                     min_size=1, max_size=300))
@settings(max_examples=60, deadline=None)
def test_property_prediction_always_valid_and_includes_top_level(hits):
    """The prediction is never empty, never contains L1, and always includes
    the level with the highest counter value."""
    pld = PopularLevelsDetector()
    for level in hits:
        pld.record_hit(level)
    prediction = pld.predict()
    assert 1 <= len(prediction) <= 3
    assert Level.L1 not in prediction
    counters = pld.counters()
    top = max(counters.values())
    assert any(counters[level] == top for level in prediction)
