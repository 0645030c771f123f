"""Unit tests for the TAGE and D2D/Ideal baseline predictors."""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import LevelPredictor, Prediction
from repro.core.d2d import DirectToDataPredictor, IdealPredictor
from repro.core.tage import (
    TAGEConfig,
    TAGELevelPredictor,
    make_tage_2kb,
    make_tage_8kb,
)
from repro.memory.block import Level, PREDICTABLE_LEVELS
from repro.memory.spec import load_hierarchy
from repro.sim.config import SystemConfig
from repro.sim.multicore import MultiCoreSystem
from repro.sim.system import SimulatedSystem

from trace_helpers import hierarchy_specs, traffic


class TestTAGEConfig:
    def test_storage_variants(self):
        assert make_tage_2kb().storage_bits() == 2048 * 8
        assert make_tage_8kb().storage_bits() == 8192 * 8

    def test_bigger_tables_for_bigger_budget(self):
        small = TAGEConfig(storage_bytes=2048)
        large = TAGEConfig(storage_bytes=8192)
        assert large.entries_per_table > small.entries_per_table

    def test_history_lengths_are_geometric_and_increasing(self):
        lengths = TAGEConfig(num_tagged_tables=4, min_history=4,
                             max_history=64).history_lengths()
        assert len(lengths) == 4
        assert lengths == sorted(lengths)
        assert lengths[0] == 4 and lengths[-1] == 64

    def test_energy_scales_with_storage(self):
        assert (make_tage_8kb().energy_per_prediction_nj()
                > make_tage_2kb().energy_per_prediction_nj())

    def test_names(self):
        assert make_tage_2kb().name == "TAGE-2KB"
        assert make_tage_8kb().name == "TAGE-8KB"


class TestTAGELearning:
    def test_learns_repeated_block_location(self):
        predictor = make_tage_8kb()
        block = 0x1234 * 64
        for _ in range(8):
            prediction = predictor.predict(block)
            predictor.train(block, 0, prediction, Level.MEM)
        assert Level.MEM in predictor.predict(block).levels

    def test_base_table_learns_global_popularity(self):
        predictor = make_tage_2kb()
        for i in range(300):
            block = (0x8000 + i) * 64
            prediction = predictor.predict(block)
            predictor.train(block, 0, prediction, Level.MEM)
        # A brand-new block should now be predicted from popularity counters.
        prediction = predictor.predict(0x900000 * 64)
        assert Level.MEM in prediction.levels

    def test_sequential_fallback_variant(self):
        predictor = TAGELevelPredictor(TAGEConfig(base_table_fallback=False))
        prediction = predictor.predict(0xABC0)
        assert prediction.levels == (Level.L2,)
        assert prediction.source == "tage-miss"

    def test_allocation_on_misprediction(self):
        predictor = make_tage_2kb()
        block = 0x77 * 64
        prediction = predictor.predict(block)
        predictor.train(block, 0, prediction, Level.MEM)
        prediction = predictor.predict(block)
        predictor.train(block, 0, prediction, Level.L2)
        assert any(tag != -1 for tags in predictor._tags for tag in tags)

    def test_prefetch_coordination_updates_matching_entries(self):
        predictor = make_tage_8kb()
        block = 0x4242 * 64
        for _ in range(4):
            prediction = predictor.predict(block)
            predictor.train(block, 0, prediction, Level.MEM)
        before = predictor.stats.updates
        predictor.on_fill(block, Level.L3, from_prefetch=True)
        assert predictor.stats.updates >= before

    def test_dirty_eviction_counts_as_move_down(self):
        predictor = make_tage_8kb()
        predictor.on_eviction(0x40, Level.L2, dirty=False)  # ignored
        predictor.on_eviction(0x40, Level.L2, dirty=True)   # -> L3 nudge
        # No exception and history/statistics stay consistent.
        assert predictor.stats.predictions == 0


class TestD2D:
    def test_hub_energy_grows_with_miss_ratio(self):
        predictor = DirectToDataPredictor()
        # Scattered pages: many Hub misses -> higher per-prediction energy.
        for i in range(2000):
            predictor.train(i * 8192, 0, Prediction.sequential(), Level.MEM)
        scattered = predictor.energy_per_prediction_nj()
        dense = DirectToDataPredictor()
        for _ in range(2000):
            dense.train(0x1000, 0, Prediction.sequential(), Level.MEM)
        assert scattered > dense.energy_per_prediction_nj()

    def test_zero_prediction_latency(self):
        assert DirectToDataPredictor().prediction_latency == 0
        assert DirectToDataPredictor().storage_bits() == 4096 * 8


@settings(derandomize=True, deadline=None, max_examples=120)
@given(spec=hierarchy_specs(), buffer=traffic())
def test_d2d_predicts_the_walks_level_on_every_miss(spec, buffer):
    """Section IV.C: D2D never mispredicts.  On any hierarchy and
    stimulus, with and without the paper's prefetchers, its prediction
    names exactly the level the walk found the block at."""
    for scheme in ("paper", "none"):
        system = SimulatedSystem(SystemConfig(
            name="d2d-exact", hierarchy=spec, predictor="d2d",
            prefetch_scheme=scheme))
        predictor = system.predictor
        train = predictor.train
        wrong = []

        def checked(block, pc, prediction, actual):
            if prediction.levels != (actual,):
                wrong.append((hex(block), prediction.levels, actual))
            return train(block, pc, prediction, actual)
        predictor.train = checked
        system.hierarchy.run_buffer(buffer)
        assert predictor.stats.predictions == system.hierarchy.stats.l1_misses
        assert not wrong, (scheme, len(spec.levels), wrong[:3])


_HIERARCHIES = Path(__file__).resolve().parent.parent / "examples" \
    / "hierarchies"


@pytest.mark.parametrize("spec_file", [None, "scaled.json"])
@pytest.mark.parametrize("mix", ["MT1", "MT2"])
def test_d2d_predicts_the_walks_level_in_mixes(mix, spec_file):
    """D2D is exact in a mix too (the paper's quad-core spec, and one
    whose LLC evicts), where another core's LLC fills and evictions and
    the blocks another core holds privately (a remote hit is an L3 hit)
    also decide the level a miss finds."""
    config = SystemConfig.paper_multi_core("d2d")
    if spec_file is not None:
        config = dataclasses.replace(
            config, hierarchy=load_hierarchy(_HIERARCHIES / spec_file))
    system = MultiCoreSystem(config)
    wrong = []
    for core in system.cores:
        train = core.predictor.train

        def checked(block, pc, prediction, actual, train=train):
            if prediction.levels != (actual,):
                wrong.append((hex(block), prediction.levels, actual))
            return train(block, pc, prediction, actual)
        core.predictor.train = checked
    result = system.run_mix(mix, 300)
    assert result.total_predictions > 0
    assert not wrong, (len(wrong), result.total_predictions, wrong[:3])


class TestIdealPredictor:
    def test_is_free_and_sequential(self):
        predictor = IdealPredictor()
        assert predictor.prediction_latency == 0
        assert predictor.predict(0x40).is_sequential
        assert predictor.energy_per_prediction_nj() == 0.0


# ----------------------------------------------------------------------
# Differential test: the flat-table TAGE against a plain dict model
# ----------------------------------------------------------------------
_HISTORY_CODES = {Level.L2: 0b01, Level.L3: 0b10, Level.MEM: 0b11}


@dataclass
class _ReferenceEntry:
    tag: int
    counters: Dict[Level, int] = field(
        default_factory=lambda: {level: 0 for level in PREDICTABLE_LEVELS})
    useful: int = 0


class ReferenceTAGE(LevelPredictor):
    """TAGE with one object per entry, a dict of counters per entry and
    the folded history recomputed from the history register on every
    hash — the model the flat tables must match step for step."""

    def __init__(self, config: TAGEConfig):
        super().__init__()
        self.config = config
        entries = config.entries_per_table
        self.base_table = [{level: 0 for level in PREDICTABLE_LEVELS}
                           for _ in range(entries)]
        self.tables: List[List[Optional[_ReferenceEntry]]] = [
            [None] * entries for _ in range(config.num_tagged_tables)]
        self.lengths = config.history_lengths()
        self.history = 0
        self.history_bits = 2 * max(self.lengths)
        self.entries = entries
        self.last_provider: Dict[int, Optional[Tuple[int, int]]] = {}

    def folded(self, table: int) -> int:
        history = self.history & ((1 << (2 * self.lengths[table])) - 1)
        folded = 0
        while history:
            folded ^= history & 0xFFFF
            history >>= 16
        return folded

    def index(self, block_addr: int, table: int) -> int:
        block = block_addr >> 6
        return (block ^ (block >> 7) ^ (self.folded(table) * 0x9E3779B1)) \
            % self.entries

    def tag(self, block_addr: int, table: int) -> int:
        block = block_addr >> 6
        value = (block >> 3) ^ (self.folded(table) >> 2) ^ (table * 0x5BD1)
        return value & ((1 << self.config.tag_bits) - 1)

    def levels(self, counters: Dict[Level, int]) -> Tuple[Level, ...]:
        total = sum(counters.values())
        if total == 0:
            return (Level.L2,)
        ranked = sorted(PREDICTABLE_LEVELS,
                        key=lambda level: (-counters[level], level))
        selected, accumulated = set(), 0
        for level in ranked:
            selected.add(level)
            accumulated += counters[level]
            if accumulated >= self.config.confidence_threshold * total:
                break
        return tuple(level for level in PREDICTABLE_LEVELS
                     if level in selected)

    def predict(self, block_addr: int, pc: int = 0) -> Prediction:
        for table in range(self.config.num_tagged_tables - 1, -1, -1):
            index = self.index(block_addr, table)
            entry = self.tables[table][index]
            if entry is not None and entry.tag == self.tag(block_addr, table):
                self.last_provider[block_addr] = (table, index)
                return Prediction(levels=self.levels(entry.counters),
                                  source="tage")
        if not self.config.base_table_fallback:
            self.last_provider[block_addr] = None
            return Prediction(levels=(Level.L2,), source="tage-miss")
        block = block_addr >> 6
        index = (block ^ (block >> 11)) % self.entries
        self.last_provider[block_addr] = (-1, index)
        return Prediction(levels=self.levels(self.base_table[index]),
                          source="tage-base")

    def nudge(self, counters: Dict[Level, int], level: Level) -> None:
        maximum = (1 << self.config.counter_bits) - 1
        for tracked in counters:
            if tracked is level:
                counters[tracked] = min(counters[tracked] + 1, maximum)
            elif counters[tracked] > 0:
                counters[tracked] -= 1

    def train(self, block_addr, pc, prediction, actual):
        outcome = super().train(block_addr, pc, prediction, actual)
        correct = actual in (prediction.levels or ())
        provider = self.last_provider.pop(block_addr, None)
        if provider is not None:
            table, index = provider
            if table < 0:
                self.nudge(self.base_table[index], actual)
            elif self.tables[table][index] is not None:
                entry = self.tables[table][index]
                self.nudge(entry.counters, actual)
                entry.useful = min(entry.useful + (1 if correct else 0), 3)
        if not correct:
            start = provider[0] + 1 if provider else 0
            for table in range(max(start, 0), self.config.num_tagged_tables):
                index = self.index(block_addr, table)
                existing = self.tables[table][index]
                if existing is not None and existing.useful > 0:
                    existing.useful -= 1
                    continue
                entry = _ReferenceEntry(tag=self.tag(block_addr, table))
                entry.counters[actual] = 2
                self.tables[table][index] = entry
                break
        self.history = ((self.history << 2) | _HISTORY_CODES[actual]) & (
            (1 << self.history_bits) - 1)
        return outcome

    def on_fill(self, block_addr, level, from_prefetch=False):
        if level is Level.L1:
            return
        if from_prefetch and not self.config.update_on_prefetch:
            return
        updated = False
        for table in range(self.config.num_tagged_tables):
            entry = self.tables[table][self.index(block_addr, table)]
            if entry is not None and entry.tag == self.tag(block_addr, table):
                self.nudge(entry.counters, level)
                updated = True
        if updated:
            self.stats.updates += 1

    def on_eviction(self, block_addr, level, dirty):
        if dirty:
            self.on_fill(block_addr,
                         Level.L3 if level is Level.L2 else Level.MEM)


_OUTCOMES = (Level.L2, Level.L3, Level.MEM)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(storage=st.sampled_from((2048, 8192)),
       fallback=st.booleans(),
       update_on_prefetch=st.booleans(),
       blocks=st.integers(min_value=4, max_value=400),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_flat_tage_matches_reference(storage, fallback, update_on_prefetch,
                                     blocks, seed):
    """1,500 seeded random predict/train/on_fill/on_eviction calls: both
    models give equal predictions, outcomes and counters throughout.

    A small block pool makes tagged entries hit, mispredict and get
    reallocated; a large one keeps them scarce.  Blocks are sometimes
    trained without a prediction, or predicted twice before training."""
    config = TAGEConfig(storage_bytes=storage, base_table_fallback=fallback,
                        update_on_prefetch=update_on_prefetch)
    flat, reference = TAGELevelPredictor(config), ReferenceTAGE(config)
    rng = random.Random(seed)
    pending: Dict[int, Tuple[Prediction, Prediction]] = {}
    for _ in range(1500):
        block = rng.randrange(blocks) * 64 + rng.randrange(64)
        operation = rng.random()
        if operation < 0.45:
            predicted = flat.predict(block), reference.predict(block)
            assert predicted[0] == predicted[1]
            pending[block] = predicted
        elif operation < 0.8:
            actual = rng.choice(_OUTCOMES)
            sequential = Prediction(levels=(Level.L2,))
            ours, theirs = pending.pop(block, (sequential, sequential))
            assert flat.train(block, 0, ours, actual) \
                == reference.train(block, 0, theirs, actual)
        elif operation < 0.93:
            level = rng.choice((Level.L1,) + _OUTCOMES)
            from_prefetch = rng.random() < 0.5
            flat.on_fill(block, level, from_prefetch)
            reference.on_fill(block, level, from_prefetch)
        else:
            level, dirty = rng.choice((Level.L2, Level.L3)), rng.random() < 0.7
            flat.on_eviction(block, level, dirty)
            reference.on_eviction(block, level, dirty)
    assert dataclasses.asdict(flat.stats) == dataclasses.asdict(
        reference.stats)
    assert flat.stats.predictions > 0
    # The tables themselves agree entry for entry.
    assert flat._base == [count for counters in reference.base_table
                          for count in counters.values()]
    for table, entries in enumerate(reference.tables):
        for index, entry in enumerate(entries):
            at = 3 * index
            state = (flat._tags[table][index], flat._useful[table][index],
                     flat._counters[table][at:at + 3])
            assert state == ((-1, 0, [0, 0, 0]) if entry is None else
                             (entry.tag, entry.useful,
                              list(entry.counters.values())))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(lengths=st.tuples(st.integers(min_value=1, max_value=4),
                         st.integers(min_value=1, max_value=96)),
       outcomes=st.lists(st.sampled_from(_OUTCOMES), max_size=200))
def test_incremental_folds_match_recomputation(lengths, outcomes):
    """Each table's incrementally kept fold equals the fold recomputed from
    the history register, after every push, for windows shorter than,
    equal to and longer than the 16-bit fold."""
    tables, longest = lengths
    config = TAGEConfig(num_tagged_tables=tables, min_history=1,
                        max_history=longest)
    predictor = TAGELevelPredictor(config)
    reference = ReferenceTAGE(config)
    for actual in outcomes:
        predictor._push_history(actual)
        reference.history = ((reference.history << 2)
                             | _HISTORY_CODES[actual]) & (
            (1 << reference.history_bits) - 1)
        assert predictor._history == reference.history
        assert predictor._folded == [reference.folded(table)
                                     for table in range(tables)]


def test_one_bit_counters_never_exceed_their_width():
    """With ``counter_bits=1`` no counter, freshly allocated or trained,
    holds more than 1 after any predict/train/on_fill call."""
    predictor = TAGELevelPredictor(TAGEConfig(counter_bits=1))
    rng = random.Random(3)
    pending: Dict[int, Prediction] = {}
    for _ in range(3000):
        block = rng.randrange(64) * 64
        operation = rng.random()
        if operation < 0.45:
            pending[block] = predictor.predict(block)
        elif operation < 0.85:
            prediction = pending.pop(block, Prediction(levels=(Level.L2,)))
            predictor.train(block, 0, prediction, rng.choice(_OUTCOMES))
        else:
            predictor.on_fill(block, rng.choice(_OUTCOMES),
                              rng.random() < 0.5)
        assert max(predictor._base) <= 1
        assert all(max(counters) <= 1 for counters in predictor._counters)
    assert any(tag != -1 for tags in predictor._tags for tag in tags)
