"""Unit tests for the sharer directory, and for what the hierarchy asks of
it: remote holders and the detection of harmful bypasses."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import LevelPredictor, Prediction
from repro.memory.block import Level
from repro.memory.directory import Directory
from repro.memory.hierarchy import CoreMemoryHierarchy, SharedMemorySystem
from repro.memory.spec import HierarchySpec

from trace_helpers import make_load, make_store


class TestDirectory:
    def test_read_records_sharer(self):
        directory = Directory(num_cores=2)
        directory.record_private_fill(0x40, core=0)
        assert directory.remote_holder(0x40, exclude_core=1) == 0
        assert directory.remote_holder(0x40, exclude_core=0) is None

    def test_dirty_owner_forwards_on_read(self):
        """A block that only another core's private caches hold is
        supplied by that core (a cache-to-cache transfer)."""
        spec = HierarchySpec.paper_single_core()
        shared = SharedMemorySystem(spec, num_cores=2)
        cores = [CoreMemoryHierarchy(spec, shared, core_id=core,
                                     active_cores=2) for core in (0, 1)]
        cores[0].access(make_store(0x4000))
        # Sixteen blocks of the same LLC set push 0x4000 out of the
        # (non-inclusive) LLC; core 0's private copy stays.
        llc_stride = spec.llc.size_bytes // spec.llc.associativity
        for way in range(1, spec.llc.associativity + 1):
            cores[1].access(make_load(0x4000 + way * llc_stride))
        assert not shared.l3.contains_block(0x4000)
        assert shared.directory.remote_holder(0x4000, exclude_core=1) == 0
        result = cores[1].access(make_load(0x4000))
        assert result.hit_level is Level.L3
        assert cores[1].stats.remote_cache_hits == 1

    def test_writeback_removes_tracking(self):
        directory = Directory(num_cores=2)
        directory.record_private_fill(0x80, core=0)
        directory.record_private_eviction(0x80, core=0)
        assert directory.remote_holder(0x80, exclude_core=1) is None
        assert not directory._sharers

    def test_clean_eviction_notification(self):
        directory = Directory(num_cores=3)
        directory.record_private_fill(0xC0, core=0)
        directory.record_private_fill(0xC0, core=1)
        directory.record_private_eviction(0xC0, core=0)
        directory.record_private_eviction(0xC0, core=2)  # not a holder
        assert directory.remote_holder(0xC0, exclude_core=2) == 1
        assert directory.remote_holder(0xC0, exclude_core=1) is None

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            Directory(num_cores=0)


class _BypassPrivateLevels(LevelPredictor):
    """Always predicts the LLC: every L1 miss skips the private L2."""

    def predict(self, block_addr: int, pc: int = 0) -> Prediction:
        return Prediction(levels=(Level.L3,), source="test")


def _bypassing_hierarchy() -> CoreMemoryHierarchy:
    spec = HierarchySpec.paper_single_core()
    return CoreMemoryHierarchy(spec, SharedMemorySystem(spec),
                               predictor=_BypassPrivateLevels())


def _stride(cache) -> int:
    """Bytes between two blocks of the same set of ``cache``."""
    return cache.spec.size_bytes // cache.spec.associativity


class TestMispredictionDetection:
    """Section III.E: the directory detects bypassed private levels."""

    def test_detects_block_in_requestors_private_cache(self):
        hierarchy = _bypassing_hierarchy()
        hierarchy.access(make_load(0x100))
        # Push 0x100 out of L1 only: the L2 sets of these blocks differ.
        for way in range(1, hierarchy.l1.spec.associativity + 1):
            hierarchy.access(make_load(0x100 + way * _stride(hierarchy.l1)))
        assert not hierarchy.l1.contains_block(0x100)
        assert hierarchy.l2.contains_block(0x100)
        result = hierarchy.access(make_load(0x100))
        assert result.hit_level is Level.L2 and result.misprediction
        assert hierarchy.stats.recoveries == 1

    def test_no_detection_for_untracked_block(self):
        hierarchy = _bypassing_hierarchy()
        result = hierarchy.access(make_load(0x100))
        assert result.hit_level is Level.MEM and not result.misprediction
        assert hierarchy.stats.recoveries == 0

    def test_no_detection_after_eviction(self):
        hierarchy = _bypassing_hierarchy()
        hierarchy.access(make_load(0x100))
        # Push 0x100 out of L2, and so out of the private levels.
        for way in range(1, hierarchy.l2.spec.associativity + 1):
            hierarchy.access(make_load(0x100 + way * _stride(hierarchy.l2)))
        assert not hierarchy.l2.contains_block(0x100)
        assert hierarchy.shared.directory.remote_holder(0x100, 1) is None
        result = hierarchy.access(make_load(0x100))
        assert result.hit_level is Level.L3 and not result.misprediction
        assert hierarchy.stats.recoveries == 0

    def test_is_cached_privately_excludes_core(self):
        directory = Directory(num_cores=2)
        directory.record_private_fill(0x100, core=1)
        assert directory.remote_holder(0x100, exclude_core=0) == 1
        assert directory.remote_holder(0x100, exclude_core=1) is None


@settings(max_examples=80, deadline=None)
@given(num_cores=st.integers(min_value=1, max_value=8),
       operations=st.lists(st.tuples(st.booleans(),
                                     st.integers(min_value=0, max_value=5),
                                     st.integers(min_value=0, max_value=7)),
                           max_size=120))
def test_remote_holder_matches_a_set_model(num_cores, operations):
    """Random private fills and evictions on 1-8 cores: ``remote_holder``
    is the lowest other core of a plain set-of-sharers model."""
    directory = Directory(num_cores=num_cores)
    sharers = {}
    for fill, block_number, core in operations:
        block, core = block_number * 64, core % num_cores
        if fill:
            directory.record_private_fill(block, core)
            sharers.setdefault(block, set()).add(core)
        else:
            directory.record_private_eviction(block, core)
            sharers.get(block, set()).discard(core)
        for probe in range(6):
            holders = sharers.get(probe * 64, set())
            for requestor in range(num_cores):
                others = holders - {requestor}
                assert directory.remote_holder(probe * 64, requestor) \
                    == (min(others) if others else None)
