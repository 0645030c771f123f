"""Unit and property tests for the LocMap and its metadata cache."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.locmap import (
    BLOCKS_PER_LOCMAP_ENTRY,
    LocMap,
    MetadataCache,
    locmap_block_address,
)
from repro.memory.block import Level


class TestAddressMapping:
    def test_paper_mapping_formula(self):
        """LocMap address = base + (physical address >> 14)."""
        assert locmap_block_address(0) == 0
        assert locmap_block_address(1 << 14) == 1
        assert locmap_block_address((1 << 14) - 1) == 0
        assert locmap_block_address(5 << 14, base_address=0x1000) == 0x1000 + 5

    def test_one_locmap_block_covers_256_data_blocks(self):
        assert BLOCKS_PER_LOCMAP_ENTRY == 256
        # 256 blocks x 64 B = 16 KiB of data share one LocMap block.
        assert locmap_block_address(0) == locmap_block_address(16 * 1024 - 1)
        assert locmap_block_address(0) != locmap_block_address(16 * 1024)

    def test_memory_overhead_is_0_39_percent(self):
        locmap = LocMap()
        assert locmap.memory_overhead_fraction() == pytest.approx(2 / 512)


class TestMetadataCache:
    def test_paper_geometry(self):
        cache = MetadataCache(size_bytes=2048, associativity=2)
        assert cache.capacity_blocks == 32

    def test_miss_then_hit(self):
        cache = MetadataCache()
        assert not cache.lookup(5)
        cache.fill(5)
        assert cache.lookup(5)
        assert cache.stats.miss_ratio == pytest.approx(0.5)

    def test_lru_within_set(self):
        cache = MetadataCache(size_bytes=256, associativity=2)  # 2 sets
        # LocMap blocks 0, 2, 4 all map to set 0.
        cache.fill(0)
        cache.fill(2)
        cache.lookup(0)
        cache.fill(4)   # evicts 2
        assert cache.contains(0)
        assert not cache.contains(2)

    def test_contains_has_no_side_effects(self):
        cache = MetadataCache()
        cache.contains(7)
        assert cache.stats.accesses == 0

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            MetadataCache(size_bytes=64, associativity=2)


class TestLocMapUpdates:
    def test_default_location_is_memory(self):
        locmap = LocMap()
        assert locmap.peek(0x1234) is Level.MEM

    def test_demand_fill_updates_location(self):
        locmap = LocMap()
        locmap.record_fill(0x40, Level.L2)
        assert locmap.peek(0x40) is Level.L2

    def test_demand_fill_warms_metadata_cache(self):
        locmap = LocMap()
        locmap.record_fill(0x40, Level.L2)
        assert locmap.query(0x40) is Level.L2
        assert locmap.metadata_cache.stats.hits == 1

    def test_prefetch_fill_ignored_on_metadata_miss(self):
        """Section III.C: prefetch fills that miss the metadata cache do not
        update the LocMap (the traffic is not worth the accuracy)."""
        locmap = LocMap()
        applied = locmap.record_fill(0x40, Level.L2, from_prefetch=True)
        assert not applied
        assert locmap.peek(0x40) is Level.MEM

    def test_prefetch_fill_applied_on_metadata_hit(self):
        locmap = LocMap()
        locmap.record_fill(0x40, Level.L2)              # warms the region
        applied = locmap.record_fill(0x80, Level.L3, from_prefetch=True)
        assert applied
        assert locmap.peek(0x80) is Level.L3

    def test_dirty_eviction_moves_block_down(self):
        locmap = LocMap()
        locmap.record_fill(0x40, Level.L2)
        locmap.record_eviction(0x40, Level.L2, dirty=True)
        assert locmap.peek(0x40) is Level.L3
        locmap.record_eviction(0x40, Level.L3, dirty=True)
        assert locmap.peek(0x40) is Level.MEM

    def test_clean_eviction_ignored(self):
        locmap = LocMap()
        locmap.record_fill(0x40, Level.L2)
        assert not locmap.record_eviction(0x40, Level.L2, dirty=False)
        assert locmap.peek(0x40) is Level.L2

    def test_cannot_record_l1(self):
        locmap = LocMap()
        with pytest.raises(ValueError):
            locmap.record_fill(0x40, Level.L1)


class TestLocMapQueries:
    def test_query_miss_returns_none_and_schedules_fetch(self):
        locmap = LocMap()
        assert locmap.query(0x123400) is None
        assert locmap.metadata_cache.contains(locmap.locmap_block_of(0x123400))
        # The covering LocMap block is now cached: the next query hits.
        assert locmap.query(0x123440) is Level.MEM

    def test_on_chip_storage_is_metadata_cache_only(self):
        locmap = LocMap(metadata_cache_bytes=2048)
        assert locmap.storage_bits_on_chip() == 2048 * 8

    def test_reset_statistics(self):
        locmap = LocMap()
        locmap.query(0x40)
        locmap.record_fill(0x40, Level.L2)
        locmap.reset_statistics()
        assert locmap.metadata_cache.stats.accesses == 0
        # Location contents survive a statistics reset.
        assert locmap.peek(0x40) is Level.L2


@given(events=st.lists(
    st.tuples(st.integers(min_value=0, max_value=255),
              st.sampled_from([Level.L2, Level.L3, Level.MEM]),
              st.booleans()),
    max_size=200))
@settings(max_examples=50, deadline=None)
def test_property_peek_reflects_last_demand_fill(events):
    """After any sequence of demand fills, peek returns the last level written
    for each block (prefetch fills may or may not apply, demand always does)."""
    locmap = LocMap()
    last_demand = {}
    for block_index, level, from_prefetch in events:
        address = block_index * 64
        applied = locmap.record_fill(address, level, from_prefetch=from_prefetch)
        if not from_prefetch:
            assert applied
            last_demand[block_index] = level
    for block_index, level in last_demand.items():
        observed = locmap.peek(block_index * 64)
        assert observed in (level, Level.L2, Level.L3, Level.MEM)
        if not any(e[0] == block_index and e[2] for e in events):
            # No prefetch fills touched this block: must match exactly.
            assert observed is level
