"""Unit tests for the fundamental memory data types."""

from __future__ import annotations

import pytest

from repro.memory.block import (
    AccessType,
    DEFAULT_BLOCK_SIZE,
    Level,
    MemoryAccess,
    PREDICTABLE_LEVELS,
    block_address,
    block_number,
    page_number,
    page_offset,
)
from repro.memory.cache import Cache
from repro.memory.spec import LevelSpec


class TestLevel:
    def test_ordering_from_core_to_memory(self):
        assert Level.L1 < Level.L2 < Level.L3 < Level.MEM

    def test_closer_than(self):
        assert Level.L2.closer_than(Level.MEM)
        assert not Level.MEM.closer_than(Level.L2)
        assert not Level.L3.closer_than(Level.L3)

    def test_is_cache(self):
        assert Level.L1.is_cache
        assert Level.L3.is_cache
        assert not Level.MEM.is_cache

    def test_predictable_levels_exclude_l1(self):
        assert Level.L1 not in PREDICTABLE_LEVELS
        assert set(PREDICTABLE_LEVELS) == {Level.L2, Level.L3, Level.MEM}


class TestAddressHelpers:
    def test_block_address_alignment(self):
        assert block_address(0) == 0
        assert block_address(63) == 0
        assert block_address(64) == 64
        assert block_address(130) == 128

    def test_block_number(self):
        assert block_number(0) == 0
        assert block_number(64) == 1
        assert block_number(6400) == 100

    def test_page_helpers(self):
        assert page_number(4096) == 1
        assert page_offset(4097) == 1
        assert page_number(4095) == 0

    def test_custom_block_size(self):
        assert block_address(200, block_size=128) == 128
        assert block_number(256, block_size=128) == 2


class TestAccessType:
    def test_demand_classification(self):
        assert AccessType.LOAD.is_demand
        assert AccessType.STORE.is_demand
        assert not AccessType.PREFETCH.is_demand
        assert not AccessType.WRITEBACK.is_demand


class TestMemoryAccess:
    def test_defaults_are_loads(self):
        access = MemoryAccess(address=0x1000)
        assert access.is_load
        assert not access.is_store
        assert access.thread_id == 0

    def test_block_method_uses_block_size(self):
        access = MemoryAccess(address=0x1040)
        assert access.block() == 0x1040
        assert access.block(block_size=128) == 0x1000

    def test_store_flag(self):
        access = MemoryAccess(address=0x2000, access_type=AccessType.STORE)
        assert access.is_store and not access.is_load


class TestCacheLine:
    """A cache line is one entry of its set: the block address and its
    dirty and prefetched flag bits."""

    @staticmethod
    def _cache() -> Cache:
        return Cache(LevelSpec(name="L1", size_bytes=1024, associativity=2))

    def test_valid_tracks_state(self):
        cache = self._cache()
        cache.fill_block(64)
        assert cache.peek_line(64) is not None
        cache.invalidate(64)
        assert cache.peek_line(64) is None

    def test_prefetched_flag_default(self):
        cache = self._cache()
        cache.fill_block(64)
        assert cache.peek_line(64) == (False, False)
        assert not cache.peek_line(64).prefetched
        assert not cache.peek_line(64).dirty
