"""Unit and property tests for the set-associative cache model."""

from __future__ import annotations

import gc
import random
import tracemalloc
from collections import Counter, OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.block import AccessType
from repro.memory.cache import Cache, EvictionInfo
from repro.memory.directory import Directory
from repro.memory.spec import HierarchySpec, LevelSpec


def make_cache(size=1024, assoc=2, **kwargs) -> Cache:
    return Cache(LevelSpec(name="L1", size_bytes=size, associativity=assoc,
                           **kwargs))


class TestGeometry:
    def test_num_sets(self):
        cache = make_cache(size=32 * 1024, assoc=4)
        # 128 sets of 64 B lines: block 127 is the last set, 128 wraps.
        assert cache.set_index(127 * 64) == 127
        assert cache.set_index(128 * 64) == 0

    def test_invalid_geometry_raises(self):
        with pytest.raises(ValueError):
            LevelSpec(name="L1", size_bytes=64, associativity=4)

    def test_hit_latency_parallel_vs_sequential(self):
        parallel = LevelSpec(name="L2", size_bytes=1024, associativity=2,
                             tag_latency=12, data_latency=0)
        sequential = LevelSpec(name="L3", size_bytes=1024, associativity=2,
                               tag_latency=20, data_latency=35,
                               sequential_tag_data=True)
        assert parallel.hit_latency == 12
        assert sequential.hit_latency == 55

    def test_set_index_and_tag_roundtrip(self):
        cache = make_cache(size=1024, assoc=2)
        for block in (0, 64, 512, 4096, 65536):
            set_index = cache.set_index(block)
            assert 0 <= set_index < 8
            assert ((block // 64 // 8) * 8 + set_index) * 64 == block

    def test_three_sets_map_blocks_round_robin(self):
        """A set count that is not a power of two: blocks 0-6 land in sets
        0, 1, 2, 0, 1, 2, 0, and each set evicts its own LRU line."""
        cache = make_cache(size=3 * 2 * 64, assoc=2)
        assert [cache.set_index(number * 64) for number in range(7)] \
            == [0, 1, 2, 0, 1, 2, 0]
        for number in range(6):
            assert cache.fill_block(number * 64) is None
        assert cache.occupancy() == 6
        assert cache.access_block(0) == (True, False)  # block 3 is now LRU
        eviction = cache.fill_block(6 * 64)
        assert eviction == EvictionInfo(3 * 64, False, False)
        assert sorted(cache.resident_blocks()) \
            == [number * 64 for number in (0, 1, 2, 4, 5, 6)]
        assert cache.fill_block(7 * 64).block_addr == 1 * 64


class TestLookupAndFill:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.access_block(0x1000) == (False, False)
        cache.fill_block(0x1000)
        assert cache.access_block(0x1000) == (True, False)

    def test_sub_block_addresses_share_a_line(self):
        cache = make_cache()
        cache.fill_block(cache.block_of(0x1010))
        assert cache.block_of(0x103F) == 0x1000
        assert cache.contains_block(cache.block_of(0x103F))
        assert not cache.contains_block(cache.block_of(0x1040))

    def test_store_hit_marks_dirty(self):
        cache = make_cache()
        cache.fill_block(0x2000)
        cache.access_block(0x2000, AccessType.STORE)
        assert cache.peek_line(0x2000).dirty

    def test_fill_of_resident_block_does_not_evict(self):
        cache = make_cache()
        cache.fill_block(0x40)
        assert cache.fill_block(0x40) is None
        assert cache.occupancy() == 1

    def test_eviction_when_set_full(self):
        # 1 KiB, 2-way, 64 B lines -> 8 sets; addresses 0, 512, 1024 map to set 0.
        cache = make_cache(size=1024, assoc=2)
        cache.fill_block(0)
        cache.fill_block(512)
        eviction = cache.fill_block(1024)
        assert eviction is not None
        assert eviction.block_addr == 0  # LRU victim
        assert not cache.contains_block(0)
        assert cache.contains_block(512) and cache.contains_block(1024)

    def test_dirty_eviction_reported(self):
        cache = make_cache(size=1024, assoc=2)
        cache.fill_block(0, dirty=True)
        cache.fill_block(512)
        eviction = cache.fill_block(1024)
        assert eviction.dirty


class TestPrefetchTracking:
    def test_prefetched_line_marked_and_cleared_on_use(self):
        cache = make_cache()
        cache.fill_block(0x80, access_type=AccessType.PREFETCH)
        assert cache.peek_line(0x80).prefetched
        assert cache.access_block(0x80) == (True, True)
        assert not cache.peek_line(0x80).prefetched

    def test_unused_prefetch_eviction_counted(self):
        cache = make_cache(size=1024, assoc=2)
        cache.fill_block(0, access_type=AccessType.PREFETCH)
        cache.fill_block(512)
        eviction = cache.fill_block(1024)
        assert eviction.prefetched_unused

    def test_prefetch_lookup_counted_separately(self):
        """A prefetch probe is not a demand use: it neither installs an
        absent block nor consumes a prefetched line's bit."""
        cache = make_cache()
        assert cache.access_block(0x40, AccessType.PREFETCH) == (False, False)
        assert not cache.contains_block(0x40)
        cache.fill_block(0x40, access_type=AccessType.PREFETCH)
        assert cache.access_block(0x40, AccessType.PREFETCH) == (True, True)
        assert cache.peek_line(0x40).prefetched


class TestInvalidate:
    def test_invalidate_removes_block(self):
        cache = make_cache()
        cache.fill_block(0x100)
        info = cache.invalidate(0x100)
        assert info is not None
        assert not cache.contains_block(0x100)

    def test_invalidate_absent_block_is_noop(self):
        cache = make_cache()
        assert cache.invalidate(0x100) is None

    def test_mark_dirty(self):
        cache = make_cache()
        cache.fill_block(0x100)
        assert cache.mark_dirty(0x100)
        assert cache.peek_line(0x100).dirty
        assert not cache.mark_dirty(0x5000)


class TestCapacityInvariants:
    def test_occupancy_never_exceeds_capacity(self):
        cache = make_cache(size=1024, assoc=2)
        for i in range(100):
            cache.fill_block(i * 64)
        assert cache.occupancy() == 1024 // 64

    def test_resident_blocks_are_block_aligned(self):
        cache = make_cache()
        cache.fill_block(cache.block_of(0x1234))
        assert cache.resident_blocks() == [0x1200]


@given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20),
                          min_size=1, max_size=400))
@settings(max_examples=50, deadline=None)
def test_property_contains_matches_fill_history(addresses):
    """After any fill sequence, a filled block is either resident or was
    evicted; occupancy never exceeds capacity; lookups after fill of the same
    address always hit."""
    cache = make_cache(size=2048, assoc=4)
    for address in addresses:
        block = cache.block_of(address)
        cache.fill_block(block)
        assert cache.access_block(block)[0]  # just-filled blocks always hit
        assert cache.occupancy() <= 2048 // 64


@given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 16),
                          min_size=1, max_size=300))
@settings(max_examples=50, deadline=None)
def test_property_tag_index_consistency(addresses):
    """Every resident block is found where its set index says, once, and
    no set holds more lines than its ways."""
    cache = make_cache(size=1024, assoc=2)
    for address in addresses:
        cache.fill_block(cache.block_of(address))
    resident = cache.resident_blocks()
    assert len(set(resident)) == len(resident) == cache.occupancy()
    for block in resident:
        assert cache.contains_block(block)
        assert cache.peek_line(block) is not None
    assert max(Counter(map(cache.set_index, resident)).values()) <= 2


# ----------------------------------------------------------------------
# Differential test: the set-on-first-fill Cache against a plain model
# ----------------------------------------------------------------------
class ReferenceCache:
    """Eagerly allocated per-set way lists and ordered dicts, in recency
    order.

    LRU victims come from the ordered dict's explicit ``move_to_end``
    bookkeeping, independently of the cache's plain-dict order; a free way
    is always filled before any line is evicted.
    """

    def __init__(self, num_sets: int, associativity: int):
        self.num_sets = num_sets
        # Per set: tag -> [way, block, dirty, prefetched].
        self.sets = [OrderedDict() for _ in range(num_sets)]
        self.ways = [[None] * associativity for _ in range(num_sets)]

    def _locate(self, block):
        number = block // 64
        return number % self.num_sets, number // self.num_sets

    def access(self, block, atype):
        index, tag = self._locate(block)
        line = self.sets[index].get(tag)
        if line is None:
            return False, False
        self.sets[index].move_to_end(tag)
        if atype is AccessType.STORE:
            line[2] = True
        was_prefetched = line[3]
        if was_prefetched and atype is not AccessType.PREFETCH:
            line[3] = False
        return True, was_prefetched

    def fill(self, block, atype, dirty):
        index, tag = self._locate(block)
        lines, ways = self.sets[index], self.ways[index]
        line = lines.get(tag)
        if line is not None:
            line[2] = line[2] or dirty
            lines.move_to_end(tag)
            return None
        if None in ways:
            way = ways.index(None)
        else:
            way = next(iter(lines.values()))[0]
        eviction = None
        if ways[way] is not None:
            _, victim, victim_dirty, victim_prefetched = lines.pop(ways[way])
            eviction = EvictionInfo(victim, victim_dirty, victim_prefetched)
        ways[way] = tag
        lines[tag] = [way, block, dirty, atype is AccessType.PREFETCH]
        return eviction

    def invalidate(self, block):
        index, tag = self._locate(block)
        line = self.sets[index].pop(tag, None)
        if line is None:
            return None
        self.ways[index][line[0]] = None
        return EvictionInfo(line[1], line[2], line[3])

    def mark_dirty(self, block):
        index, tag = self._locate(block)
        line = self.sets[index].get(tag)
        if line is None:
            return False
        line[2] = True
        return True

    def resident_blocks(self):
        return [self.sets[index][tag][1]
                for index in range(self.num_sets)
                for tag in self.ways[index] if tag is not None]


_ATYPES = (AccessType.LOAD, AccessType.STORE, AccessType.PREFETCH,
           AccessType.WRITEBACK)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(num_sets=st.sampled_from((1, 2, 3, 8)),
       associativity=st.sampled_from((1, 2, 4)),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_lazy_cache_matches_reference(num_sets, associativity, seed):
    """300 seeded random operations on 12 blocks: sets are filled, emptied
    and refilled, and some are probed before any fill reaches them."""
    cache = make_cache(size=num_sets * associativity * 64,
                       assoc=associativity)
    reference = ReferenceCache(num_sets, associativity)
    rng = random.Random(seed)
    for _ in range(300):
        operation = rng.choice(("access", "fill", "fill", "invalidate",
                                "mark_dirty"))
        block = rng.randrange(12) * 64
        if operation == "access":
            atype = rng.choice(_ATYPES[:3])
            assert cache.access_block(block, atype) \
                == reference.access(block, atype)
        elif operation == "fill":
            atype, dirty = rng.choice(_ATYPES), rng.random() < 0.5
            assert cache.fill_block(block, atype, dirty=dirty) \
                == reference.fill(block, atype, dirty)
        elif operation == "invalidate":
            assert cache.invalidate(block) == reference.invalidate(block)
        else:
            assert cache.mark_dirty(block) == reference.mark_dirty(block)
        resident = sorted(cache.resident_blocks())
        assert resident == sorted(reference.resident_blocks())
        assert cache.occupancy() == len(resident)
    for block in cache.resident_blocks():
        line = cache.peek_line(block)
        index, tag = reference._locate(block)
        _, _, dirty, prefetched = reference.sets[index][tag]
        assert (line.dirty, line.prefetched) == (dirty, prefetched)


# ----------------------------------------------------------------------
# Memory held by the walker's state
# ----------------------------------------------------------------------
def _traced_bytes(build):
    """Bytes still allocated by ``build()`` once it returns (its result
    kept alive)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del kept
    return held


def test_bytes_per_resident_line_of_a_full_l1():
    """A full paper L1 holds each line in a few dozen bytes: one dict entry
    of small ints per line, not a line object."""
    spec = HierarchySpec.paper_single_core().levels[0]
    lines = spec.size_bytes // spec.block_size

    def full_l1():
        cache = Cache(spec)
        for number in range(lines):
            cache.fill_block(number * 64, AccessType.STORE, dirty=True)
        assert cache.occupancy() == lines
        return cache

    assert _traced_bytes(full_l1) / lines <= 120


def test_bytes_per_tracked_block_of_the_directory():
    blocks = 4096

    def directory():
        tracked = Directory(num_cores=4)
        for number in range(blocks):
            tracked.record_private_fill((1 << 40) + number * 64, number % 4)
        return tracked

    assert _traced_bytes(directory) / blocks <= 150
