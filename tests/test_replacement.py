"""Unit and property tests for the cache's LRU replacement.

LRU is the paper's policy at every level (Table I) and the only one the
cache implements; these tests drive it through :class:`Cache` fills,
hits and invalidations.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import Cache
from repro.memory.spec import LevelSpec


def make_cache(num_sets: int, associativity: int) -> Cache:
    return Cache(LevelSpec(name="L1", size_bytes=num_sets * associativity * 64,
                           associativity=associativity))


def block(set_index: int, tag: int, num_sets: int = 1) -> int:
    """The block address of ``tag`` in ``set_index`` (64 B lines)."""
    return (tag * num_sets + set_index) * 64


class TestLRU:
    def test_prefers_invalid_way(self):
        cache = make_cache(num_sets=1, associativity=4)
        for tag in range(4):
            cache.fill_block(block(0, tag))
        cache.invalidate(block(0, 2))
        # The freed way is refilled before any live line is evicted.
        assert cache.fill_block(block(0, 9)) is None
        assert sorted(cache.resident_blocks()) \
            == sorted(block(0, tag) for tag in (0, 1, 3, 9))

    def test_evicts_least_recently_used(self):
        cache = make_cache(num_sets=1, associativity=4)
        for tag in range(4):
            cache.fill_block(block(0, tag))
        cache.access_block(block(0, 0))  # tag 0 becomes MRU; tag 1 is now LRU
        assert cache.fill_block(block(0, 9)).block_addr == block(0, 1)

    def test_access_order_fully_respected(self):
        cache = make_cache(num_sets=1, associativity=4)
        for tag in range(4):
            cache.fill_block(block(0, tag))
        for tag in (2, 0, 3, 1):
            cache.access_block(block(0, tag))
        # Recency order is now 2 < 0 < 3 < 1, so tag 2 is the victim.
        assert cache.fill_block(block(0, 9)).block_addr == block(0, 2)

    def test_sets_are_independent(self):
        cache = make_cache(num_sets=2, associativity=2)
        for set_index, tag in ((0, 0), (0, 1), (1, 1), (1, 0)):
            cache.fill_block(block(set_index, tag, 2))
        assert cache.fill_block(block(0, 5, 2)).block_addr == block(0, 0, 2)
        assert cache.fill_block(block(1, 5, 2)).block_addr == block(1, 1, 2)


@given(touches=st.lists(st.tuples(st.integers(min_value=0, max_value=23),
                                  st.booleans()),
                        min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_property_victim_always_legal(touches):
    """Whatever the access pattern, every victim is the least recently
    touched resident block of the filled block's set."""
    cache = make_cache(num_sets=2, associativity=8)
    recency = {0: [], 1: []}  # per set, least recently touched first
    for number, fill in touches:
        address = number * 64
        order = recency[number % 2]
        resident = address in order
        if fill:
            eviction = cache.fill_block(address)
            victim = eviction.block_addr if eviction else None
            full_miss = not resident and len(order) == 8
            assert victim == (order.pop(0) if full_miss else None)
        else:
            assert cache.access_block(address)[0] == resident
            if not resident:
                continue
        if resident:
            order.remove(address)
        order.append(address)
    assert sorted(cache.resident_blocks()) \
        == sorted(recency[0] + recency[1])


@given(valid=st.lists(st.booleans(), min_size=8, max_size=8))
@settings(max_examples=60, deadline=None)
def test_property_invalid_ways_always_preferred(valid):
    """A full set with some ways invalidated refills every free way before
    it evicts a live line."""
    cache = make_cache(num_sets=1, associativity=8)
    for tag in range(8):
        cache.fill_block(block(0, tag))
    for tag, keep in enumerate(valid):
        if not keep:
            cache.invalidate(block(0, tag))
    for tag in range(8, 8 + valid.count(False)):
        assert cache.fill_block(block(0, tag)) is None
    assert cache.occupancy() == 8
    assert cache.fill_block(block(0, 99)) is not None
