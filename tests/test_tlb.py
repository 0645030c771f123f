"""Unit tests for the TLB hierarchy and page walker."""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.spec import TLBSpec
from repro.memory.tlb import TLB, TLBHierarchy, _EMPTY_SET


def translate(tlbs: TLBHierarchy, address: int) -> int:
    """Translate through the walker's entry point (4 KiB pages)."""
    return tlbs.translate_latency_page(address >> 12, address)


class TestSingleTLB:
    def test_miss_then_hit(self):
        tlb = TLB(16, 4, 4096)
        assert not tlb.lookup(0x1000)
        tlb.insert(0x1000)
        assert tlb.lookup(0x1234)  # same 4 KiB page
        assert not tlb.lookup(0x2000)

    def test_capacity_eviction_is_lru(self):
        tlb = TLB(4, 4, 4096)
        pages = [0x0, 0x1000, 0x2000, 0x3000]
        for page in pages:
            tlb.insert(page)
        tlb.lookup(0x0)          # page 0 becomes MRU
        tlb.insert(0x4000)       # evicts page 0x1000 (the LRU)
        assert tlb.lookup(0x0)
        assert not tlb.lookup(0x1000)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            TLB(0, 4, 4096)
        with pytest.raises(ValueError):
            TLB(10, 4, 4096)

    def test_miss_ratio(self):
        tlb = TLB(16, 4, 4096)
        hits = [tlb.lookup(0x1000)]
        tlb.insert(0x1000)
        hits.append(tlb.lookup(0x1000))
        assert hits.count(False) / len(hits) == pytest.approx(0.5)


class TestHierarchy:
    def test_first_translation_walks(self):
        tlbs = TLBHierarchy(TLBSpec(page_walk_latency=50))
        assert translate(tlbs, 0x1000) == 4 + 50

    def test_l1_hit_is_free(self):
        """The L1 TLB is accessed in parallel with the VIPT L1 cache."""
        tlbs = TLBHierarchy(TLBSpec())
        translate(tlbs, 0x1000)
        assert translate(tlbs, 0x1000) == 0

    def test_l2_hit_costs_l2_latency(self):
        tlbs = TLBHierarchy(TLBSpec(l2_latency=7))
        # Fill enough distinct pages to push the first out of the 64-entry L1
        # TLB while keeping it in the much larger L2 TLB.
        for page in range(80):
            translate(tlbs, page * 4096)
        # An L2 hit walks no page table, and it refills the L1 TLB.
        assert translate(tlbs, 0) == 7
        assert translate(tlbs, 0) == 0

    def test_paper_configuration_defaults(self):
        tlbs = TLBHierarchy(TLBSpec())
        # 64 first-level entries: 64 pages spread over its 16 sets all fit.
        for page in range(64):
            translate(tlbs, page * 4096)
        assert all(translate(tlbs, page * 4096) == 0 for page in range(64))
        assert translate(tlbs, 64 * 4096) == 4 + 50

    def test_miss_ratio_and_reset(self):
        """The page-walk ratio of a stream: each new page walks once."""
        spec = TLBSpec()
        tlbs = TLBHierarchy(spec)
        latencies = [translate(tlbs, page * 4096)
                     for page in list(range(10)) * 2]
        walks = sum(latency >= spec.page_walk_latency
                    for latency in latencies)
        assert walks / len(latencies) == pytest.approx(0.5)


class TestSetsOnFirstInsert:
    @staticmethod
    def eager(spec: TLBSpec) -> TLBHierarchy:
        """A hierarchy whose sets are all built up front."""
        tlbs = TLBHierarchy(spec)
        for tlb in (tlbs.l1, tlbs.l2):
            tlb._sets = [OrderedDict() for _ in tlb._sets]
        return tlbs

    def test_unfilled_sets_share_the_read_only_empty(self):
        tlb = TLB(16, 4, 4096)
        assert all(entries is _EMPTY_SET for entries in tlb._sets)
        assert not tlb.lookup(0x1000)
        assert all(entries is _EMPTY_SET for entries in tlb._sets)
        tlb.insert(0x1000)
        assert tlb._sets[1] is not _EMPTY_SET
        assert sum(entries is _EMPTY_SET for entries in tlb._sets) == 3
        with pytest.raises(TypeError):
            _EMPTY_SET[0] = True

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(pages=st.lists(st.integers(min_value=0, max_value=4095),
                          max_size=400),
           small=st.booleans())
    def test_translation_matches_eager_sets(self, pages, small):
        """A random translate stream: the same latencies and LRU order as
        eagerly built sets, and every set no insert reached is still the
        shared empty."""
        spec = (TLBSpec(l1_entries=8, l1_associativity=2, l2_entries=32,
                        l2_associativity=4) if small else TLBSpec())
        lazy, eager = TLBHierarchy(spec), self.eager(spec)
        for page in pages:
            address = page * spec.page_size + page % 64
            assert translate(lazy, address) == translate(eager, address)
        for ours, theirs in ((lazy.l1, eager.l1), (lazy.l2, eager.l2)):
            touched = {page % ours._num_sets for page in pages}
            for index, entries in enumerate(ours._sets):
                if index not in touched:
                    assert entries is _EMPTY_SET
                assert list(entries) == list(theirs._sets[index])
