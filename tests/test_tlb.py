"""Unit tests for the TLB hierarchy and page walker."""

from __future__ import annotations

import pytest

from repro.memory.spec import TLBSpec
from repro.memory.tlb import TLB, TLBHierarchy


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
        tlb.lookup(0x1000)
        tlb.insert(0x1000)
        tlb.lookup(0x1000)
        assert tlb.stats.miss_ratio == pytest.approx(0.5)


class TestHierarchy:
    def test_first_translation_walks(self):
        tlbs = TLBHierarchy(TLBSpec(page_walk_latency=50))
        assert translate(tlbs, 0x1000) == 4 + 50
        assert tlbs.page_walks == 1

    def test_l1_hit_is_free(self):
        """The L1 TLB is accessed in parallel with the VIPT L1 cache."""
        tlbs = TLBHierarchy(TLBSpec())
        translate(tlbs, 0x1000)
        assert translate(tlbs, 0x1000) == 0
        assert tlbs.l1.stats.hits == 1

    def test_l2_hit_costs_l2_latency(self):
        tlbs = TLBHierarchy(TLBSpec(l2_latency=7))
        # Fill enough distinct pages to push the first out of the 64-entry L1
        # TLB while keeping it in the much larger L2 TLB.
        for page in range(80):
            translate(tlbs, page * 4096)
        walks = tlbs.page_walks
        assert translate(tlbs, 0) == 7
        assert tlbs.page_walks == walks
        assert tlbs.l2.stats.hits == 1

    def test_paper_configuration_defaults(self):
        tlbs = TLBHierarchy(TLBSpec())
        # 64 first-level entries: 64 pages spread over its 16 sets all fit.
        for page in range(64):
            translate(tlbs, page * 4096)
        assert all(translate(tlbs, page * 4096) == 0 for page in range(64))
        assert translate(tlbs, 64 * 4096) == 4 + 50

    def test_miss_ratio_and_reset(self):
        tlbs = TLBHierarchy(TLBSpec())
        for page in range(10):
            translate(tlbs, page * 4096)
        assert 0.0 < tlbs.miss_ratio <= 1.0
        tlbs.reset_statistics()
        assert tlbs.page_walks == 0
        assert tlbs.l1.stats.accesses == 0
