"""Unit tests for the bus hop latencies and their contention.

The walker precomputes every hop from the spec's
:class:`~repro.memory.spec.InterconnectSpec` and its active core count:
each hop into a shared resource (the LLC, memory, a recovery, a
cache-to-cache forward) pays ``contention_per_extra_core`` per active
core beyond the first.  The L1-to-L2 and LLC-to-memory hops are also
checked end to end through :meth:`CoreMemoryHierarchy.access`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.memory.hierarchy import CoreMemoryHierarchy, SharedMemorySystem
from repro.memory.spec import HierarchySpec, InterconnectSpec

from trace_helpers import make_load


def walker(active_cores: int = 1, **hops) -> CoreMemoryHierarchy:
    """The paper hierarchy with the given hop latencies."""
    spec = dataclasses.replace(HierarchySpec.paper_single_core(),
                               interconnect=InterconnectSpec(**hops))
    return CoreMemoryHierarchy(
        spec, shared=SharedMemorySystem(spec, num_cores=active_cores),
        active_cores=active_cores)


def shared_hops(hierarchy: CoreMemoryHierarchy) -> Dict[str, float]:
    """The walker's latency of each hop into a shared resource."""
    return {"l2_to_llc": hierarchy._ic_l2_llc,
            "llc_to_memory": hierarchy._ic_llc_mem,
            "recovery": hierarchy._ic_recovery,
            "cache_to_cache": hierarchy._ic_cache_to_cache}


def l2_hit_latency(hierarchy: CoreMemoryHierarchy) -> float:
    """Latency of a sequential L2 hit on a page the TLB already holds."""
    hierarchy.access(make_load(0x10000))
    hierarchy.l2.fill_block(0x10040)
    return hierarchy.access(make_load(0x10040)).latency


def memory_latency(hierarchy: CoreMemoryHierarchy) -> float:
    """Latency of a sequential miss to an open DRAM row, TLB warm."""
    hierarchy.access(make_load(0x10000))
    return hierarchy.access(make_load(0x10040)).latency


class TestLatencies:
    def test_single_core_has_no_contention(self):
        spec = InterconnectSpec()
        assert shared_hops(walker(active_cores=1)) == {
            "l2_to_llc": spec.l2_to_llc,
            "llc_to_memory": spec.llc_to_memory,
            "recovery": spec.recovery_transaction,
            "cache_to_cache": spec.l2_to_llc + spec.l1_to_l2}

    def test_contention_grows_with_cores(self):
        single = shared_hops(walker(active_cores=1))
        quad = shared_hops(walker(active_cores=4))
        assert quad["l2_to_llc"] > single["l2_to_llc"]
        assert quad["recovery"] > single["recovery"]

    def test_private_hop_unaffected_by_contention(self):
        # L1 tag 4 + the L1-to-L2 hop 2 + L2 hit 12, at any core count.
        assert l2_hit_latency(walker(active_cores=4)) \
            == l2_hit_latency(walker(active_cores=1)) == 4 + 2 + 12

    def test_cache_to_cache_costs_both_hops(self):
        spec = InterconnectSpec()
        assert shared_hops(walker())["cache_to_cache"] \
            >= spec.l1_to_l2 + spec.l2_to_llc

    def test_custom_configuration(self):
        hops = shared_hops(walker(l1_to_l2=5, l2_to_llc=9, llc_to_memory=11,
                                  recovery_transaction=13))
        assert (hops["l2_to_llc"], hops["llc_to_memory"], hops["recovery"],
                hops["cache_to_cache"]) == (9, 11, 13, 14)
        assert l2_hit_latency(walker(l1_to_l2=5)) == 4 + 5 + 12
        assert memory_latency(walker(llc_to_memory=11)) \
            == memory_latency(walker()) + 11 - 6


class TestContention:
    """Arbitration/queueing edges of the shared-bus contention model."""

    def test_contention_is_linear_in_extra_cores(self):
        per_core = InterconnectSpec().contention_per_extra_core
        latencies = [shared_hops(walker(active_cores=cores))["l2_to_llc"]
                     for cores in (1, 2, 3, 4)]
        deltas = [b - a for a, b in zip(latencies, latencies[1:])]
        assert deltas == [per_core] * 3

    def test_every_shared_hop_sees_the_same_contention(self):
        quad = shared_hops(walker(active_cores=4))
        single = shared_hops(walker(active_cores=1))
        penalty = InterconnectSpec().contention_per_extra_core * 3
        assert {hop: quad[hop] - single[hop] for hop in quad} \
            == dict.fromkeys(quad, penalty)
        # A miss to memory crosses two shared hops: into the LLC and on
        # to the memory controller.
        assert memory_latency(walker(active_cores=4)) \
            - memory_latency(walker(active_cores=1)) == 2 * penalty

    def test_non_positive_core_count_clamps_to_one(self):
        spec = HierarchySpec.paper_single_core()
        for cores in (0, -3):
            hierarchy = CoreMemoryHierarchy(spec, active_cores=cores)
            assert shared_hops(hierarchy) == shared_hops(walker())

    def test_custom_contention_weight(self):
        hops = shared_hops(walker(active_cores=3, l2_to_llc=4,
                                  contention_per_extra_core=2.5))
        assert hops["l2_to_llc"] == 4 + 2 * 2.5

    def test_zero_contention_weight_makes_hops_core_independent(self):
        assert shared_hops(walker(active_cores=8,
                                  contention_per_extra_core=0.0)) \
            == shared_hops(walker(active_cores=1,
                                  contention_per_extra_core=0.0))


class TestCounters:
    def test_cache_to_cache_and_memory_hops_count_as_transfers(self):
        """A cold miss crosses L1->L2, L2->LLC and LLC->memory once
        each: a cycle more on any one hop is a cycle more on the miss."""
        base = memory_latency(walker())
        spec = InterconnectSpec()
        for hop in ("l1_to_l2", "l2_to_llc", "llc_to_memory"):
            slower = walker(**{hop: getattr(spec, hop) + 1})
            assert memory_latency(slower) == base + 1, hop
