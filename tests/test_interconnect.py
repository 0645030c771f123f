"""Unit tests for the interconnect latency/contention model.

The walker charges the L1-to-L2 and LLC-to-memory hops inline from the
interconnect's spec and contention, so those hops are checked through
:meth:`CoreMemoryHierarchy.access`.
"""

from __future__ import annotations

import dataclasses

from repro.memory.hierarchy import CoreMemoryHierarchy, SharedMemorySystem
from repro.memory.interconnect import Interconnect
from repro.memory.spec import HierarchySpec, InterconnectSpec

from trace_helpers import make_load


def walker(active_cores: int = 1, **hops) -> CoreMemoryHierarchy:
    """The paper hierarchy with the given hop latencies."""
    spec = dataclasses.replace(HierarchySpec.paper_single_core(),
                               interconnect=InterconnectSpec(**hops))
    return CoreMemoryHierarchy(
        spec, shared=SharedMemorySystem(spec, num_cores=active_cores),
        active_cores=active_cores)


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
        ic = Interconnect(active_cores=1)
        assert ic.contention == 0
        assert ic.l2_to_llc_latency() == ic.spec.l2_to_llc

    def test_contention_grows_with_cores(self):
        single = Interconnect(active_cores=1)
        quad = Interconnect(active_cores=4)
        assert quad.l2_to_llc_latency() > single.l2_to_llc_latency()
        assert quad.recovery_latency() > single.recovery_latency()

    def test_private_hop_unaffected_by_contention(self):
        # L1 tag 4 + the L1-to-L2 hop 2 + L2 hit 12, at any core count.
        assert l2_hit_latency(walker(active_cores=4)) \
            == l2_hit_latency(walker(active_cores=1)) == 4 + 2 + 12

    def test_cache_to_cache_costs_both_hops(self):
        ic = Interconnect()
        assert ic.cache_to_cache_latency() >= (ic.spec.l1_to_l2
                                               + ic.spec.l2_to_llc)

    def test_transfer_counters(self):
        ic = Interconnect()
        ic.cache_to_cache_latency()
        ic.l2_to_llc_latency()
        ic.recovery_latency()
        assert ic.transfers == 2
        assert ic.recovery_transactions == 1
        ic.reset_statistics()
        assert ic.transfers == 0

    def test_custom_configuration(self):
        ic = Interconnect(InterconnectSpec(l1_to_l2=5, l2_to_llc=9,
                                           llc_to_memory=11,
                                           recovery_transaction=13))
        assert ic.l2_to_llc_latency() == 9
        assert ic.recovery_latency() == 13
        assert ic.cache_to_cache_latency() == 14
        assert l2_hit_latency(walker(l1_to_l2=5)) == 4 + 5 + 12
        assert memory_latency(walker(llc_to_memory=11)) \
            == memory_latency(walker()) + 11 - 6


class TestContention:
    """Arbitration/queueing edges of the shared-bus contention model."""

    def test_contention_is_linear_in_extra_cores(self):
        spec = InterconnectSpec()
        per_core = spec.contention_per_extra_core
        latencies = [Interconnect(spec, active_cores=cores)
                     .l2_to_llc_latency() for cores in (1, 2, 3, 4)]
        deltas = [b - a for a, b in zip(latencies, latencies[1:])]
        assert deltas == [per_core] * 3

    def test_every_shared_hop_sees_the_same_contention(self):
        quad = Interconnect(active_cores=4)
        single = Interconnect(active_cores=1)
        penalty = quad.spec.contention_per_extra_core * 3
        assert quad.l2_to_llc_latency() - single.l2_to_llc_latency() \
            == penalty
        assert quad.recovery_latency() - single.recovery_latency() \
            == penalty
        assert quad.cache_to_cache_latency() \
            - single.cache_to_cache_latency() == penalty
        # A miss to memory crosses two shared hops: into the LLC and on
        # to the memory controller.
        assert memory_latency(walker(active_cores=4)) \
            - memory_latency(walker(active_cores=1)) == 2 * penalty

    def test_non_positive_core_count_clamps_to_one(self):
        for cores in (0, -3):
            ic = Interconnect(active_cores=cores)
            assert ic.active_cores == 1
            assert ic.l2_to_llc_latency() == ic.spec.l2_to_llc

    def test_custom_contention_weight(self):
        spec = InterconnectSpec(l2_to_llc=4, contention_per_extra_core=2.5)
        ic = Interconnect(spec, active_cores=3)
        assert ic.l2_to_llc_latency() == 4 + 2 * 2.5

    def test_zero_contention_weight_makes_hops_core_independent(self):
        spec = InterconnectSpec(contention_per_extra_core=0.0)
        single = Interconnect(spec, active_cores=1)
        many = Interconnect(spec, active_cores=8)
        assert many.l2_to_llc_latency() == single.l2_to_llc_latency()
        assert many.recovery_latency() == single.recovery_latency()


class TestCounters:
    def test_recovery_is_not_counted_as_a_transfer(self):
        ic = Interconnect()
        ic.recovery_latency()
        assert ic.transfers == 0
        assert ic.recovery_transactions == 1

    def test_cache_to_cache_and_memory_hops_count_as_transfers(self):
        ic = Interconnect()
        ic.cache_to_cache_latency()
        assert ic.transfers == 1
        assert ic.recovery_transactions == 0
        # A cold miss crosses L1->L2, L2->LLC and LLC->memory.
        hierarchy = walker()
        hierarchy.access(make_load(0x10000))
        assert hierarchy.interconnect.transfers == 3

    def test_reset_clears_both_counters(self):
        ic = Interconnect()
        ic.l2_to_llc_latency()
        ic.recovery_latency()
        ic.reset_statistics()
        assert ic.transfers == 0
        assert ic.recovery_transactions == 0
        # Latencies are unaffected by the reset.
        assert ic.l2_to_llc_latency() == ic.spec.l2_to_llc
