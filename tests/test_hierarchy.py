"""Integration tests for the memory hierarchy (baseline and level-predicted),
plus randomised invariants of the one hierarchy walker at depths 2-5."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import SequentialPredictor
from repro.core.d2d import DirectToDataPredictor, IdealPredictor
from repro.core.level_predictor import CacheLevelPredictor
from repro.memory.block import AccessType, Level, MemoryAccess
from repro.memory.hierarchy import (
    _EVICT_L3_DIRTY,
    _WHERE_MEM,
    CoreMemoryHierarchy,
    SharedMemorySystem,
)
from repro.memory.spec import HierarchySpec
from repro.prefetch.base import Prefetcher
from repro.prefetch.nextline import TaggedNextLinePrefetcher
from repro.sim.config import SystemConfig
from repro.sim.system import SimulatedSystem
from repro.trace import TraceBuffer
from repro.workloads.suite import build_workload

from trace_helpers import hierarchy_specs, make_load, make_store, records, \
    traffic


def build_hierarchy(config=None, predictor=None, **kwargs) -> CoreMemoryHierarchy:
    config = config or HierarchySpec.paper_single_core()
    shared = SharedMemorySystem(config, num_cores=1)
    return CoreMemoryHierarchy(config=config, shared=shared,
                               predictor=predictor, **kwargs)


class TestBaselineLatencies:
    """The sequential lookup path must follow the Table I latencies."""

    def test_cold_miss_goes_to_memory(self):
        hierarchy = build_hierarchy()
        result = hierarchy.access(make_load(0x10000))
        assert result.hit_level is Level.MEM
        assert result.latency > 100

    def test_l1_hit_latency(self):
        hierarchy = build_hierarchy()
        hierarchy.access(make_load(0x10000))
        result = hierarchy.access(make_load(0x10000))
        assert result.hit_level is Level.L1
        assert result.latency == pytest.approx(hierarchy.config.l1.hit_latency)

    def test_l2_hit_after_l1_eviction(self):
        config = HierarchySpec.paper_single_core()
        hierarchy = build_hierarchy(config)
        hierarchy.access(make_load(0x10000))
        # Evict 0x10000 from the (4 KiB-per-set... ) L1 by filling its set.
        # L1 is 32 KiB 4-way: addresses 8 KiB apart share a set.
        for i in range(1, 6):
            hierarchy.access(make_load(0x10000 + i * 8 * 1024))
        result = hierarchy.access(make_load(0x10000))
        assert result.hit_level is Level.L2
        # Latency: L1 tag + hop + L2 hit.
        assert result.latency < 40

    def test_memory_latency_exceeds_llc_latency(self):
        hierarchy = build_hierarchy()
        mem = hierarchy.access(make_load(0x200000))
        hit = hierarchy.access(make_load(0x200000))
        assert mem.latency > 3 * hit.latency

    def test_ordering_of_level_latencies(self):
        """L1 < L2 < L3 < MEM in the sequential baseline."""
        hierarchy = build_hierarchy()
        mem_lat = hierarchy.access(make_load(0x40000)).latency
        l1_lat = hierarchy.access(make_load(0x40000)).latency
        assert l1_lat < mem_lat

    def test_parallel_level_hit_costs_max_of_tag_and_data(self):
        """The walker charges the spec's hit latency: a parallel level
        with a 4-cycle tag and a 14-cycle data array hits in 14 cycles."""
        paper = HierarchySpec.paper_single_core()
        l2 = dataclasses.replace(paper.levels[1], tag_latency=4,
                                 data_latency=14)
        config = dataclasses.replace(paper, levels=(paper.l1, l2, paper.llc))
        assert l2.hit_latency == 14
        hierarchy = build_hierarchy(config)
        hierarchy.access(make_load(0x10000))  # warms the page's TLB entry
        hierarchy.l2.fill_block(0x10040)
        result = hierarchy.access(make_load(0x10040))
        assert result.hit_level is Level.L2
        # L1 tag + the L1-to-L2 hop + the L2 hit.
        assert result.latency == 4 + 2 + 14


class TestDataMovement:
    def test_fill_propagates_to_all_levels(self):
        hierarchy = build_hierarchy()
        hierarchy.access(make_load(0x12340))
        block = 0x12340 & ~63
        assert hierarchy.l1.contains_block(block)
        assert hierarchy.l2.contains_block(block)
        assert hierarchy.shared.l3.contains_block(block)

    def test_inclusion_l1_subset_of_l2(self):
        hierarchy = build_hierarchy()
        for i in range(4000):
            hierarchy.access(make_load(i * 64))
        for block in hierarchy.l1.resident_blocks():
            assert hierarchy.l2.contains_block(block)

    def test_store_marks_block_dirty(self):
        hierarchy = build_hierarchy()
        hierarchy.access(make_store(0x5000))
        assert hierarchy.l1.peek_line(0x5000).dirty

    def test_directory_tracks_private_fills(self):
        hierarchy = build_hierarchy()
        hierarchy.access(make_load(0x9000))
        directory = hierarchy.shared.directory
        assert directory.remote_holder(0x9000 & ~63, exclude_core=1) == 0

    def test_dirty_l3_eviction_writes_back_to_dram(self):
        config = HierarchySpec.paper_single_core()
        hierarchy = build_hierarchy(config)
        # Write far more dirty blocks than the LLC can hold.
        blocks = (config.llc.size_bytes // 64) + 4096
        walk = hierarchy.walk(TraceBuffer.from_accesses(
            [make_store(i * 64) for i in range(blocks)]))
        dirty_victims = walk.note_code.count(_EVICT_L3_DIRTY)
        assert dirty_victims > 0
        # Every DRAM access is a demand miss to memory or the writeback
        # of a dirty LLC victim.
        assert walk.dram_charges == walk.where.count(_WHERE_MEM) \
            + dirty_victims


class TestStatistics:
    def test_miss_counts_are_monotone(self):
        """L1 misses >= L2 misses >= L3 misses for any trace."""
        hierarchy = build_hierarchy()
        for i in range(3000):
            hierarchy.access(make_load((i * 7919) % 100000 * 64))
        counts = hierarchy.miss_counts()
        assert counts["l1_misses"] >= counts["l2_misses"] >= counts["l3_misses"]

    def test_average_latency_positive(self):
        hierarchy = build_hierarchy()
        for i in range(100):
            hierarchy.access(make_load(i * 64))
        assert hierarchy.stats.average_memory_access_latency > 0

    def test_rejects_non_demand_access(self):
        hierarchy = build_hierarchy()
        with pytest.raises(ValueError):
            hierarchy.access(MemoryAccess(address=0,
                                          access_type=AccessType.PREFETCH))

    def test_reset_statistics(self):
        hierarchy = build_hierarchy()
        hierarchy.access(make_load(0x40))
        hierarchy.reset_statistics()
        assert hierarchy.stats.demand_accesses == 0
        assert hierarchy.energy.total == 0.0


class TestLevelPredictedPath:
    def test_correct_skip_is_faster_than_baseline(self):
        """A correct L2 bypass must be faster than the sequential lookup."""
        baseline = build_hierarchy(predictor=SequentialPredictor())
        predicted = build_hierarchy(predictor=DirectToDataPredictor())
        address = 0x800000
        # Touch once so the block lands in L3+L2+L1, then push it out of the
        # small L1/L2 by touching conflicting addresses far apart, leaving it
        # in the LLC only for the second access.
        for hierarchy in (baseline, predicted):
            hierarchy.access(make_load(address))
            for i in range(1, 40):
                hierarchy.access(make_load(address + i * 256 * 1024))
        base_result = baseline.access(make_load(address))
        pred_result = predicted.access(make_load(address))
        assert base_result.hit_level == pred_result.hit_level
        if base_result.hit_level in (Level.L3, Level.MEM):
            assert pred_result.latency < base_result.latency

    def test_harmful_misprediction_recovers_correct_level(self):
        """Bypassing an L2-resident block must be detected and recovered."""
        predictor = CacheLevelPredictor()
        hierarchy = build_hierarchy(predictor=predictor)
        address = 0x40000
        hierarchy.access(make_load(address))
        # Force the LocMap to believe the block is in memory although it still
        # sits in L2 (stale metadata is the paper's harmful case).
        predictor.locmap._apply(address, Level.MEM)
        # Evict from L1 only so the next access is an L1 miss that hits L2.
        hierarchy.l1.invalidate(address)
        result = hierarchy.access(make_load(address))
        assert result.hit_level is Level.L2
        assert result.misprediction
        assert hierarchy.stats.recoveries == 1
        # Recovery costs more than a plain sequential L2 hit would have.
        assert result.latency > 30

    def test_prediction_statistics_recorded(self):
        hierarchy = build_hierarchy(predictor=CacheLevelPredictor())
        for i in range(200):
            hierarchy.access(make_load(i * 64 * 113))
        assert hierarchy.predictor.stats.predictions == hierarchy.stats.predictions
        assert hierarchy.stats.predictions > 0

    def test_ideal_configuration_never_slower_than_baseline(self):
        baseline = build_hierarchy()
        ideal = build_hierarchy(predictor=IdealPredictor())
        total_base = total_ideal = 0.0
        for i in range(500):
            address = (i * 7919) % 50000 * 64
            total_base += baseline.access(make_load(address)).latency
            total_ideal += ideal.access(make_load(address)).latency
        assert total_ideal <= total_base

    def test_energy_breakdown_has_predictor_category(self):
        hierarchy = build_hierarchy(predictor=CacheLevelPredictor())
        for i in range(50):
            hierarchy.access(make_load(i * 64 * 1009))
        breakdown = hierarchy.energy.breakdown()
        assert breakdown.get("predictor", 0.0) > 0.0
        assert breakdown.get("hierarchy", 0.0) > 0.0


class TestPrefetcherIntegration:
    def test_next_line_prefetcher_raises_l1_hit_rate(self):
        no_prefetch = build_hierarchy()
        with_prefetch = build_hierarchy(
            l1_prefetcher=TaggedNextLinePrefetcher(degree=1),
            l2_prefetcher=TaggedNextLinePrefetcher(degree=2))
        for i in range(2000):
            address = i * 64
            no_prefetch.access(make_load(address))
            with_prefetch.access(make_load(address))
        assert with_prefetch.stats.l1_hits > no_prefetch.stats.l1_hits

    def test_prefetches_counted(self):
        hierarchy = build_hierarchy(
            l1_prefetcher=TaggedNextLinePrefetcher(degree=1))
        for i in range(100):
            hierarchy.access(make_load(i * 64))
        assert hierarchy.stats.prefetches_issued > 0

    def test_demand_hits_on_prefetched_lines_are_useful(self):
        """An L2-prefetched and an LLC-prefetched line each take a demand
        hit: both prefetchers are credited, not only the L1 one."""

        class FarLinePrefetcher(Prefetcher):
            """Prefetches 64 KiB past every miss, clear of the next line."""

            def _generate(self, access):
                return [] if access.hit else [access.address + 0x10000]

        l2_prefetcher = TaggedNextLinePrefetcher(degree=1)
        llc_prefetcher = FarLinePrefetcher()
        config = HierarchySpec.paper_single_core()
        hierarchy = CoreMemoryHierarchy(
            config=config, l2_prefetcher=l2_prefetcher,
            shared=SharedMemorySystem(config, num_cores=1,
                                      llc_prefetcher=llc_prefetcher))
        miss = hierarchy.access(make_load(0x100000))
        assert miss.hit_level is Level.MEM
        assert hierarchy.access(make_load(0x100040)).hit_level is Level.L2
        assert l2_prefetcher.stats.useful == 1
        assert llc_prefetcher.stats.useful == 0
        assert hierarchy.access(make_load(0x110000)).hit_level is Level.L3
        assert llc_prefetcher.stats.useful == 1
        assert l2_prefetcher.stats.useful == 1


# ======================================================================
# Randomised invariants of the one walker (depths 2-5)
# ======================================================================
def _walker(spec: HierarchySpec, predictor: str) -> CoreMemoryHierarchy:
    return SimulatedSystem(SystemConfig(name="walker-test", hierarchy=spec,
                                        predictor=predictor)).hierarchy


def _assert_prefetch_accounting(hierarchy: CoreMemoryHierarchy) -> None:
    reported = (hierarchy.l1_prefetcher.stats.issued
                + hierarchy.l2_prefetcher.stats.issued
                + hierarchy.shared.llc_prefetcher.stats.issued)
    stats = hierarchy.stats
    assert reported == stats.prefetches_issued \
        + stats.prefetches_dropped_mshr


class TestWalkerInvariants:
    @pytest.mark.parametrize("app", ["gapbs.pr", "605.mcf", "stream"])
    @pytest.mark.parametrize("predictor", ["baseline", "lp", "ideal"])
    def test_prefetch_accounting_on_paper_workloads(self, app, predictor):
        hierarchy = SimulatedSystem(
            SystemConfig.paper_single_core(predictor)).hierarchy
        hierarchy.run_buffer(build_workload(app).generate_buffer(1500))
        assert hierarchy.stats.prefetches_dropped_mshr > 0
        _assert_prefetch_accounting(hierarchy)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(spec=hierarchy_specs(), buffer=traffic(),
           predictor=st.sampled_from(("baseline", "lp", "d2d", "ideal")))
    def test_random_hierarchies_and_traffic(self, spec, buffer, predictor):
        hierarchy = _walker(spec, predictor)
        latencies = hierarchy.run_buffer(buffer)

        # Every demand access is served by exactly one level.
        stats = hierarchy.stats
        assert (stats.l1_hits + stats.l2_hits + stats.l3_hits
                + stats.memory_accesses) == stats.demand_accesses \
            == len(buffer)

        # Every private level is inclusive of the levels above it: an
        # L1-resident block sits in every intermediate, and a block in
        # one intermediate sits in every deeper one.
        private = (hierarchy.l1,) + hierarchy._intermediates
        for index, closer in enumerate(private):
            for block in closer.resident_blocks():
                for deeper in private[index + 1:]:
                    assert deeper.contains_block(block), (deeper.name, block)

        # Every candidate a prefetcher reports is either issued or dropped
        # at the MSHR budget gate.
        _assert_prefetch_accounting(hierarchy)

        # No access is faster than an L1 hit.
        l1_hit = spec.l1.hit_latency
        assert all(latency >= l1_hit for latency in latencies)

        # One access() per row replays identically.
        by_access = _walker(spec, predictor)
        assert [by_access.access(a).latency for a in records(buffer)] \
            == latencies
        assert by_access.stats == stats
        assert by_access.energy.breakdown() == hierarchy.energy.breakdown()

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(spec=hierarchy_specs())
    def test_spec_json_is_a_fixed_point(self, spec):
        text = spec.to_json()
        assert HierarchySpec.from_json(text) == spec
        assert HierarchySpec.from_json(text).to_json() == text
