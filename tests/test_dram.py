"""Unit tests for the DDR4-like DRAM timing model."""

from __future__ import annotations

import pytest

from typing import List

from repro.memory.dram import DRAMModel
from repro.memory.hierarchy import CoreMemoryHierarchy
from repro.memory.spec import HierarchySpec, MemorySpec

from trace_helpers import make_load


def row_outcomes(dram: DRAMModel, addresses) -> List[str]:
    """Each access's row-buffer outcome, read off its latency: the
    accesses are spaced far apart, so no queueing adds to it."""
    spec = dram.spec
    burst = spec.cas_latency + spec.burst_cycles
    names = {burst: "hit", spec.trcd + burst: "miss",
             spec.trp + spec.trcd + burst: "conflict"}
    outcomes = []
    for number, address in enumerate(addresses, start=1):
        latency = dram.access(address, current_cycle=number * 1e6)
        cycles = (latency - spec.controller_latency_core_cycles
                  - spec.refresh_penalty_core_cycles) \
            / spec.core_cycles_per_dram_cycle
        outcome = min(names, key=lambda known: abs(known - cycles))
        assert cycles == pytest.approx(outcome)
        outcomes.append(names[outcome])
    return outcomes


class TestTiming:
    def test_idle_latency_larger_than_llc(self):
        dram = DRAMModel()
        # Main memory must be much slower than the 55-cycle LLC for the
        # level-prediction trade-offs of the paper to hold.
        assert dram.idle_latency() > 100

    def test_row_hit_faster_than_row_miss(self):
        dram = DRAMModel()
        first = dram.access(0x0)          # row miss (activate)
        second = dram.access(0x40)        # same row: row hit
        assert second < first
        assert row_outcomes(DRAMModel(), (0x0, 0x40)) == ["miss", "hit"]

    def test_row_conflict_slowest(self):
        spec = MemorySpec()
        dram = DRAMModel(spec)
        dram.access(0x0)
        conflict_addr = spec.row_size_bytes * spec.num_banks  # same bank, new row
        bank0, row0 = dram.map_address(0x0)
        bank1, row1 = dram.map_address(conflict_addr)
        assert bank0 == bank1 and row0 != row1
        latency = dram.access(conflict_addr)
        assert latency >= dram.idle_latency()
        assert row_outcomes(DRAMModel(spec), (0x0, conflict_addr)) \
            == ["miss", "conflict"]

    def test_core_cycle_conversion(self):
        spec = MemorySpec(core_frequency_ghz=4.0, dram_frequency_mhz=1200.0)
        assert spec.core_cycles_per_dram_cycle == pytest.approx(10.0 / 3.0)


class TestAddressMapping:
    def test_distinct_rows_map_to_different_banks(self):
        dram = DRAMModel()
        banks = {dram.map_address(i * dram.spec.row_size_bytes)[0]
                 for i in range(dram.spec.num_banks)}
        assert len(banks) == dram.spec.num_banks

    def test_same_row_same_mapping(self):
        dram = DRAMModel()
        assert dram.map_address(0x100) == dram.map_address(0x180)


class TestStatistics:
    def test_row_hit_ratio(self):
        outcomes = row_outcomes(DRAMModel(), (0x0, 0x40, 0x80))
        assert outcomes.count("hit") / len(outcomes) \
            == pytest.approx(2.0 / 3.0)

    def test_queueing_delay_is_bounded(self):
        """Back-to-back same-bank accesses must not accumulate unbounded
        queueing delay (the functional front end has no backpressure)."""
        dram = DRAMModel()
        latencies = [dram.access(0x0 if i % 2 == 0 else 0x40)
                     for i in range(200)]
        assert max(latencies) <= 3 * dram.idle_latency()


class TestRowBufferTransitions:
    """Open-page policy edges: hit -> conflict -> hit sequences, per-bank
    row state, and the exact latency ordering of the three outcomes."""

    def test_conflict_reopens_the_new_row(self):
        spec = MemorySpec()
        stride = spec.row_size_bytes * spec.num_banks  # same bank
        # Opens row 0, conflicts to open row 1, then hits the new row.
        assert row_outcomes(DRAMModel(spec), (0x0, stride, stride + 0x40)) \
            == ["miss", "conflict", "hit"]

    def test_hit_conflict_hit_round_trip(self):
        spec = MemorySpec()
        stride = spec.row_size_bytes * spec.num_banks
        sequence = [0x0, 0x80, stride, 0x0, 0x100]
        # Row 1 conflicts, and so does going back to row 0.
        assert row_outcomes(DRAMModel(spec), sequence) \
            == ["miss", "hit", "conflict", "conflict", "hit"]

    def test_banks_keep_independent_open_rows(self):
        spec = MemorySpec()
        bank1 = spec.row_size_bytes                    # bank 1, row 0
        conflict = spec.row_size_bytes * spec.num_banks
        # Banks 0 and 1 open, bank 0 conflicts, bank 1 is still open.
        assert row_outcomes(DRAMModel(spec),
                            (0x0, bank1, conflict, bank1 + 0x40)) \
            == ["miss", "miss", "conflict", "hit"]

    def test_first_access_to_every_bank_is_a_miss(self):
        spec = MemorySpec()
        assert row_outcomes(DRAMModel(spec),
                            [bank * spec.row_size_bytes
                             for bank in range(spec.num_banks)]) \
            == ["miss"] * spec.num_banks

    def test_latency_ordering_hit_miss_conflict(self):
        """tCL+burst < tRCD+tCL+burst < tRP+tRCD+tCL+burst, spaced far
        apart in time so queueing never contributes."""
        spec = MemorySpec()
        stride = spec.row_size_bytes * spec.num_banks
        dram = DRAMModel(spec)
        gap = 100_000.0
        miss = dram.access(0x0, current_cycle=gap)
        hit = dram.access(0x40, current_cycle=2 * gap)
        conflict = dram.access(stride, current_cycle=3 * gap)
        assert hit < miss < conflict

    def test_writes_update_row_state_like_reads(self):
        """A dirty LLC victim's writeback opens its row as a read does:
        the next demand miss to that row hits it."""
        spec = HierarchySpec.paper_single_core()
        hierarchy = CoreMemoryHierarchy(spec)
        victim = hierarchy.shared.l3
        victim.fill_block(0x0, dirty=True)
        stride = spec.llc.size_bytes // spec.llc.associativity
        for way in range(1, spec.llc.associativity):
            victim.fill_block(way * stride)
        eviction = victim.fill_block(spec.llc.associativity * stride)
        assert eviction is not None and eviction.block_addr == 0x0
        assert hierarchy.shared.l3_eviction_to_memory(eviction)
        dram = hierarchy.shared.dram
        assert row_outcomes(dram, (0x40,)) == ["hit"]

    def test_open_rows_survive_statistics_reset(self):
        """Resetting a hierarchy's statistics keeps the row-buffer state —
        warm-up then measure must not re-pay activates."""
        hierarchy = CoreMemoryHierarchy(HierarchySpec.paper_single_core())
        hierarchy.access(make_load(0x10000))
        hierarchy.reset_statistics()
        assert row_outcomes(hierarchy.shared.dram, (0x10040,)) == ["hit"]


class TestClockAndQueueing:
    def test_spaced_requests_pay_no_queueing(self):
        dram = DRAMModel()
        first = dram.access(0x0, current_cycle=0.0)
        assert first == pytest.approx(dram.idle_latency())

    def test_back_to_back_same_bank_pays_queueing(self):
        dram = DRAMModel()
        dram.access(0x0, current_cycle=0.0)
        queued = dram.access(0x40, current_cycle=0.0)
        spaced = DRAMModel()
        spaced.access(0x0, current_cycle=0.0)
        free = spaced.access(0x40, current_cycle=1_000_000.0)
        assert queued > free

    def test_queue_delay_capped_by_max_queue_fraction(self):
        spec = MemorySpec(max_queue_fraction=0.0)
        dram = DRAMModel(spec)
        dram.access(0x0, current_cycle=0.0)
        second = dram.access(0x40, current_cycle=0.0)
        # With the cap at zero, a busy bank adds no delay at all.
        reference = DRAMModel(spec)
        reference.access(0x0, current_cycle=0.0)
        assert second == reference.access(0x40,
                                          current_cycle=1_000_000.0)

    def test_internal_clock_never_runs_backwards(self):
        dram = DRAMModel()
        dram.access(0x0, current_cycle=5_000.0)
        dram.access(0x40, current_cycle=1_000.0)   # stale timestamp
        assert dram._now >= 5_000.0

    def test_different_banks_never_queue_on_each_other(self):
        spec = MemorySpec()
        dram = DRAMModel(spec)
        dram.access(0x0, current_cycle=0.0)
        other_bank = dram.access(spec.row_size_bytes, current_cycle=0.0)
        assert other_bank == pytest.approx(dram.idle_latency())


class TestStatisticsEdges:
    def test_rank_count_multiplies_the_bank_pool(self):
        spec = MemorySpec(num_ranks=2)
        dram = DRAMModel(spec)
        banks = {dram.map_address(i * spec.row_size_bytes)[0]
                 for i in range(spec.num_banks * 2)}
        assert len(banks) == spec.num_banks * 2
