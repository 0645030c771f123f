"""Unit tests for the DDR4-like DRAM timing model."""

from __future__ import annotations

import pytest

from repro.memory.dram import DRAMModel
from repro.memory.spec import MemorySpec


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
        assert dram.stats.row_hits == 1
        assert dram.stats.row_misses == 1

    def test_row_conflict_slowest(self):
        spec = MemorySpec()
        dram = DRAMModel(spec)
        dram.access(0x0)
        conflict_addr = spec.row_size_bytes * spec.num_banks  # same bank, new row
        bank0, row0 = dram.map_address(0x0)
        bank1, row1 = dram.map_address(conflict_addr)
        assert bank0 == bank1 and row0 != row1
        latency = dram.access(conflict_addr)
        assert dram.stats.row_conflicts == 1
        assert latency >= dram.idle_latency()

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
    def test_read_write_counters(self):
        dram = DRAMModel()
        dram.access(0x0)
        dram.access(0x40, is_write=True)
        assert dram.stats.reads == 1
        assert dram.stats.writes == 1
        assert dram.stats.accesses == 2
        assert dram.stats.average_latency > 0

    def test_row_hit_ratio(self):
        dram = DRAMModel()
        dram.access(0x0)
        dram.access(0x40)
        dram.access(0x80)
        assert dram.stats.row_hit_ratio == pytest.approx(2.0 / 3.0)

    def test_reset(self):
        dram = DRAMModel()
        dram.access(0x0)
        dram.reset_statistics()
        assert dram.stats.accesses == 0
        assert dram.stats.total_latency_core_cycles == 0.0

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
        dram = DRAMModel(spec)
        stride = spec.row_size_bytes * spec.num_banks  # same bank
        dram.access(0x0)                 # miss: opens row 0
        dram.access(stride)              # conflict: opens row 1
        dram.access(stride + 0x40)       # same new row: hit
        assert dram.stats.row_misses == 1
        assert dram.stats.row_conflicts == 1
        assert dram.stats.row_hits == 1

    def test_hit_conflict_hit_round_trip(self):
        spec = MemorySpec()
        dram = DRAMModel(spec)
        stride = spec.row_size_bytes * spec.num_banks
        sequence = [0x0, 0x80, stride, 0x0, 0x100]
        for address in sequence:
            dram.access(address)
        # miss, hit, conflict (row 1), conflict (back to row 0), hit
        assert dram.stats.row_misses == 1
        assert dram.stats.row_hits == 2
        assert dram.stats.row_conflicts == 2

    def test_banks_keep_independent_open_rows(self):
        spec = MemorySpec()
        dram = DRAMModel(spec)
        bank1 = spec.row_size_bytes                    # bank 1, row 0
        dram.access(0x0)                                 # bank 0 opens
        dram.access(bank1)                               # bank 1 opens
        conflict = spec.row_size_bytes * spec.num_banks
        dram.access(conflict)                            # bank 0 conflicts
        dram.access(bank1 + 0x40)                        # bank 1 still open
        assert dram.stats.row_conflicts == 1
        assert dram.stats.row_hits == 1

    def test_first_access_to_every_bank_is_a_miss(self):
        spec = MemorySpec()
        dram = DRAMModel(spec)
        for bank in range(spec.num_banks):
            dram.access(bank * spec.row_size_bytes)
        assert dram.stats.row_misses == spec.num_banks
        assert dram.stats.row_hits == 0
        assert dram.stats.row_conflicts == 0

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
        dram = DRAMModel()
        dram.access(0x0, is_write=True)
        dram.access(0x40)
        assert dram.stats.row_misses == 1
        assert dram.stats.row_hits == 1
        assert dram.stats.writes == 1 and dram.stats.reads == 1

    def test_open_rows_survive_statistics_reset(self):
        """reset_statistics clears counters, not the row-buffer state —
        warm-up then measure must not re-pay activates."""
        dram = DRAMModel()
        dram.access(0x0)
        dram.reset_statistics()
        dram.access(0x40)
        assert dram.stats.row_hits == 1
        assert dram.stats.row_misses == 0


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
    def test_empty_model_reports_zero_ratios(self):
        dram = DRAMModel()
        assert dram.stats.accesses == 0
        assert dram.stats.row_hit_ratio == 0.0
        assert dram.stats.average_latency == 0.0

    def test_average_latency_is_total_over_accesses(self):
        dram = DRAMModel()
        total = sum(dram.access(i * 0x40) for i in range(4))
        assert dram.stats.average_latency == pytest.approx(total / 4)

    def test_rank_count_multiplies_the_bank_pool(self):
        spec = MemorySpec(num_ranks=2)
        dram = DRAMModel(spec)
        banks = {dram.map_address(i * spec.row_size_bytes)[0]
                 for i in range(spec.num_banks * 2)}
        assert len(banks) == spec.num_banks * 2
