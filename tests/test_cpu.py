"""Unit tests for the out-of-order core timing model."""

from __future__ import annotations

import pytest

from repro.cpu.ooo_core import (
    CoreConfig,
    ExecutionResult,
    OutOfOrderCore,
    geometric_mean,
)
from repro.memory.block import MemoryAccess
from repro.trace import TraceBuffer


def load(address: int, dependent: bool = False, non_mem: int = 4) -> MemoryAccess:
    return MemoryAccess(address=address, depends_on_previous=dependent,
                        non_memory_instructions=non_mem)


def pack(accesses) -> TraceBuffer:
    return TraceBuffer.from_accesses(accesses)


class TestConfig:
    def test_paper_baseline(self):
        config = CoreConfig.paper_baseline()
        assert config.fetch_width == 4
        assert config.rob_entries == 192
        assert config.load_queue_entries == 32

    def test_aggressive_variant(self):
        config = CoreConfig.aggressive()
        assert config.rob_entries == 224
        assert config.load_queue_entries == 96

    def test_mlp_limit_bounded_by_lsq_and_rob(self):
        core = OutOfOrderCore(CoreConfig(rob_entries=64, load_queue_entries=32))
        assert core.mlp_limit(average_instructions_per_access=4.0) == 16
        assert core.mlp_limit(average_instructions_per_access=1.0) == 32


class TestExecution:
    def test_empty_trace(self):
        execution = OutOfOrderCore().execute(pack([load(0)])[:0], [])
        assert execution.cycles == 0.0
        assert execution.ipc == 0.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            OutOfOrderCore().execute(pack([load(0)]), [])

    def test_all_hits_bounded_by_fetch_width(self):
        core = OutOfOrderCore()
        trace = [load(i * 64, non_mem=4) for i in range(100)]
        latencies = [4.0] * len(trace)
        execution = core.execute(pack(trace), latencies)
        # 5 instructions per access at width 4 -> at least 1.25 cycles/access.
        assert execution.cycles >= 100 * 1.25 * 0.99
        assert 0 < execution.ipc <= 4.0

    def test_independent_misses_overlap(self):
        """Independent long-latency loads must overlap (MLP)."""
        core = OutOfOrderCore()
        trace = [load(i * 64, non_mem=2) for i in range(64)]
        latencies = [200.0] * len(trace)
        execution = core.execute(pack(trace), latencies)
        serialized = 64 * 200.0
        assert execution.cycles < serialized / 4

    def test_dependent_misses_serialize(self):
        """Pointer-chasing loads expose their full latency."""
        core = OutOfOrderCore()
        independent = [load(i * 64, dependent=False) for i in range(64)]
        dependent = [load(i * 64, dependent=True) for i in range(64)]
        latencies = [200.0] * 64
        t_indep = core.execute(pack(independent), latencies).cycles
        t_dep = core.execute(pack(dependent), latencies).cycles
        assert t_dep > 2 * t_indep

    def test_window_limits_overlap(self):
        """A small load queue exposes more latency than a large one."""
        small = OutOfOrderCore(CoreConfig(load_queue_entries=4))
        large = OutOfOrderCore(CoreConfig(load_queue_entries=64,
                                          rob_entries=512))
        trace = [load(i * 64, non_mem=1) for i in range(128)]
        latencies = [300.0] * len(trace)
        assert small.execute(pack(trace), latencies).cycles \
            > large.execute(pack(trace), latencies).cycles

    def test_lower_latency_gives_higher_ipc(self):
        """The property Figure 11 relies on: faster loads -> higher IPC."""
        core = OutOfOrderCore()
        trace = [load(i * 64, dependent=i % 3 == 0) for i in range(200)]
        slow = [250.0] * len(trace)
        fast = [200.0] * len(trace)
        slow_run = core.execute(pack(trace), slow)
        fast_run = core.execute(pack(trace), fast)
        assert fast_run.ipc > slow_run.ipc
        assert fast_run.speedup_over(slow_run) > 1.0

    def test_stall_cycles_reported(self):
        core = OutOfOrderCore()
        trace = [load(i * 64, dependent=True) for i in range(32)]
        latencies = [100.0] * len(trace)
        execution = core.execute(pack(trace), latencies)
        assert execution.stall_cycles > 0
        assert execution.memory_accesses == 32


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty_and_nonpositive(self):
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, -1.0]) == 0.0

    def test_single_value(self):
        assert geometric_mean([1.078]) == pytest.approx(1.078)
