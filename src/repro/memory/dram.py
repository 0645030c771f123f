"""DDR4-like main-memory timing model.

The paper's system uses a single DDR4-2400 x64 channel with Micron
MT40A1G8-style timings in an 8x8 configuration (Table I).  The level-prediction
results only need main-memory latency that (a) is substantially larger than the
LLC latency and (b) varies plausibly with row-buffer locality and bank-level
parallelism, so this model captures:

* address mapping to channel/rank/bank/row/column,
* open-page row-buffer policy with row hits, misses and conflicts,
* a simple bank busy model that adds queueing delay when a bank is reused
  before its previous access completes,
* refresh-interval overhead folded into an average penalty.

Timings are expressed in memory-controller cycles and converted to core cycles
with the core-to-memory frequency ratio (4 GHz core vs 1200 MHz DRAM clock).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .spec import MemorySpec


class DRAMModel:
    """Open-page DRAM channel with per-bank row-buffer state."""

    __slots__ = ("spec", "_ratio", "_num_banks", "_open_row",
                 "_bank_free_at", "_now")

    def __init__(self, spec: MemorySpec = MemorySpec()) -> None:
        self.spec = spec
        self._ratio = spec.core_cycles_per_dram_cycle
        self._num_banks = spec.num_banks * spec.num_ranks
        # Per-bank open row and the core-cycle time the bank becomes free,
        # indexed by bank id (lists beat dicts for this dense, small space).
        self._open_row: List[Optional[int]] = [None] * self._num_banks
        self._bank_free_at: List[float] = [0.0] * self._num_banks
        self._now = 0.0

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def map_address(self, address: int) -> Tuple[int, int]:
        """Map a physical address to (bank, row)."""
        spec = self.spec
        row_index = address // spec.row_size_bytes
        bank = row_index % (spec.num_banks * spec.num_ranks)
        row = row_index // (spec.num_banks * spec.num_ranks)
        return bank, row

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def access(self, address: int,
               current_cycle: float | None = None) -> float:
        """Service one 64-byte access and return its latency in core cycles.

        A read and a writeback open rows and occupy banks alike.

        Args:
            address: Physical byte address.
            current_cycle: Core-cycle timestamp of the request; when omitted an
                internal monotonically advancing clock is used.
        """
        spec = self.spec
        ratio = self._ratio
        if current_cycle is None:
            # Without an external clock, requests are assumed to arrive at the
            # channel's peak burst rate (one 64 B transfer per burst window),
            # which is the densest request stream a real core could sustain.
            self._now += spec.burst_cycles * ratio
            current_cycle = self._now
        else:
            self._now = max(self._now, current_cycle)

        row_index = address // spec.row_size_bytes
        banks = self._num_banks
        bank = row_index % banks
        row = row_index // banks

        open_row = self._open_row[bank]
        if open_row is None:
            # Bank closed: activate then read/write.
            dram_cycles = spec.trcd + spec.cas_latency + spec.burst_cycles
        elif open_row == row:
            dram_cycles = spec.cas_latency + spec.burst_cycles
        else:
            # Row conflict: precharge, activate, access.
            dram_cycles = spec.trp + spec.trcd + spec.cas_latency + spec.burst_cycles
        self._open_row[bank] = row

        access_core_cycles = dram_cycles * ratio

        # Bank-level contention: back-to-back accesses to the same bank wait
        # for it to free up.  The wait is bounded by one full bank occupancy
        # because the functional front end has no issue backpressure — without
        # the bound a memory-bound trace would accumulate unbounded queueing
        # delay that no real (ROB-limited) core could generate.
        free_at = self._bank_free_at[bank]
        queue_delay = min(max(0.0, free_at - current_cycle),
                          access_core_cycles * spec.max_queue_fraction)
        finish = current_cycle + queue_delay + access_core_cycles
        self._bank_free_at[bank] = finish

        return (
            spec.controller_latency_core_cycles
            + queue_delay
            + access_core_cycles
            + spec.refresh_penalty_core_cycles
        )

    def idle_latency(self) -> float:
        """Latency of an access to an idle, closed bank (used for reporting)."""
        spec = self.spec
        dram_cycles = spec.trcd + spec.cas_latency + spec.burst_cycles
        return (
            spec.controller_latency_core_cycles
            + dram_cycles * spec.core_cycles_per_dram_cycle
            + spec.refresh_penalty_core_cycles
        )
