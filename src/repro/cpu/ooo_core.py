"""Out-of-order core timing model.

The paper simulates a 4-wide out-of-order core with a 192-entry ROB and
32-entry load/store queues (Table I) on gem5.  Reproducing a cycle-level OoO
pipeline in Python would be prohibitively slow, so this module implements a
*window-limited overlap* model that captures exactly the properties that
determine how much level prediction helps:

* non-memory instructions retire at the fetch/commit width;
* independent loads overlap, up to the number of loads that fit in the load
  queue and the ROB at once (memory-level parallelism);
* loads whose address depends on the previous load's data (pointer chasing)
  serialise — their latency is exposed, which is why graph workloads benefit
  most from level prediction;
* in-order retirement: when the window is full, a new load cannot issue until
  the oldest in-flight load completes.

The model consumes the access trace together with the per-access latencies the
hierarchy produced and returns total cycles, instructions and IPC.  Speedups
are computed by timing the same trace against two hierarchies (baseline vs.
level-predicted), exactly how the paper reports Figure 11.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from typing import Deque, Iterable, Sequence

from ..trace import TraceBuffer


@dataclass
class CoreConfig:
    """Core microarchitecture parameters (Table I defaults).

    Only what the timing model reads.  Every in-flight access is bounded
    by the load queue and the ROB (:meth:`OutOfOrderCore.mlp_limit`), so
    there is no separate store-queue depth, and the core clock is
    :attr:`~repro.memory.spec.MemorySpec.core_frequency_ghz`, which the
    DRAM model converts with.

    Attributes:
        fetch_width: Instructions fetched/committed per cycle.
        rob_entries: Reorder-buffer capacity.
        load_queue_entries: Load-queue capacity.
    """

    fetch_width: int = 4
    rob_entries: int = 192
    load_queue_entries: int = 32

    @staticmethod
    def paper_baseline() -> "CoreConfig":
        return CoreConfig()

    @staticmethod
    def aggressive(rob_entries: int = 224,
                   load_queue_entries: int = 96) -> "CoreConfig":
        """The more aggressive cores of the sensitivity study (Figure 15)."""
        return CoreConfig(rob_entries=rob_entries,
                          load_queue_entries=load_queue_entries)

    def __canonical__(self, canonicalize):
        """Store-canonicalisation hook (see ``repro.sim.store``).

        The generic dataclass record plus the fields deleted because no
        model read them, with the values every key was written with: the
        store queue was always as deep as the load queue, the clock 4 GHz
        and the per-access front-end floor a quarter cycle.  So no key
        moved when they went.
        """
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        record.update(store_queue_entries=self.load_queue_entries,
                      frequency_ghz=4.0, min_instruction_cycles=0.25)
        return {"__dataclass__": "CoreConfig", "fields": record}


@dataclass
class ExecutionResult:
    """Outcome of timing one trace on the core model."""

    cycles: float
    instructions: int
    memory_accesses: int
    stall_cycles: float

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def speedup_over(self, baseline: "ExecutionResult") -> float:
        """IPC of this run relative to ``baseline`` (1.0 = no change)."""
        if baseline.ipc == 0.0:
            return 1.0
        return self.ipc / baseline.ipc


class OutOfOrderCore:
    """Window-limited overlap timing model of an out-of-order core."""

    def __init__(self, config: CoreConfig | None = None) -> None:
        self.config = config or CoreConfig()

    # ------------------------------------------------------------------
    # Memory-level parallelism limit
    # ------------------------------------------------------------------
    def mlp_limit(self, average_instructions_per_access: float) -> int:
        """Maximum loads in flight given the ROB and load-queue capacities."""
        cfg = self.config
        instructions_per_access = max(average_instructions_per_access, 1.0)
        rob_limited = int(cfg.rob_entries / instructions_per_access)
        return max(1, min(cfg.load_queue_entries, rob_limited))

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    # Read by perfbench until ROADMAP item 6 (its ``cpu.execute`` span).
    def execute(self, accesses: TraceBuffer,
                latencies: Sequence[float]) -> ExecutionResult:
        """Time a trace given the hierarchy's per-access load latencies.

        The timing loop reads two of the buffer's columns: the non-memory
        instruction count and the pointer-dependence flag.
        """
        if len(accesses) != len(latencies):
            raise ValueError("accesses and latencies must have the same "
                             "length")
        if not len(accesses):
            return ExecutionResult(cycles=0.0, instructions=0,
                                   memory_accesses=0, stall_cycles=0.0)

        non_memory = accesses.non_memory.tolist()
        dependent = accesses.dependent.tolist()

        cfg = self.config
        total_non_memory = sum(non_memory)
        instructions = total_non_memory + len(accesses)
        average_per_access = instructions / len(accesses)
        window = self.mlp_limit(average_per_access)

        outstanding: Deque[float] = deque()
        current_cycle = 0.0
        last_completion = 0.0
        ideal_cycles = 0.0

        # Hot loop: bind everything to locals (this runs once per access).
        fetch_width = cfg.fetch_width
        popleft = outstanding.popleft
        push = outstanding.append

        for non_mem, depends, latency in zip(non_memory, dependent,
                                             latencies):
            # Front-end: the non-memory instructions ahead of this access plus
            # the memory instruction itself, fetched at the commit width.
            front_end = (non_mem + 1) / fetch_width
            issue_cycle = current_cycle + front_end
            ideal_cycles += front_end

            # Dependence: pointer-chasing loads wait for the producing load.
            if depends and last_completion > issue_cycle:
                issue_cycle = last_completion

            # Window limit: retire the oldest in-flight loads that finished;
            # if the window is still full, stall until the oldest completes.
            while outstanding and outstanding[0] <= issue_cycle:
                popleft()
            if len(outstanding) >= window:
                oldest = popleft()
                if oldest > issue_cycle:
                    issue_cycle = oldest

            completion = issue_cycle + latency
            push(completion)
            last_completion = completion
            current_cycle = issue_cycle

        cycles = max(current_cycle, max(outstanding) if outstanding else 0.0,
                     last_completion)
        stall_cycles = max(0.0, cycles - ideal_cycles)
        return ExecutionResult(cycles=cycles, instructions=instructions,
                               memory_accesses=len(accesses),
                               stall_cycles=stall_cycles)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean used for the paper's suite-level speedup summaries."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))
