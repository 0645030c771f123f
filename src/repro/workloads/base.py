"""Workload (trace generator) abstractions.

The paper evaluates SPEC CPU 2017, the GAPBS graph suite, NAS parallel
benchmarks and several kernels (gups, stream, hpcg, bmt, spmv) on real
hardware and in gem5.  Those binaries and inputs are not available here, so
each application is represented by a synthetic trace generator that reproduces
its *memory-hierarchy signature*: working-set sizes relative to L2/L3,
spatial locality and prefetchability, pointer-dependence (which limits
memory-level parallelism), store ratio, and compute density (non-memory
instructions per access).

These are exactly the properties that determine where each application lands
in Figure 1 (the L1/L2 vs. L2/L3 miss-filtering plane) and therefore how much
level prediction helps it — which is what the reproduction must preserve.
"""

from __future__ import annotations

import random
import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, Optional

from ..memory.block import AccessType, DEFAULT_BLOCK_SIZE, MemoryAccess
from ..trace import TraceBuffer

#: Spacing between the address spaces of co-running workloads (multi-core).
ADDRESS_SPACE_STRIDE = 1 << 36


@dataclass
class WorkloadProfile:
    """Qualitative profile used by documentation and the Figure-1 analysis.

    Attributes:
        suite: Which benchmark suite the application belongs to
            (``spec17``, ``gapbs``, ``nas``, ``other``).
        expected_benefit: The paper's classification: ``high`` for
            applications inside the green box of Figure 1, ``modest`` for the
            red box, ``low`` otherwise.
        description: One-line description of the reproduced behaviour.
    """

    suite: str
    expected_benefit: str
    description: str


class Workload(ABC):
    """A synthetic application trace generator.

    Subclasses implement :meth:`_accesses`, an iterator of
    :class:`MemoryAccess` records; the public :meth:`generate_buffer` packs a
    bounded trace with a deterministic seed so every experiment is repeatable.
    """

    def __init__(self, name: str, profile: Optional[WorkloadProfile] = None,
                 block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        self.name = name
        self.profile = profile or WorkloadProfile(
            suite="other", expected_benefit="modest", description="")
        self.block_size = block_size

    @abstractmethod
    def _accesses(self, rng: random.Random, base_address: int,
                  thread_id: int) -> Iterator[MemoryAccess]:
        """Yield an unbounded stream of accesses."""

    def _trace_rng(self, seed: int) -> random.Random:
        """The deterministic RNG a trace is generated from.

        crc32 (not hash()) keeps the per-workload seed stable across
        interpreter runs and worker processes: str hashing is randomized
        per process, which would make traces — and therefore every
        simulation result — irreproducible outside a single run and break
        the engine's serial == parallel guarantee under spawn.
        """
        name_seed = zlib.crc32(self.name.encode("utf-8"))
        return random.Random((seed << 16) ^ name_seed)

    # Read by perfbench until ROADMAP item 6 (its ``trace.generate`` span).
    def generate_buffer(self, num_accesses: int, seed: int = 0,
                        base_address: int = 0,
                        thread_id: int = 0) -> TraceBuffer:
        """Generate a bounded, reproducible trace as a columnar buffer.

        Args:
            num_accesses: Number of memory references to produce.
            seed: RNG seed; the same seed always yields the same trace.
            base_address: Offset added to every address, used to place
                co-running workloads in disjoint address regions.
            thread_id: Thread identifier stamped on every access.
        """
        if num_accesses <= 0:
            raise ValueError("num_accesses must be positive")
        rng = self._trace_rng(seed)
        stream = self._accesses(rng, base_address, thread_id)
        return TraceBuffer.from_stream(stream, num_accesses)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


def make_access(address: int, *, pc: int, rng: random.Random,
                store_fraction: float = 0.0,
                dependent: bool = False,
                non_memory_instructions: int = 3,
                thread_id: int = 0) -> MemoryAccess:
    """Helper used by generators to build one access record."""
    access_type = AccessType.LOAD
    if store_fraction > 0.0 and rng.random() < store_fraction:
        access_type = AccessType.STORE
    return MemoryAccess(
        address=address,
        access_type=access_type,
        pc=pc,
        depends_on_previous=dependent,
        non_memory_instructions=non_memory_instructions,
        thread_id=thread_id,
    )
