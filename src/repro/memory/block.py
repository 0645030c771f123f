"""Fundamental memory-system data types.

This module defines the small value types shared by every other part of the
simulator: physical addresses and their decompositions, memory-hierarchy
levels, access types, and the :class:`MemoryAccess` record that workload
generators produce and the hierarchy consumes.

The simulator works on *block* granularity (64 bytes by default, matching the
paper's configuration) but keeps full byte addresses in the access records so
that sub-block structures (the TLB, the LocMap address mapping) can be modelled
faithfully.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: Default cache block (line) size in bytes, as used throughout the paper.
DEFAULT_BLOCK_SIZE = 64

#: Default page size in bytes (4 KiB pages unless a workload asks for 2 MiB).
DEFAULT_PAGE_SIZE = 4096


class Level(enum.IntEnum):
    """Memory-hierarchy levels.

    The integer values order the levels from closest to the core (L1) to the
    furthest (main memory).  The level predictor never predicts L1 (see
    Section III.A of the paper); its prediction targets are L2, L3 and MEM.
    """

    L1 = 1
    L2 = 2
    L3 = 3
    MEM = 4

    @property
    def is_cache(self) -> bool:
        """True for on-chip cache levels (L1, L2, L3)."""
        return self is not Level.MEM

    def closer_than(self, other: "Level") -> bool:
        """True if ``self`` is closer to the core than ``other``."""
        return int(self) < int(other)


#: The set of levels the level predictor may target (everything but L1).
PREDICTABLE_LEVELS = (Level.L2, Level.L3, Level.MEM)


class AccessType(enum.Enum):
    """Type of a memory access as seen by the hierarchy."""

    LOAD = "load"
    STORE = "store"
    PREFETCH = "prefetch"
    WRITEBACK = "writeback"

    @property
    def is_demand(self) -> bool:
        """Demand accesses are loads and stores issued by the core."""
        return self in (AccessType.LOAD, AccessType.STORE)


def block_address(address: int, block_size: int = DEFAULT_BLOCK_SIZE) -> int:
    """Return the block-aligned address containing ``address``."""
    return address & ~(block_size - 1)


def block_number(address: int, block_size: int = DEFAULT_BLOCK_SIZE) -> int:
    """Return the block index (address divided by the block size)."""
    return address // block_size


def page_number(address: int, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Return the virtual/physical page number containing ``address``."""
    return address // page_size


def page_offset(address: int, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Return the offset of ``address`` within its page."""
    return address % page_size


@dataclass(slots=True)
class MemoryAccess:
    """A single memory reference produced by a workload generator.

    Attributes:
        address: Byte address of the reference (virtual == physical in this
            simulator unless a TLB is configured to translate).
        access_type: Load, store, prefetch or writeback.
        pc: Program counter of the instruction issuing the access.  Used by
            PC-indexed predictors and prefetchers.
        size: Number of bytes accessed.
        depends_on_previous: True when the address of this access was computed
            from the data returned by the immediately preceding load (pointer
            chasing).  The core model serialises dependent accesses, which is
            what limits memory-level parallelism for graph workloads.
        non_memory_instructions: Number of non-memory instructions the core
            executes between the previous access and this one.  Used by the
            core timing model to compute IPC.
        thread_id: Logical thread issuing the access (multi-core simulations).
    """

    address: int
    access_type: AccessType = AccessType.LOAD
    pc: int = 0
    size: int = 8
    depends_on_previous: bool = False
    non_memory_instructions: int = 2
    thread_id: int = 0

    def block(self, block_size: int = DEFAULT_BLOCK_SIZE) -> int:
        """Block-aligned address of this access."""
        return block_address(self.address, block_size)

    @property
    def is_load(self) -> bool:
        return self.access_type is AccessType.LOAD

    @property
    def is_store(self) -> bool:
        return self.access_type is AccessType.STORE


@dataclass(slots=True)
class AccessResult:
    """Outcome of one access serviced on its own
    (:meth:`~repro.memory.hierarchy.CoreMemoryHierarchy.access`).

    Attributes:
        hit_level: The level at which the data was found.
        latency: Total load-to-use latency in core cycles.
        misprediction: True when recovery through the directory was required.
    """

    hit_level: Level
    latency: float
    misprediction: bool = False
