"""Memory-hierarchy substrate: caches, TLBs, DRAM, directory."""

from .block import (
    AccessResult,
    AccessType,
    DEFAULT_BLOCK_SIZE,
    Level,
    MemoryAccess,
    PREDICTABLE_LEVELS,
    block_address,
)
from .cache import Cache, EvictionInfo
from .directory import Directory
from .dram import DRAMModel
from .hierarchy import (
    CoreMemoryHierarchy,
    HierarchyStats,
    SharedMemorySystem,
    Walk,
)
from .spec import (
    HierarchySpec,
    InterconnectSpec,
    LevelSpec,
    MemorySpec,
    TLBSpec,
)
from .tlb import TLB, TLBHierarchy

__all__ = [
    "AccessResult",
    "AccessType",
    "Cache",
    "CoreMemoryHierarchy",
    "DEFAULT_BLOCK_SIZE",
    "Directory",
    "DRAMModel",
    "EvictionInfo",
    "HierarchySpec",
    "HierarchyStats",
    "InterconnectSpec",
    "Level",
    "LevelSpec",
    "MemoryAccess",
    "MemorySpec",
    "PREDICTABLE_LEVELS",
    "SharedMemorySystem",
    "TLB",
    "TLBHierarchy",
    "TLBSpec",
    "Walk",
    "block_address",
]
