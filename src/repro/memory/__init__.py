"""Memory-hierarchy substrate: caches, MSHRs, TLBs, DRAM, directory, bus."""

from .block import (
    AccessResult,
    AccessType,
    CacheLine,
    CoherenceState,
    DEFAULT_BLOCK_SIZE,
    Level,
    MemoryAccess,
    PREDICTABLE_LEVELS,
    block_address,
)
from .cache import Cache, CacheConfig, CacheStats, EvictionInfo
from .directory import Directory, DirectoryEntry
from .dram import DRAMConfig, DRAMModel
from .hierarchy import (
    CoreMemoryHierarchy,
    HierarchyStats,
    SharedMemorySystem,
)
from .interconnect import Interconnect, InterconnectConfig
from .mshr import MSHREntry, MSHRFile
from .replacement import (
    LRUPolicy,
    RandomPolicy,
    SRRIPPolicy,
    TreePLRUPolicy,
    make_replacement_policy,
)
from .tlb import TLB, TLBConfig, TLBHierarchy

__all__ = [
    "AccessResult",
    "AccessType",
    "Cache",
    "CacheConfig",
    "CacheLine",
    "CacheStats",
    "CoherenceState",
    "CoreMemoryHierarchy",
    "DEFAULT_BLOCK_SIZE",
    "Directory",
    "DirectoryEntry",
    "DRAMConfig",
    "DRAMModel",
    "EvictionInfo",
    "HierarchyStats",
    "Interconnect",
    "InterconnectConfig",
    "Level",
    "LRUPolicy",
    "MemoryAccess",
    "MSHREntry",
    "MSHRFile",
    "PREDICTABLE_LEVELS",
    "RandomPolicy",
    "SharedMemorySystem",
    "SRRIPPolicy",
    "TLB",
    "TLBConfig",
    "TLBHierarchy",
    "TreePLRUPolicy",
    "block_address",
    "make_replacement_policy",
]
