"""LocMap: the in-memory location map and its on-chip metadata cache.

Section III.C of the paper.  The LocMap is a flat table in system-reserved
physical memory holding 2 bits of location metadata (L2, LLC, or MEM) per 64 B
cache block, so one 64 B LocMap block covers 256 data blocks and the memory
overhead is 2/512 = 0.39 %.  The address of the LocMap entry for a block is

    LocMap address = base + (physical address >> 14)

i.e. a one-to-one mapping.  Hot LocMap blocks are cached in a small per-core
**metadata cache** (2 KiB, 2-way in the paper); the level prediction consults
this cache on every L1 miss and the long-latency fetch of a LocMap block from
memory happens off the critical path after a metadata miss.

Update policy (what keeps the predictor cheap, at the cost of staleness):

* demand cache fills update the LocMap,
* dirty evictions update the LocMap,
* prefetch fills update it **only** when the metadata cache hits,
* clean evictions and coherence invalidations never update it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from ..memory.block import DEFAULT_BLOCK_SIZE, Level

#: Bits of location metadata per data block.
BITS_PER_BLOCK = 2

#: Data blocks whose metadata fits in one 64-byte LocMap block.
BLOCKS_PER_LOCMAP_ENTRY = (DEFAULT_BLOCK_SIZE * 8) // BITS_PER_BLOCK

#: Ways of the metadata cache (2 in the paper).
METADATA_ASSOCIATIVITY = 2

#: Encoding of levels into the 2-bit metadata field.
_LEVEL_TO_CODE = {Level.L2: 1, Level.L3: 2, Level.MEM: 0}
_CODE_TO_LEVEL = {code: level for level, code in _LEVEL_TO_CODE.items()}
_MEM_CODE = _LEVEL_TO_CODE[Level.MEM]


def locmap_block_address(physical_address: int, base_address: int = 0) -> int:
    """Address of the LocMap block covering ``physical_address``.

    Implements the paper's mapping ``base + (PA >> 14)``: 64 B blocks, 2 bits
    each, 256 block descriptors per LocMap block.
    """
    return base_address + (physical_address >> 14)


@dataclass
class MetadataCacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


class MetadataCache:
    """Small set-associative cache of LocMap blocks.

    Keys are LocMap block addresses; each cached LocMap block covers 256 data
    blocks, which is why even a 2 KiB metadata cache reaches ~95 % hit ratio
    (Section V.A): 32 LocMap blocks cover 32 x 256 x 64 B = 512 KiB of data.
    """

    __slots__ = ("size_bytes", "associativity", "block_size", "num_sets",
                 "_sets", "stats")

    def __init__(self, size_bytes: int = 2048, associativity: int = 2,
                 block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if size_bytes < block_size * associativity:
            raise ValueError("metadata cache too small for its associativity")
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.block_size = block_size
        self.num_sets = size_bytes // (block_size * associativity)
        self._sets = [OrderedDict() for _ in range(self.num_sets)]
        self.stats = MetadataCacheStats()

    @property
    def capacity_blocks(self) -> int:
        return self.num_sets * self.associativity

    def lookup(self, locmap_block: int) -> bool:
        """Probe for a LocMap block; True on hit (LRU updated)."""
        entries = self._sets[locmap_block % self.num_sets]
        if locmap_block in entries:
            entries.move_to_end(locmap_block)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def contains(self, locmap_block: int) -> bool:
        """Probe without affecting LRU state or statistics."""
        return locmap_block in self._sets[locmap_block % self.num_sets]

    def fill(self, locmap_block: int) -> None:
        """Install a LocMap block fetched from memory."""
        entries = self._sets[locmap_block % self.num_sets]
        if locmap_block in entries:
            entries.move_to_end(locmap_block)
            return
        if len(entries) >= self.associativity:
            entries.popitem(last=False)
        entries[locmap_block] = True

    def reset_statistics(self) -> None:
        self.stats.reset()


class LocMap:
    """The flat in-memory location table plus its per-core metadata cache.

    The table itself is modelled as a sparse dictionary from block number to
    level code; entries default to MEM, which is also the paper's initial
    state (nothing is cached before first touch).

    Args:
        metadata_cache_bytes: Capacity of the on-chip metadata cache
            (:data:`METADATA_ASSOCIATIVITY` ways).
        block_size: Data cache block size.
        base_address: Base physical address of the reserved LocMap region.
    """

    __slots__ = ("block_size", "base_address", "metadata_cache", "_table")

    def __init__(self, metadata_cache_bytes: int = 2048,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 base_address: int = 0) -> None:
        self.block_size = block_size
        self.base_address = base_address
        self.metadata_cache = MetadataCache(
            size_bytes=metadata_cache_bytes,
            associativity=METADATA_ASSOCIATIVITY,
            block_size=block_size)
        self._table: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def _block_number(self, address: int) -> int:
        return address // self.block_size

    def locmap_block_of(self, address: int) -> int:
        return locmap_block_address(address, self.base_address)

    # ------------------------------------------------------------------
    # Prediction-side access
    # ------------------------------------------------------------------
    def query(self, address: int) -> Optional[Level]:
        """Look up the location of a block through the metadata cache.

        Returns the stored level on a metadata cache hit, or ``None`` on a
        metadata cache miss.  A miss triggers a (long-latency, off the
        critical path) fetch of the LocMap block from memory so subsequent
        queries to the same region hit.  The metadata-cache probe is inlined:
        this runs on every L1 miss of the LP system.
        """
        locmap_block = self.base_address + (address >> 14)
        cache = self.metadata_cache
        entries = cache._sets[locmap_block % cache.num_sets]
        stats = cache.stats
        if locmap_block in entries:
            entries.move_to_end(locmap_block)
            stats.hits += 1
            code = self._table.get(address // self.block_size, _MEM_CODE)
            return _CODE_TO_LEVEL[code]
        stats.misses += 1
        # Metadata miss: fetch the LocMap block through the data hierarchy.
        cache.fill(locmap_block)
        return None

    def peek(self, address: int) -> Level:
        """Return the stored level without touching the metadata cache."""
        return self._stored_level(address)

    def _stored_level(self, address: int) -> Level:
        code = self._table.get(self._block_number(address), _LEVEL_TO_CODE[Level.MEM])
        return _CODE_TO_LEVEL[code]

    # ------------------------------------------------------------------
    # Update side (driven by cache fill / eviction events)
    # ------------------------------------------------------------------
    def record_fill(self, address: int, level: Level,
                    from_prefetch: bool = False) -> bool:
        """Record that a block now resides at ``level``.

        Demand fills always update the LocMap.  Prefetch fills update it only
        when the metadata cache already holds the covering LocMap block
        (Section III.C), to avoid the off-chip traffic aggressive prefetchers
        would otherwise generate.  Returns True when the update was applied.
        """
        code = _LEVEL_TO_CODE.get(level)
        if code is None:
            raise ValueError(f"LocMap cannot record level {level}")
        locmap_block = self.base_address + (address >> 14)
        cache = self.metadata_cache
        if from_prefetch:
            if locmap_block not in cache._sets[locmap_block % cache.num_sets]:
                return False
            self._table[address // self.block_size] = code
            return True
        self._table[address // self.block_size] = code
        # Demand updates also warm the metadata cache for the region.
        cache.fill(locmap_block)
        return True

    def record_eviction(self, address: int, from_level: Level,
                        dirty: bool) -> bool:
        """Record an eviction.

        Only dirty evictions update the LocMap (clean evictions are ignored,
        Section III.C): a dirty L2 victim moves to the LLC and a dirty LLC
        victim moves to main memory.
        """
        if not dirty:
            return False
        if from_level is Level.L2:
            self._apply(address, Level.L3)
        elif from_level is Level.L3:
            self._apply(address, Level.MEM)
        else:
            return False
        return True

    def _apply(self, address: int, level: Level) -> None:
        self._table[self._block_number(address)] = _LEVEL_TO_CODE[level]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def storage_bits_on_chip(self) -> int:
        """On-chip storage: just the metadata cache (the table is in DRAM)."""
        return self.metadata_cache.size_bytes * 8

    def memory_overhead_fraction(self) -> float:
        """Fraction of physical memory consumed by the LocMap (0.39 %)."""
        return BITS_PER_BLOCK / (self.block_size * 8)

    def reset_statistics(self) -> None:
        self.metadata_cache.reset_statistics()
