"""Set-associative cache model.

Each cache level in the simulated hierarchy is an instance of :class:`Cache`.
The model is functional (it tracks exactly which blocks are resident) with
per-access latency constants, which is what the level-prediction study needs:
the paper's results depend on *where* a block is found and *how many lookups*
were performed on the way, not on bank conflicts or port arbitration.

Features modelled, matching Table I of the paper:

* parallel caches (tag and data accessed together, a hit costs
  ``max(tag_latency, data_latency)``) for L1 and L2, and sequential caches
  (tag first, then data) for L3, where a hit costs
  ``tag_latency + data_latency``; either detects a miss after
  ``tag_latency`` (see :attr:`~repro.memory.spec.LevelSpec.hit_latency`,
  which the hierarchy walker charges);
* write-back, write-allocate;
* a prefetched bit per line so prefetcher accuracy can be measured.

Sets are allocated on first fill.  Every job builds fresh caches and the
traces touch a few dozen kilobytes, so almost every set of a megabyte-class
LLC is never used: an untouched set shares one read-only empty tag index
(probes, invalidations and ``mark_dirty`` need nothing more), and its way
list, tag index and LRU stamps are created by the first fill that lands in
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import List, Mapping, Optional, Tuple

from .block import AccessType, CacheLine, CoherenceState, block_address
from .spec import LevelSpec

#: The tag index of every never-filled set: read-only, so a stray write
#: fails loudly instead of leaking state into every untouched set.
_EMPTY_SET: Mapping[int, int] = MappingProxyType({})


@dataclass(slots=True)
class EvictionInfo:
    """Describes a line pushed out of the cache by a fill or invalidation."""

    block_addr: int
    dirty: bool
    prefetched_unused: bool
    state: CoherenceState


@dataclass(slots=True)
class CacheStats:
    """Per-cache hit/miss counters, split by demand and prefetch traffic."""

    demand_hits: int = 0
    demand_misses: int = 0
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    writebacks_received: int = 0
    fills: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    prefetch_fills: int = 0
    prefetched_lines_used: int = 0
    prefetched_lines_evicted_unused: int = 0
    invalidations: int = 0

    @property
    def demand_accesses(self) -> int:
        return self.demand_hits + self.demand_misses

    @property
    def accesses(self) -> int:
        return self.demand_accesses + self.prefetch_hits + self.prefetch_misses

    @property
    def demand_miss_ratio(self) -> float:
        total = self.demand_accesses
        return self.demand_misses / total if total else 0.0

    def reset(self) -> None:
        for f in self.__dataclass_fields__:
            setattr(self, f, 0)


class Cache:
    """A single set-associative, write-back, LRU cache level.

    Built from the :class:`~repro.memory.spec.LevelSpec` it implements.
    Every operation takes a block-aligned address; the hierarchy walker
    aligns each access once:

    * :meth:`access_block` — probe for a demand or prefetch access, updating
      recency on a hit.
    * :meth:`fill_block` / :meth:`prefetch_install` — install a block,
      returning the eviction it caused.
    * :meth:`invalidate` — remove a block (coherence or inclusion victims).
    * :meth:`contains_block` / :meth:`peek_line` — probe without side effects
      (used by the walker's locate step and by the oracle/ideal predictors).

    Replacement is true LRU (Table I): a per-cache logical clock stamps each
    way on every touch, and the victim of a full set is its
    smallest-stamped way.
    """

    __slots__ = ("spec", "name", "_num_sets", "_associativity", "_lines",
                 "_tag_to_way", "_block_shift", "_set_mask", "_tag_shift",
                 "_addr_mask", "_clock", "_stamps", "stats")

    def __init__(self, spec: LevelSpec, name: Optional[str] = None) -> None:
        self.spec = spec
        self.name = name or spec.name
        self._num_sets = spec.size_bytes \
            // (spec.block_size * spec.associativity)
        self._associativity = spec.associativity
        # Per-set way lists, ``None`` until the set's first fill.
        self._lines: List[Optional[List[Optional[CacheLine]]]] = \
            [None] * self._num_sets
        # Per-set index from tag to way for O(1) lookups; kept in sync by
        # fill_block() and invalidate().  Purely an implementation
        # accelerator — real hardware compares all tags in parallel.
        # Never-filled sets share the read-only empty index.
        self._tag_to_way: List[Mapping[int, int]] = \
            [_EMPTY_SET] * self._num_sets
        # Precomputed shift/mask address decomposition for the (universal in
        # practice) power-of-two geometries; ``_block_shift < 0`` selects the
        # general divide/modulo fallback.
        block_size = spec.block_size
        if (self._num_sets & (self._num_sets - 1)) == 0:
            self._block_shift = block_size.bit_length() - 1
            self._set_mask = self._num_sets - 1
            self._tag_shift = self._block_shift + self._num_sets.bit_length() - 1
            self._addr_mask = ~(block_size - 1)
        else:  # pragma: no cover - no paper configuration is non-power-of-two
            self._block_shift = -1
            self._set_mask = 0
            self._tag_shift = 0
            self._addr_mask = 0
        # LRU state: the logical clock and, per set, one stamp per way
        # (``None`` until the set's first fill, like its way list).
        self._clock = 0
        self._stamps: List[Optional[List[int]]] = [None] * self._num_sets
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Address decomposition
    # ------------------------------------------------------------------
    def set_index(self, block_addr: int) -> int:
        if self._block_shift >= 0:
            return (block_addr >> self._block_shift) & self._set_mask
        return (block_addr // self.spec.block_size) % self._num_sets

    def tag_of(self, block_addr: int) -> int:
        if self._block_shift >= 0:
            return block_addr >> self._tag_shift
        return block_addr // (self.spec.block_size * self._num_sets)

    def block_of(self, address: int) -> int:
        """Block-aligned address of ``address`` (precomputed mask)."""
        if self._block_shift >= 0:
            return address & self._addr_mask
        return block_address(address, self.spec.block_size)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def _find(self, block_addr: int) -> Tuple[int, Optional[int]]:
        """Return (set_index, way) of the block, way is None on a miss."""
        set_index = self.set_index(block_addr)
        tag = self.tag_of(block_addr)
        return set_index, self._tag_to_way[set_index].get(tag)

    def contains_block(self, block_addr: int) -> bool:
        """Whether the block is resident (no replacement-state update)."""
        if self._block_shift >= 0:
            return (block_addr >> self._tag_shift) in self._tag_to_way[
                (block_addr >> self._block_shift) & self._set_mask]
        set_index, way = self._find(block_addr)
        return way is not None

    def peek_line(self, block_addr: int) -> Optional[CacheLine]:
        """The resident line of the block, or ``None`` (no side effects)."""
        set_index, way = self._find(block_addr)
        if way is None:
            return None
        return self._lines[set_index][way]

    # ------------------------------------------------------------------
    # Main operations
    # ------------------------------------------------------------------
    def access_block(
        self, block_addr: int, access_type: AccessType = AccessType.LOAD
    ) -> Tuple[bool, bool]:
        """Probe the cache for a demand or prefetch access.

        A hit updates recency, marks the line dirty for stores, and clears
        the prefetched bit on a demand use (the prefetch proved useful).
        Returns ``(hit, was_prefetched)`` where ``was_prefetched`` reports
        whether the line's prefetched bit was set *before* this access cleared
        it — the signal the hierarchy feeds back to the prefetcher's accuracy
        accounting.
        """
        stats = self.stats
        if self._block_shift >= 0:
            set_index = (block_addr >> self._block_shift) & self._set_mask
            way = self._tag_to_way[set_index].get(block_addr >> self._tag_shift)
        else:
            set_index, way = self._find(block_addr)
        was_prefetched = False
        if way is not None:
            line = self._lines[set_index][way]
            self._clock += 1
            self._stamps[set_index][way] = self._clock
            if access_type is AccessType.STORE:
                line.dirty = True
                line.state = CoherenceState.MODIFIED
            if line.prefetched:
                was_prefetched = True
                if (access_type is AccessType.LOAD
                        or access_type is AccessType.STORE):
                    line.prefetched = False
                    stats.prefetched_lines_used += 1
            if access_type is AccessType.PREFETCH:
                stats.prefetch_hits += 1
            else:
                stats.demand_hits += 1
            return True, was_prefetched
        if access_type is AccessType.PREFETCH:
            stats.prefetch_misses += 1
        else:
            stats.demand_misses += 1
        return False, False

    def fill_block(
        self,
        block_addr: int,
        access_type: AccessType = AccessType.LOAD,
        dirty: bool = False,
        state: CoherenceState = CoherenceState.EXCLUSIVE,
    ) -> Optional[EvictionInfo]:
        """Install a block, evicting the LRU line if the set is full.

        Returns the evicted line's :class:`EvictionInfo`, or ``None`` when
        a free way was available or the block was already resident.
        Evicted :class:`CacheLine` objects are recycled in place for the new
        block — per-access allocation on the fill path is limited to the
        :class:`EvictionInfo` snapshot of the victim.  The first fill of a
        set allocates the set.  ``state`` must be a valid coherence state:
        a resident line never holds ``CoherenceState.INVALID``.
        """
        if self._block_shift >= 0:
            set_index = (block_addr >> self._block_shift) & self._set_mask
            tag = block_addr >> self._tag_shift
        else:
            set_index = self.set_index(block_addr)
            tag = self.tag_of(block_addr)
        tag_to_way = self._tag_to_way[set_index]
        way = tag_to_way.get(tag)
        if way is not None:
            # Already resident (e.g. a prefetch raced a demand fill); refresh.
            line = self._lines[set_index][way]
            line.dirty = line.dirty or dirty
            self._clock += 1
            self._stamps[set_index][way] = self._clock
            return None

        stats = self.stats
        lines = self._lines[set_index]
        prefetched = access_type is AccessType.PREFETCH
        eviction: Optional[EvictionInfo] = None
        if lines is None:
            # First fill of this set: allocate it.
            lines = self._lines[set_index] = [None] * self._associativity
            tag_to_way = self._tag_to_way[set_index] = {}
            self._stamps[set_index] = [0] * self._associativity
            victim_way = 0
            lines[0] = CacheLine(tag, block_addr, state, dirty, prefetched)
        elif len(tag_to_way) == self._associativity:
            # index(min(...)) keeps the first-minimum tie-break while
            # running both passes at C speed.
            stamps = self._stamps[set_index]
            victim_way = stamps.index(min(stamps))
            victim = lines[victim_way]
            eviction = EvictionInfo(victim.block_addr, victim.dirty,
                                    victim.prefetched, victim.state)
            stats.evictions += 1
            if victim.dirty:
                stats.dirty_evictions += 1
            if victim.prefetched:
                stats.prefetched_lines_evicted_unused += 1
            del tag_to_way[victim.tag]
            # Recycle the victim line object for the incoming block.
            victim.tag = tag
            victim.block_addr = block_addr
            victim.state = state
            victim.dirty = dirty
            victim.prefetched = prefetched
        else:
            # A free way exists: fill the first one.
            victim_way = lines.index(None)
            lines[victim_way] = CacheLine(tag, block_addr, state, dirty,
                                          prefetched)
        tag_to_way[tag] = victim_way
        self._clock += 1
        self._stamps[set_index][victim_way] = self._clock
        stats.fills += 1
        if prefetched:
            stats.prefetch_fills += 1
        return eviction

    def prefetch_install(self, block_addr: int
                         ) -> Tuple[bool, Optional[EvictionInfo]]:
        """Install a prefetched block unless it is already resident.

        Unlike :meth:`fill_block` with ``AccessType.PREFETCH``, a resident
        block is left completely untouched (no replacement-state refresh), the
        behaviour the hierarchy's prefetch-issue path requires.  Returns
        ``(installed, eviction)``.
        """
        if self._block_shift >= 0:
            set_index = (block_addr >> self._block_shift) & self._set_mask
            tag = block_addr >> self._tag_shift
        else:
            set_index = self.set_index(block_addr)
            tag = self.tag_of(block_addr)
        if tag in self._tag_to_way[set_index]:
            return False, None
        return True, self.fill_block(block_addr, AccessType.PREFETCH)

    def invalidate(self, address: int) -> Optional[EvictionInfo]:
        """Remove a block (coherence invalidation or inclusion victim)."""
        block_addr = self.block_of(address)
        set_index, way = self._find(block_addr)
        if way is None:
            return None
        line = self._lines[set_index][way]
        info = EvictionInfo(
            block_addr=line.block_addr,
            dirty=line.dirty,
            prefetched_unused=line.prefetched,
            state=line.state,
        )
        # The freed way's LRU stamp goes stale harmlessly: fills take the
        # first free way and restamp it before the set can be full again.
        self._lines[set_index][way] = None
        del self._tag_to_way[set_index][line.tag]
        self.stats.invalidations += 1
        return info

    def mark_dirty(self, address: int) -> bool:
        """Mark a resident block dirty (used when a store hits)."""
        if self._block_shift >= 0:
            set_index = (address >> self._block_shift) & self._set_mask
            way = self._tag_to_way[set_index].get(address >> self._tag_shift)
        else:
            set_index, way = self._find(self.block_of(address))
        if way is None:
            return False
        line = self._lines[set_index][way]
        line.dirty = True
        line.state = CoherenceState.MODIFIED
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def resident_blocks(self) -> List[int]:
        """Block addresses of every valid line (used by tests and D2D)."""
        return [line.block_addr for cache_set in self._lines
                if cache_set is not None
                for line in cache_set if line is not None]

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum([len(index) for index in self._tag_to_way])

    def reset_statistics(self) -> None:
        self.stats.reset()
