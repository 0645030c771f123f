"""Set-associative cache model.

Each cache level in the simulated hierarchy is an instance of :class:`Cache`.
The model is functional (it tracks exactly which blocks are resident) with
per-access latency constants, which is what the level-prediction study needs:
the paper's results depend on *where* a block is found and *how many lookups*
were performed on the way, not on bank conflicts or port arbitration.  A
cache keeps no counters of its own: the hierarchy walker records what each
access did (:class:`~repro.memory.hierarchy.Walk`), and the results count
from that.

Features modelled, matching Table I of the paper:

* parallel caches (tag and data accessed together, a hit costs
  ``max(tag_latency, data_latency)``) for L1 and L2, and sequential caches
  (tag first, then data) for L3, where a hit costs
  ``tag_latency + data_latency``; either detects a miss after
  ``tag_latency`` (see :attr:`~repro.memory.spec.LevelSpec.hit_latency`,
  which the hierarchy walker charges);
* write-back, write-allocate;
* a prefetched bit per line, so the first demand use of a prefetched line
  and the eviction of an unused one reach the prefetcher that brought it
  in.

Set layout
==========

A set is one plain ``dict`` from block address to the line's flag bits
(``_DIRTY``, ``_PREFETCHED``), and block ``b`` lives in set
``(b >> log2(block_size)) % num_sets`` for every geometry.  The block
address is the key, so no tag is stored.  A dict that holds only ints is
never tracked by the cyclic garbage collector, so a cache adds nothing to
the collector's work however many lines it holds.

Replacement is true LRU (Table I), kept by the dict's insertion order:
the first key is the least recently used line.  A hit or a refill of a
resident block moves it to the end (pop, then insert again), a full set
evicts its first key, and marking a resident line dirty or prefetching a
resident block leaves the order alone.

Sets are allocated on first fill.  Every job builds fresh caches and the
traces touch a few dozen kilobytes, so almost every set of a megabyte-class
LLC is never used: an untouched set shares one read-only empty mapping
(probes, invalidations and ``mark_dirty`` need nothing more) until the first
fill that lands in it gives it a dict of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import List, Mapping, NamedTuple, Optional, Tuple

from .block import AccessType
from .spec import LevelSpec

#: The lines of every never-filled set: read-only, so a stray write fails
#: loudly instead of leaking state into every untouched set.
_EMPTY_SET: Mapping[int, int] = MappingProxyType({})

#: A line's flag bits: it holds data newer than the next level; it was
#: brought in by a prefetcher and no demand access has used it yet.
_DIRTY = 1
_PREFETCHED = 2

_LOAD = AccessType.LOAD
_STORE = AccessType.STORE
_PREFETCH = AccessType.PREFETCH


@dataclass(slots=True)
class EvictionInfo:
    """Describes a line pushed out of the cache by a fill or invalidation."""

    block_addr: int
    dirty: bool
    prefetched_unused: bool


class LineFlags(NamedTuple):
    """A snapshot of one resident line's flags (see :meth:`Cache.peek_line`)."""

    dirty: bool
    prefetched: bool


class Cache:
    """A single set-associative, write-back, LRU cache level.

    Built from the :class:`~repro.memory.spec.LevelSpec` it implements.
    Every operation takes a block-aligned address; the hierarchy walker
    aligns each access once:

    * :meth:`access_block` — probe for a demand or prefetch access, updating
      recency on a hit.
    * :meth:`fill_block` / :meth:`prefetch_install` — install a block,
      returning the eviction it caused.
    * :meth:`invalidate` — remove a block (an inclusion victim).
    * :meth:`contains_block` / :meth:`peek_line` — probe without side effects
      (used by the walker's locate step and by tests).
    """

    __slots__ = ("spec", "name", "_num_sets", "_associativity", "_sets",
                 "_block_shift", "_addr_mask")

    def __init__(self, spec: LevelSpec, name: Optional[str] = None) -> None:
        self.spec = spec
        self.name = name or spec.name
        block_size = spec.block_size
        self._num_sets = spec.size_bytes // (block_size * spec.associativity)
        self._associativity = spec.associativity
        # Per set, block address -> flag bits in LRU order; never-filled
        # sets share the read-only empty mapping.
        self._sets: List[Mapping[int, int]] = [_EMPTY_SET] * self._num_sets
        # LevelSpec requires a power-of-two block size.
        self._block_shift = block_size.bit_length() - 1
        self._addr_mask = ~(block_size - 1)

    # ------------------------------------------------------------------
    # Address decomposition
    # ------------------------------------------------------------------
    def set_index(self, block_addr: int) -> int:
        return (block_addr >> self._block_shift) % self._num_sets

    def block_of(self, address: int) -> int:
        """Block-aligned address of ``address``."""
        return address & self._addr_mask

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def contains_block(self, block_addr: int) -> bool:
        """Whether the block is resident (no replacement-state update)."""
        return block_addr in self._sets[
            (block_addr >> self._block_shift) % self._num_sets]

    def peek_line(self, block_addr: int) -> Optional[LineFlags]:
        """The resident line's flags, or ``None`` (no side effects)."""
        flags = self._sets[(block_addr >> self._block_shift)
                           % self._num_sets].get(block_addr)
        if flags is None:
            return None
        return LineFlags(bool(flags & _DIRTY), bool(flags & _PREFETCHED))

    # ------------------------------------------------------------------
    # Main operations
    # ------------------------------------------------------------------
    def access_block(
        self, block_addr: int, access_type: AccessType = _LOAD
    ) -> Tuple[bool, bool]:
        """Probe the cache for a demand or prefetch access.

        A hit updates recency, marks the line dirty for stores, and clears
        the prefetched bit on a demand use (the prefetch proved useful).
        Returns ``(hit, was_prefetched)`` where ``was_prefetched`` reports
        whether the line's prefetched bit was set *before* this access cleared
        it — the signal the hierarchy feeds back to the prefetcher's accuracy
        accounting.
        """
        lines = self._sets[(block_addr >> self._block_shift) % self._num_sets]
        flags = lines.get(block_addr)
        if flags is None:
            return False, False
        del lines[block_addr]
        if access_type is _STORE:
            flags |= _DIRTY
        was_prefetched = False
        if flags & _PREFETCHED:
            was_prefetched = True
            if access_type is _LOAD or access_type is _STORE:
                flags &= _DIRTY
        lines[block_addr] = flags
        return True, was_prefetched

    def fill_block(
        self,
        block_addr: int,
        access_type: AccessType = _LOAD,
        dirty: bool = False,
    ) -> Optional[EvictionInfo]:
        """Install a block, evicting the LRU line if the set is full.

        Returns the evicted line's :class:`EvictionInfo`, or ``None`` when
        a free way was available or the block was already resident (a
        refill keeps the line's flags, adds ``dirty``, and makes it the
        most recently used).  The first fill of a set allocates the set.
        """
        index = (block_addr >> self._block_shift) % self._num_sets
        lines = self._sets[index]
        flags = lines.get(block_addr)
        if flags is not None:
            # Already resident (e.g. a prefetch raced a demand fill); refresh.
            del lines[block_addr]
            lines[block_addr] = flags | dirty
            return None

        eviction: Optional[EvictionInfo] = None
        if lines is _EMPTY_SET:
            lines = self._sets[index] = {}
        elif len(lines) == self._associativity:
            victim = next(iter(lines))
            flags = lines.pop(victim)
            eviction = EvictionInfo(victim, bool(flags & _DIRTY),
                                    bool(flags & _PREFETCHED))
        flags = _DIRTY if dirty else 0
        if access_type is _PREFETCH:
            flags |= _PREFETCHED
        lines[block_addr] = flags
        return eviction

    def prefetch_install(self, block_addr: int
                         ) -> Tuple[bool, Optional[EvictionInfo]]:
        """Install a prefetched block unless it is already resident.

        Unlike :meth:`fill_block` with ``AccessType.PREFETCH``, a resident
        block is left completely untouched (no replacement-state refresh), the
        behaviour the hierarchy's prefetch-issue path requires.  Returns
        ``(installed, eviction)``.
        """
        if block_addr in self._sets[
                (block_addr >> self._block_shift) % self._num_sets]:
            return False, None
        return True, self.fill_block(block_addr, _PREFETCH)

    def invalidate(self, address: int) -> Optional[EvictionInfo]:
        """Remove a block (an inclusion victim)."""
        block_addr = address & self._addr_mask
        lines = self._sets[(block_addr >> self._block_shift) % self._num_sets]
        flags = lines.get(block_addr)
        if flags is None:
            return None
        del lines[block_addr]
        return EvictionInfo(block_addr, bool(flags & _DIRTY),
                            bool(flags & _PREFETCHED))

    def mark_dirty(self, address: int) -> bool:
        """Mark a resident block dirty (used when a store hits)."""
        block_addr = address & self._addr_mask
        lines = self._sets[(block_addr >> self._block_shift) % self._num_sets]
        flags = lines.get(block_addr)
        if flags is None:
            return False
        lines[block_addr] = flags | _DIRTY
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def resident_blocks(self) -> List[int]:
        """Block addresses of every valid line, set by set in LRU order."""
        return [block for lines in self._sets for block in lines]

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(map(len, self._sets))
