"""Prefetcher interface and shared statistics.

The paper's baseline uses aggressive prefetching at every level — tagged
next-line prefetchers at L1 (degree 1) and L2 (degree 2) and DCPT (degree 2)
at the LLC — and Figure 3 evaluates eleven published prefetchers for coverage
and accuracy.  All of them implement the :class:`Prefetcher` interface defined
here: the owning cache level feeds demand accesses (with hit/miss information)
into :meth:`observe`, and the prefetcher returns the block addresses it wants
brought into that level.

Coverage and accuracy bookkeeping follows the paper's definitions:

* *accuracy* — fraction of prefetched lines that were referenced by a demand
  access before being evicted (the cache reports uses/evictions back via
  :meth:`record_useful` / :meth:`record_useless`);
* *coverage* — fraction of baseline demand misses eliminated; this needs a
  no-prefetch baseline run and is computed by the benchmark harness from the
  cache statistics, not by the prefetcher itself.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List

from ..memory.block import DEFAULT_BLOCK_SIZE


@dataclass(slots=True)
class PrefetchAccess:
    """One demand access as seen by a prefetcher."""

    address: int
    pc: int
    hit: bool
    is_load: bool = True


@dataclass
class PrefetcherStats:
    """Issue/usefulness counters for one prefetcher instance."""

    issued: int = 0
    useful: int = 0
    useless: int = 0

    @property
    def accuracy(self) -> float:
        resolved = self.useful + self.useless
        return self.useful / resolved if resolved else 0.0

    def reset(self) -> None:
        self.issued = 0
        self.useful = 0
        self.useless = 0


class Prefetcher(ABC):
    """Base class for all hardware prefetchers in the simulator."""

    def __init__(self, degree: int = 1,
                 block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if degree < 1:
            raise ValueError("prefetch degree must be at least 1")
        self.degree = degree
        self.block_size = block_size
        self.stats = PrefetcherStats()
        self.enabled = True

    # ------------------------------------------------------------------
    # Main interface
    # ------------------------------------------------------------------
    def observe(self, access: PrefetchAccess) -> List[int]:
        """Feed one demand access; return block addresses to prefetch."""
        if not self.enabled:
            self._train_only(access)
            return []
        candidates = self._generate(access)
        if not candidates:
            # Hot path: most demand accesses trigger nothing — avoid the
            # dedup set/list allocations entirely.
            return []
        if len(candidates) == 1:
            # Single candidate (degree-1 prefetchers): skip the dedup set.
            address = candidates[0]
            block = address - (address % self.block_size)
            if block < 0:
                return []
            self.stats.issued += 1
            return [block]
        unique: List[int] = []
        seen = set()
        for address in candidates:
            block = address - (address % self.block_size)
            if block >= 0 and block not in seen:
                seen.add(block)
                unique.append(block)
        self.stats.issued += len(unique)
        return unique

    @abstractmethod
    def _generate(self, access: PrefetchAccess) -> List[int]:
        """Produce candidate prefetch addresses for this access."""

    def _train_only(self, access: PrefetchAccess) -> None:
        """Keep training state warm while throttled (default: full generate)."""
        self._generate(access)

    # ------------------------------------------------------------------
    # Feedback from the owning cache
    # ------------------------------------------------------------------
    def record_useful(self, count: int = 1) -> None:
        self.stats.useful += count

    def record_useless(self, count: int = 1) -> None:
        self.stats.useless += count

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return type(self).__name__

    def reset_statistics(self) -> None:
        self.stats.reset()


_NO_CANDIDATES: tuple = ()


class NullPrefetcher(Prefetcher):
    """A prefetcher that never prefetches (no-prefetch baseline runs)."""

    def _generate(self, access: PrefetchAccess) -> List[int]:
        return _NO_CANDIDATES
