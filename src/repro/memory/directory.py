"""Sharer directory collocated with the LLC tags.

The directory tracks, for every block cached in some core's private levels,
which cores hold it: one ``dict`` from block address to a sharer bitmask
(bit ``c`` set while core ``c`` holds the block).  A dict that holds only
ints is never tracked by the cyclic garbage collector.

The hierarchy walker asks two things of it:

* :meth:`~Directory.record_private_fill` and
  :meth:`~Directory.record_private_eviction` keep the masks current as
  blocks enter and leave a core's deepest private level;
* :meth:`~Directory.remote_holder` names the core that supplies a block
  another core misses on (a cache-to-cache transfer, classified as an
  LLC-level hit for prediction).

It also catches the harmful level predictions (Section III.E): a request
that bypassed the private levels and reaches the LLC finds the block
tracked in its own core's private caches, and a recovery transaction
re-issues it there.  The walk already knows where each block was, so the
replay prices those recoveries (``HierarchyStats.recoveries``) without a
lookup here.

The model runs no MOESI transactions: data movement is functional, a
store never invalidates another core's copy, and whether a line is dirty
is the caches' business (their flag bits), not the directory's.  Because
the directory sits next to the LLC tags, its lookup latency is folded into
the LLC tag latency by the hierarchy model.
"""

from __future__ import annotations

from typing import Dict, Optional


class Directory:
    """Full-map directory keyed by block address."""

    __slots__ = ("num_cores", "_sharers")

    def __init__(self, num_cores: int = 1) -> None:
        if num_cores <= 0:
            raise ValueError("directory needs at least one core")
        self.num_cores = num_cores
        # Block address -> sharer bitmask; a block no core holds has no key.
        self._sharers: Dict[int, int] = {}

    def remote_holder(self, block_addr: int,
                      exclude_core: int) -> Optional[int]:
        """Lowest-numbered core other than ``exclude_core`` holding the
        block, or ``None``."""
        others = self._sharers.get(block_addr, 0) & ~(1 << exclude_core)
        if not others:
            return None
        return (others & -others).bit_length() - 1

    def record_private_fill(self, block_addr: int, core: int) -> None:
        """Track that ``core`` now holds the block in its private caches."""
        sharers = self._sharers
        sharers[block_addr] = sharers.get(block_addr, 0) | (1 << core)

    def record_private_eviction(self, block_addr: int, core: int) -> None:
        """Track that ``core`` no longer holds the block privately."""
        sharers = self._sharers
        mask = sharers.get(block_addr)
        if mask is None:
            return
        mask &= ~(1 << core)
        if mask:
            sharers[block_addr] = mask
        else:
            del sharers[block_addr]
