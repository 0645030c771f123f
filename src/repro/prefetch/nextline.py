"""Tagged next-line and stride prefetchers.

The paper's baseline uses tagged next-line prefetchers at L1 (degree 1) and
L2 (degree 2): on a demand miss — or on the first demand hit to a line that
was itself prefetched (the "tag") — the next ``degree`` sequential lines are
fetched.  The classic stride prefetcher (per-PC reference prediction table) is
included as well; it is a common component of the comparison points in
Figure 3 and a useful substrate for tests.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List

from .base import PrefetchAccess, Prefetcher


class TaggedNextLinePrefetcher(Prefetcher):
    """Tagged sequential (next-line) prefetcher.

    A prefetch is triggered on a demand miss, and also on a demand hit to a
    block that this prefetcher brought in (the tagged part): that hit is
    evidence the sequential stream is being consumed, so prefetching continues
    ahead of it.
    """

    def __init__(self, degree: int = 1, block_size: int = 64,
                 tag_capacity: int = 1024) -> None:
        super().__init__(degree=degree, block_size=block_size)
        # Blocks we prefetched and have not yet seen a demand access to.
        self._tagged: OrderedDict[int, bool] = OrderedDict()
        self._tag_capacity = tag_capacity

    def _remember(self, block: int) -> None:
        if block in self._tagged:
            self._tagged.move_to_end(block)
            return
        if len(self._tagged) >= self._tag_capacity:
            self._tagged.popitem(last=False)
        self._tagged[block] = True

    def observe(self, access: PrefetchAccess) -> List[int]:
        """Train on one demand access and return the lines to prefetch.

        Overrides the base class's generate-then-dedup path: the candidates
        are the next ``degree`` lines after the access's own, so they are
        block-aligned and distinct by construction.
        """
        address = access.address
        block_size = self.block_size
        block = address - (address % block_size)
        tagged = self._tagged
        if access.hit:
            if block not in tagged:
                return []
            # First demand use of a prefetched line keeps the stream going.
            del tagged[block]
        candidates = []
        capacity = self._tag_capacity
        for i in range(1, self.degree + 1):
            target = block + i * block_size
            candidates.append(target)
            # Inline _remember(): this runs for every issued prefetch.
            if target in tagged:
                tagged.move_to_end(target)
            else:
                if len(tagged) >= capacity:
                    tagged.popitem(last=False)
                tagged[target] = True
        if not self.enabled:
            return []
        self.stats.issued += len(candidates)
        return candidates

    def _generate(self, access: PrefetchAccess) -> List[int]:
        """:meth:`observe` for a wrapping prefetcher, which counts what it
        issues itself."""
        candidates = self.observe(access)
        self.stats.issued -= len(candidates)
        return candidates


@dataclass
class _StrideEntry:
    last_address: int
    stride: int
    confidence: int


class StridePrefetcher(Prefetcher):
    """Per-PC stride prefetcher (reference prediction table).

    Each static load PC gets a table entry holding its last address and last
    observed stride with a 2-bit confidence counter; once the same stride is
    seen twice, ``degree`` strided blocks ahead are prefetched.
    """

    MAX_CONFIDENCE = 3
    ISSUE_CONFIDENCE = 2

    def __init__(self, degree: int = 2, block_size: int = 64,
                 table_entries: int = 256) -> None:
        super().__init__(degree=degree, block_size=block_size)
        self._table: OrderedDict[int, _StrideEntry] = OrderedDict()
        self._table_entries = table_entries

    def _entry_for(self, pc: int) -> _StrideEntry:
        entry = self._table.get(pc)
        if entry is not None:
            self._table.move_to_end(pc)
            return entry
        if len(self._table) >= self._table_entries:
            self._table.popitem(last=False)
        entry = _StrideEntry(last_address=0, stride=0, confidence=0)
        self._table[pc] = entry
        return entry

    def _generate(self, access: PrefetchAccess) -> List[int]:
        entry = self._entry_for(access.pc)
        candidates: List[int] = []
        if entry.last_address:
            stride = access.address - entry.last_address
            if stride != 0 and stride == entry.stride:
                entry.confidence = min(entry.confidence + 1, self.MAX_CONFIDENCE)
            else:
                entry.confidence = max(entry.confidence - 1, 0)
                entry.stride = stride
            if entry.confidence >= self.ISSUE_CONFIDENCE and entry.stride:
                for i in range(1, self.degree + 1):
                    candidates.append(access.address + i * entry.stride)
        entry.last_address = access.address
        return candidates
