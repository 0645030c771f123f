"""Delta-Correlating Prediction Tables (DCPT) prefetcher.

DCPT (Grannaes, Jahre and Natvig, HiPEAC 2010) is the LLC prefetcher the paper
selects for its baseline ("DCPT exhibits the highest coverage and high
accuracy and worked well in combination with the L1 and L2 prefetchers",
Section IV.A).  Each static load PC owns a table entry storing the last
address, the last prefetched address and a circular buffer of recent address
*deltas*.  On each access the newest delta pair is matched against the delta
history; when the pair recurs, the deltas that followed it historically are
replayed from the current address to produce prefetch candidates — this is
"delta correlation with partial matching".
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List

from .base import PrefetchAccess, Prefetcher


@dataclass
class _DCPTEntry:
    """Per-PC state: last address and a bounded delta history."""

    last_address: int = 0
    last_prefetch: int = 0
    deltas: List[int] = field(default_factory=list)


class DCPTPrefetcher(Prefetcher):
    """Delta-correlating prediction tables with partial matching."""

    def __init__(self, degree: int = 2, block_size: int = 64,
                 table_entries: int = 128, deltas_per_entry: int = 16) -> None:
        super().__init__(degree=degree, block_size=block_size)
        self._table: OrderedDict[int, _DCPTEntry] = OrderedDict()
        self._table_entries = table_entries
        self._deltas_per_entry = deltas_per_entry

    # ------------------------------------------------------------------
    # Table management
    # ------------------------------------------------------------------
    def _entry_for(self, pc: int) -> _DCPTEntry:
        entry = self._table.get(pc)
        if entry is not None:
            self._table.move_to_end(pc)
            return entry
        if len(self._table) >= self._table_entries:
            self._table.popitem(last=False)
        entry = _DCPTEntry()
        self._table[pc] = entry
        return entry

    # ------------------------------------------------------------------
    # Delta correlation
    # ------------------------------------------------------------------
    def _correlate(self, entry: _DCPTEntry, current_block: int) -> List[int]:
        """Replay deltas that historically followed the latest delta pair."""
        deltas = entry.deltas
        count = len(deltas)
        if count < 3:
            return []
        pair_first = deltas[-2]
        pair_second = deltas[-1]
        candidates: List[int] = []
        # Search the history (excluding the newest pair itself) for the same
        # consecutive delta pair; on a match replay the deltas that follow.
        for i in range(count - 3, -1, -1):
            if deltas[i] == pair_first and deltas[i + 1] == pair_second:
                address = current_block
                block_size = self.block_size
                degree = self.degree
                for delta in deltas[i + 2:]:
                    address += delta * block_size
                    if address <= 0:
                        break
                    candidates.append(address)
                    if len(candidates) >= degree:
                        return candidates
                break
        return candidates

    def _generate(self, access: PrefetchAccess) -> List[int]:
        block = access.address - (access.address % self.block_size)
        entry = self._entry_for(access.pc)
        candidates: List[int] = []
        if entry.last_address:
            delta_blocks = (block - entry.last_address) // self.block_size
            if delta_blocks != 0:
                entry.deltas.append(delta_blocks)
                if len(entry.deltas) > self._deltas_per_entry:
                    entry.deltas.pop(0)
                candidates = self._correlate(entry, block)
                if not candidates and len(entry.deltas) >= 2 and (
                        entry.deltas[-1] == entry.deltas[-2]):
                    # Constant-stride fallback: replay the repeated delta.
                    for i in range(1, self.degree + 1):
                        candidates.append(
                            block + i * entry.deltas[-1] * self.block_size)
        entry.last_address = block
        if not candidates:
            return candidates

        # Suppress candidates already prefetched from this entry recently.
        filtered = [c for c in candidates if c != entry.last_prefetch and c > 0]
        if filtered:
            entry.last_prefetch = filtered[-1]
        return filtered
