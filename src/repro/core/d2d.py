"""Direct-to-Data (D2D / D2M) baseline: precise single-lookup location.

Sembrant, Hagersten and Black-Schaffer's D2D [26] and D2M [27] navigate the
cache hierarchy with a single lookup by keeping *precise* location pointers in
an extended TLB (eTLB) and a "Hub" structure, at the cost of enlarging TLB
entries, adding a new metadata hierarchy and changing the coherence scheme.
The paper uses D2D/D2M as the high-implementation-cost comparison point
(Section IV.C): it never mispredicts, but it pays

* a Hub modelled as an 8-way, 4 KB cache, and
* 10 % higher energy per TLB access because of the longer entries,

and applications with high TLB miss rates (e.g. nas.is) access the Hub more
often, raising its energy.

Because D2D is precise *by construction*, this reproduction implements it as a
tracker that mirrors every fill and eviction event exactly (including clean
evictions, which the paper's LP deliberately ignores) and therefore always
reports the true level.  The cost side — Hub and eTLB energy, Hub miss
traffic — is modelled explicitly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from ..energy.model import TLB_ACCESS_NJ, sram_access_energy
from ..memory.block import Level
from .base import LevelPredictor, Prediction

#: D2D's exact predictions, one shared (frozen) instance per level.
_D2D_PREDICTIONS = {level: Prediction(levels=(level,), source="d2d")
                    for level in (Level.L2, Level.L3, Level.MEM)}

#: D2D's cost model (Section IV.C): a 4 KB Hub, and eTLB entries whose
#: extra length costs 10 % more energy per TLB access.
HUB_BYTES = 4096
ETLB_ENERGY_OVERHEAD = 0.10


class DirectToDataPredictor(LevelPredictor):
    """Precise location tracker with D2D's cost model.

    The tracker maintains an exact block -> level map driven by the fill and
    eviction events the hierarchy reports.  Unlike the LocMap it also applies
    clean evictions, so it never goes stale: a block evicted (clean) from L2
    is known to live wherever its next copy is — in this functional model the
    destination is main memory unless the LLC also holds it, which the
    hierarchy communicates by reporting LLC fills separately.
    """

    prediction_latency = 0

    def __init__(self) -> None:
        super().__init__()
        self._hub_access_energy = sram_access_energy(HUB_BYTES)
        self._etlb_overhead = TLB_ACCESS_NJ * ETLB_ENERGY_OVERHEAD
        # Precise location state: which levels currently hold each block.
        self._in_l2: Dict[int, bool] = {}
        self._in_l3: Dict[int, bool] = {}
        # Hub: a small cache of per-page location groups; misses cost energy.
        self._hub: "OrderedDict[int, bool]" = OrderedDict()
        self._hub_entries = HUB_BYTES // 8
        self.hub_hits = 0
        self.hub_misses = 0

    # ------------------------------------------------------------------
    # Prediction (always exact)
    # ------------------------------------------------------------------
    def predict(self, block_addr: int, pc: int = 0) -> Prediction:
        self._touch_hub(block_addr)
        if self._in_l2.get(block_addr, False):
            level = Level.L2
        elif self._in_l3.get(block_addr, False):
            level = Level.L3
        else:
            level = Level.MEM
        return _D2D_PREDICTIONS[level]

    def _touch_hub(self, block_addr: int) -> None:
        """Model Hub locality: one entry per 4 KiB page of tracked blocks."""
        page = block_addr >> 12
        if page in self._hub:
            self._hub.move_to_end(page)
            self.hub_hits += 1
            return
        self.hub_misses += 1
        if len(self._hub) >= self._hub_entries:
            self._hub.popitem(last=False)
        self._hub[page] = True

    # ------------------------------------------------------------------
    # Precise tracking of fills and evictions
    # ------------------------------------------------------------------
    def on_fill(self, block_addr: int, level: Level,
                from_prefetch: bool = False) -> None:
        if level is Level.L2:
            self._in_l2[block_addr] = True
        elif level is Level.L3:
            self._in_l3[block_addr] = True
        self.stats.updates += 1

    def on_eviction(self, block_addr: int, level: Level, dirty: bool) -> None:
        # Precise: clean evictions are tracked too (unlike the LocMap).
        if level is Level.L2:
            self._in_l2.pop(block_addr, None)
            if dirty:
                self._in_l3[block_addr] = True
        elif level is Level.L3:
            self._in_l3.pop(block_addr, None)
        self.stats.updates += 1

    # ------------------------------------------------------------------
    # Costs
    # ------------------------------------------------------------------
    def storage_bits(self) -> int:
        return HUB_BYTES * 8

    def energy_per_prediction_nj(self) -> float:
        # Every prediction accesses the eTLB (10 % longer entries) and the
        # Hub; Hub misses require an additional fill access.
        hub_miss_ratio = 0.0
        total = self.hub_hits + self.hub_misses
        if total:
            hub_miss_ratio = self.hub_misses / total
        return (self._hub_access_energy * (1.0 + hub_miss_ratio)
                + self._etlb_overhead)

    @property
    def name(self) -> str:
        return "D2D"


class IdealPredictor(LevelPredictor):
    """Placeholder predictor used with the Ideal system configuration.

    The paper's Ideal system gives every L1 miss a perfect, zero-cost level
    prediction; the hierarchy implements that with its ``ideal_miss_latency``
    configuration flag (the oracle needs the actual block location, which only
    the hierarchy knows).  This predictor therefore adds no latency and no
    energy of its own; its statistics still record the (always correct)
    outcomes so Figure 10's "Ideal is L2+L3 cache energy only" reference holds.
    """

    prediction_latency = 0

    def predict(self, block_addr: int, pc: int = 0) -> Prediction:
        return Prediction.sequential()

    @property
    def name(self) -> str:
        return "Ideal"
