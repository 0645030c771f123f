"""The location oracles: the Ideal system and the Direct-to-Data baseline.

The paper compares the proposed predictor with two schemes that always
know where a block is (Section IV.C):

* **Ideal** gives every L1 miss a perfect level prediction that costs
  nothing: no predictor latency and no predictor energy.
* **Direct-to-Data** (D2D / D2M, Sembrant, Hagersten and Black-Schaffer
  [26, 27]) navigates the hierarchy with a single lookup by keeping
  *precise* location pointers in an extended TLB (eTLB) and a "Hub"
  structure, at the cost of enlarging TLB entries, adding a new metadata
  hierarchy and changing the coherence scheme.  The paper uses it as the
  high-implementation-cost comparison point: it never mispredicts, but it
  pays

  * a Hub modelled as an 8-way, 4 KB cache, and
  * 10 % higher energy per TLB access because of the longer entries,

  and applications with high TLB miss rates (e.g. nas.is) access the Hub
  more often, raising its energy.

Both are precise *by construction*, so neither keeps location state of
its own: they are oracles (:attr:`~repro.core.base.LevelPredictor.oracle`),
and the replay predicts exactly the level the walk found each L1 miss's
block at — on any hierarchy, single-core or in a mix.  D2D is Ideal's
timing plus D2D's cost side (Hub and eTLB energy, Hub misses), which is
modelled explicitly.
"""

from __future__ import annotations

from collections import OrderedDict

from ..energy.model import TLB_ACCESS_NJ, sram_access_energy
from ..memory.block import Level
from .base import LevelPredictor, Prediction, PredictionOutcome

#: D2D's cost model (Section IV.C): a 4 KB Hub, and eTLB entries whose
#: extra length costs 10 % more energy per TLB access.
HUB_BYTES = 4096
ETLB_ENERGY_OVERHEAD = 0.10


class IdealPredictor(LevelPredictor):
    """The paper's Ideal system: a perfect, zero-cost level prediction.

    An oracle that is also free: the replay predicts the level the walk
    found the block at and charges no predictor latency or energy, so the
    request goes straight to the level that holds the block with no
    wasted lookups.  Its statistics still record the (always correct)
    outcomes, and Figure 10's "Ideal is L2+L3 cache energy only"
    reference holds.  Outside a replay the level is unknown, so a direct
    :meth:`predict` falls back to sequential lookup.
    """

    oracle = True
    free = True
    prediction_latency = 0

    def predict(self, block_addr: int, pc: int = 0) -> Prediction:
        return Prediction.sequential()

    @property
    def name(self) -> str:
        return "Ideal"


class DirectToDataPredictor(IdealPredictor):
    """Ideal's exact, zero-latency prediction with D2D's cost model.

    Every prediction looks its page up in the Hub (in miss order) and
    pays the eTLB and Hub energy.  D2D updates its location pointers on
    every fill and eviction, clean ones included (unlike the LocMap);
    ``stats.updates`` counts those notifications.
    """

    free = False

    def __init__(self) -> None:
        super().__init__()
        self._hub_access_energy = sram_access_energy(HUB_BYTES)
        self._etlb_overhead = TLB_ACCESS_NJ * ETLB_ENERGY_OVERHEAD
        # Hub: a small cache of per-page location groups; misses cost energy.
        self._hub: "OrderedDict[int, bool]" = OrderedDict()
        self._hub_entries = HUB_BYTES // 8
        self.hub_hits = 0
        self.hub_misses = 0

    def train(self, block_addr: int, pc: int, prediction: Prediction,
              actual: Level) -> PredictionOutcome:
        self._touch_hub(block_addr)
        return super().train(block_addr, pc, prediction, actual)

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

    def on_fill(self, block_addr: int, level: Level,
                from_prefetch: bool = False) -> None:
        self.stats.updates += 1

    def on_eviction(self, block_addr: int, level: Level, dirty: bool) -> None:
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
