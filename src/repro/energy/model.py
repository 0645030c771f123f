"""Cache-hierarchy energy model.

The paper uses CACTI to obtain per-access energies and accumulates total
cache-hierarchy energy (Section V.B).  CACTI itself is a large circuit-level
tool that is not available offline, so this module embeds a table of per-access
energies (in nanojoules, module constants) with the magnitudes and,
critically, the *relative ordering* CACTI produces for the paper's
structures at 22 nm-class nodes:

    L1 (32 KB) < metadata cache (2 KB) < L2 (256 KB)
    < LLC tag < LLC tag+data (2-8 MB) << DRAM access

All of the paper's energy results are normalized to the baseline, so only
these relative magnitudes matter for reproducing Figures 5, 10 and 14.

Two consumers use this model:

* the hierarchy charges lookup/fill/DRAM energy per access, and
* the predictors charge their own structure-access energy (LocMap metadata
  cache, TAGE tables, D2D Hub and eTLB overhead) plus directory accesses for
  misprediction recovery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

#: Per-access energies, in nanojoules.  They are constants: every figure
#: normalises to the baseline, so only their ordering matters.
L1_ACCESS_NJ = 0.010
L2_ACCESS_NJ = 0.035
LLC_TAG_ACCESS_NJ = 0.020
LLC_DATA_ACCESS_NJ = 0.110
DRAM_ACCESS_NJ = 6.0
DIRECTORY_ACCESS_NJ = 0.015
BUS_TRANSFER_NJ = 0.008
TLB_ACCESS_NJ = 0.004
#: Reference point for sqrt-capacity SRAM scaling: a 2 KB structure.
SRAM_REFERENCE_BYTES = 2048
SRAM_REFERENCE_NJ = 0.006


def sram_access_energy(capacity_bytes: int) -> float:
    """Per-access energy of a small SRAM of the given capacity.

    Scales with the square root of capacity relative to the 2 KB
    reference, which is the first-order behaviour CACTI reports for small
    tag/data arrays (the metadata cache sweep of Figure 5, the TAGE
    variants and D2D's Hub).
    """
    if capacity_bytes <= 0:
        return 0.0
    ratio = capacity_bytes / SRAM_REFERENCE_BYTES
    return SRAM_REFERENCE_NJ * math.sqrt(ratio)


@dataclass(slots=True)
class EnergyAccount:
    """Accumulates energy by category so figures can show stacked breakdowns.

    Categories follow Figure 10: baseline cache energy ("L2+L3"), predictor
    structure energy, and misprediction-recovery energy.
    """

    by_category: Dict[str, float] = field(default_factory=dict)

    def charge(self, category: str, nanojoules: float) -> None:
        if nanojoules < 0:
            raise ValueError("cannot charge negative energy")
        self.by_category[category] = self.by_category.get(category, 0.0) + nanojoules

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def total(self) -> float:
        return sum(self.by_category.values())

    def total_excluding(self, *categories: str) -> float:
        return sum(value for key, value in self.by_category.items()
                   if key not in categories)

    def cache_hierarchy_energy(self) -> float:
        """Energy of the on-chip hierarchy plus predictor plus recovery.

        This is the quantity the paper normalizes in Figure 10 ("cache
        hierarchy energy"); DRAM energy is excluded there.
        """
        return self.total_excluding("dram")

    def breakdown(self) -> Dict[str, float]:
        return dict(self.by_category)

    def reset(self) -> None:
        self.by_category.clear()


def normalized_energy(account: EnergyAccount, baseline: EnergyAccount) -> float:
    """Cache-hierarchy energy of ``account`` relative to ``baseline``."""
    base = baseline.cache_hierarchy_energy()
    if base == 0.0:
        return 1.0
    return account.cache_hierarchy_energy() / base
