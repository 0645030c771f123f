"""Misprediction detection and recovery accounting (Section III.E).

The mechanics of recovery live in the hierarchy and directory models: the
collocated directory detects a bypassed private level during the LLC tag
access and a recovery transaction re-issues the request to the correct level.
This module provides the
*accounting* view of that machinery — the cost model used in the paper's
discussion ("on average only 1 % of the cache-hierarchy energy is spent on
recovery") and the per-run recovery summaries the benchmarks report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..energy.model import EnergyAccount
from ..memory.hierarchy import CoreMemoryHierarchy


@dataclass
class RecoverySummary:
    """Recovery behaviour of one simulation run.

    Attributes:
        predictions: Level predictions made (one per L1 miss).
        recoveries: Harmful mispredictions that required directory recovery.
        recovery_rate: Recoveries per prediction.
        recovery_energy_nj: Energy charged to the recovery category.
        recovery_energy_fraction: Recovery energy as a fraction of the total
            cache-hierarchy energy (the paper reports ~1 % on average).
        forced_mshr_deallocations: MSHR entries deallocated by recovery —
            always 0: the functional model retires each access before the
            next begins, so no entry is ever outstanding past the actual
            level.  Kept so stored results keep their shape.
    """

    predictions: int
    recoveries: int
    recovery_rate: float
    recovery_energy_nj: float
    recovery_energy_fraction: float
    forced_mshr_deallocations: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "predictions": float(self.predictions),
            "recoveries": float(self.recoveries),
            "recovery_rate": self.recovery_rate,
            "recovery_energy_nj": self.recovery_energy_nj,
            "recovery_energy_fraction": self.recovery_energy_fraction,
            "forced_mshr_deallocations": float(self.forced_mshr_deallocations),
        }


def summarize_recovery(hierarchy: CoreMemoryHierarchy) -> RecoverySummary:
    """Build a :class:`RecoverySummary` from a finished hierarchy run."""
    stats = hierarchy.stats
    energy: EnergyAccount = hierarchy.energy
    recovery_energy = energy.breakdown().get("recovery", 0.0)
    hierarchy_energy = energy.cache_hierarchy_energy()
    return RecoverySummary(
        predictions=stats.predictions,
        recoveries=stats.recoveries,
        recovery_rate=(stats.recoveries / stats.predictions
                       if stats.predictions else 0.0),
        recovery_energy_nj=recovery_energy,
        recovery_energy_fraction=(recovery_energy / hierarchy_energy
                                  if hierarchy_energy else 0.0),
        forced_mshr_deallocations=0,
    )
