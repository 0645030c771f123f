"""Multi-program and multi-threaded workload mixes (Table II).

The paper's multi-core evaluation runs five four-application mixes plus
GAPBS PageRank with two and four threads:

=====  ==========================================================
mix1   GAPBS.bfs, SPEC.619.lbm, NAS.lu, bmt
mix2   SPEC.654.roms, NAS.mg, SPEC.649.fotonik3d, SPEC.602.gcc
mix3   SPEC.620.omnetpp, GAPBS.pr, SPEC.627.cam, NAS.cg
mix4   SPEC.627.cam, NAS.cg, SPEC.621.wrf, NAS.bt
mix5   GAPBS.bfs, SPEC.619.lbm, SPEC.621.wrf, NAS.bt
MT1    GAPBS.pr with 2 threads
MT2    GAPBS.pr with 4 threads
=====  ==========================================================

Multi-program mixes place each application in a disjoint address region (one
per core); multi-threaded runs share a single graph, so their traces use the
same base address and therefore contend for (and share) the same blocks in the
LLC, which is what degrades prediction accuracy in Figure 13.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .base import ADDRESS_SPACE_STRIDE


@dataclass(frozen=True)
class MixSpec:
    """One multi-core workload: either a program mix or a threaded kernel."""

    name: str
    applications: tuple
    multithreaded: bool = False

    @property
    def num_cores(self) -> int:
        return len(self.applications)


#: Table II of the paper.
MIXES: Dict[str, MixSpec] = {
    "mix1": MixSpec("mix1", ("gapbs.bfs", "619.lbm", "nas.lu", "bmt")),
    "mix2": MixSpec("mix2", ("654.roms", "nas.mg", "649.foton", "602.gcc")),
    "mix3": MixSpec("mix3", ("620.omnet", "gapbs.pr", "627.cam", "nas.cg")),
    "mix4": MixSpec("mix4", ("627.cam", "nas.cg", "621.wrf", "nas.bt")),
    "mix5": MixSpec("mix5", ("gapbs.bfs", "619.lbm", "621.wrf", "nas.bt")),
    "MT1": MixSpec("MT1", ("gapbs.pr", "gapbs.pr"), multithreaded=True),
    "MT2": MixSpec("MT2", ("gapbs.pr",) * 4, multithreaded=True),
}


def get_mix(name: str) -> MixSpec:
    try:
        return MIXES[name]
    except KeyError as exc:
        raise ValueError(f"unknown mix {name!r}; known: {sorted(MIXES)}") from exc


def mix_core_plan(mix: MixSpec, seed: int = 0
                  ) -> List[Tuple[int, str, int, int]]:
    """Per-core generation parameters: (core, app_name, base, core_seed).

    This is the single definition of the mix placement/seeding policy,
    read by the engine's cached :func:`repro.sim.engine.mix_traces`.
    Multi-program mixes place each application in a disjoint address
    region (one per core); multi-threaded runs share a single region (and
    therefore data) across threads, with each thread visiting the shared
    structure in a different order (different seeds), which is how a
    parallel PageRank partitions work.
    """
    plan = []
    for core, app_name in enumerate(mix.applications):
        if mix.multithreaded:
            base = 0
            core_seed = seed + core + 1
        else:
            base = core * ADDRESS_SPACE_STRIDE
            core_seed = seed
        plan.append((core, app_name, base, core_seed))
    return plan

