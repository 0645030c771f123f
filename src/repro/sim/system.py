"""System assembly and single-core simulation driver.

:func:`build_system` turns a :class:`~repro.sim.config.SystemConfig` into a
ready-to-run :class:`SimulatedSystem`: it instantiates the predictor named in
the configuration, the paper's prefetch scheme, the shared LLC/DRAM resources
and the core timing model.  :meth:`SimulatedSystem.run_workload` then drives a
workload trace through the hierarchy and the core model and returns a
:class:`SimulationResult` with every quantity the paper's figures report.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

from ..core.base import LevelPredictor, PredictorStats, SequentialPredictor
from ..core.d2d import DirectToDataPredictor, IdealPredictor
from ..core.level_predictor import CacheLevelPredictor, LevelPredictorConfig
from ..core.recovery import RecoverySummary, summarize_recovery
from ..core.tage import TAGEConfig, TAGELevelPredictor
from ..cpu.ooo_core import ExecutionResult, OutOfOrderCore
from ..memory.hierarchy import (
    CoreMemoryHierarchy,
    HierarchyStats,
    SharedMemorySystem,
    Walk,
)
from ..memory.spec import HierarchySpec
from ..prefetch.base import NullPrefetcher, Prefetcher
from ..prefetch.dcpt import DCPTPrefetcher
from ..prefetch.nextline import TaggedNextLinePrefetcher
from ..prefetch.throttle import ThrottledPrefetcher
from ..trace import TraceBuffer
from ..workloads.base import Workload
from .config import SystemConfig


@dataclass
class SimulationResult:
    """Everything measured from one (workload, system) simulation."""

    workload: str
    system: str
    predictor: str
    execution: ExecutionResult
    hierarchy_stats: HierarchyStats
    predictor_stats: PredictorStats
    energy_breakdown: Dict[str, float]
    cache_hierarchy_energy_nj: float
    recovery: RecoverySummary
    metadata_miss_ratio: float = 0.0
    pld_misprediction_ratio: float = 0.0

    @property
    def ipc(self) -> float:
        return self.execution.ipc

    @property
    def average_memory_access_latency(self) -> float:
        return self.hierarchy_stats.average_memory_access_latency

    def speedup_over(self, baseline: "SimulationResult") -> float:
        return self.execution.speedup_over(baseline.execution)

    def normalized_energy_over(self, baseline: "SimulationResult") -> float:
        base = baseline.cache_hierarchy_energy_nj
        if base == 0.0:
            return 1.0
        return self.cache_hierarchy_energy_nj / base


def make_predictor(name: str, config: Optional[SystemConfig] = None
                   ) -> LevelPredictor:
    """Instantiate a level predictor by its configuration name."""
    config = config or SystemConfig.paper_single_core()
    name = name.lower()
    if name in ("baseline", "sequential"):
        return SequentialPredictor()
    if name == "lp":
        return CacheLevelPredictor(LevelPredictorConfig(
            metadata_cache_bytes=config.metadata_cache_bytes))
    if name == "tage-2kb":
        return TAGELevelPredictor(TAGEConfig(storage_bytes=2048))
    if name == "tage-8kb":
        return TAGELevelPredictor(TAGEConfig(storage_bytes=8192))
    if name == "d2d":
        return DirectToDataPredictor()
    if name == "ideal":
        return IdealPredictor()
    raise ValueError(f"unknown predictor {name!r}; known: "
                     "baseline, lp, tage-2kb, tage-8kb, d2d, ideal")


def _make_private_prefetchers(config: SystemConfig):
    """L1 and L2 prefetchers of the paper's baseline scheme."""
    if config.prefetch_scheme == "none":
        return NullPrefetcher(), NullPrefetcher()
    l1 = TaggedNextLinePrefetcher(degree=1)
    l2 = TaggedNextLinePrefetcher(degree=2)
    return l1, l2


def make_llc_prefetcher(config: SystemConfig) -> Prefetcher:
    """The LLC prefetcher (throttled DCPT degree 2 in the paper)."""
    if config.prefetch_scheme == "none":
        return NullPrefetcher()
    return ThrottledPrefetcher(DCPTPrefetcher(degree=2),
                               epoch_accesses=config.prefetch_epoch_accesses)


class SimulatedSystem:
    """A single-core system: hierarchy + predictor + core timing model.

    :meth:`run_trace` walks its trace on this system's own caches, or
    replays a :class:`~repro.memory.hierarchy.Walk` of it that the caller
    hands in (the engine shares one walk between the systems it compares,
    see :mod:`repro.memory.hierarchy`, "Walk and replay").
    """

    def __init__(self, config: Optional[SystemConfig] = None,
                 llc_prefetcher: Optional[Prefetcher] = None) -> None:
        self.config = config or SystemConfig.paper_single_core()
        self.predictor = make_predictor(self.config.predictor, self.config)
        self.shared = SharedMemorySystem(
            self.config.hierarchy, num_cores=1,
            llc_prefetcher=llc_prefetcher or make_llc_prefetcher(self.config))
        l1_prefetcher, l2_prefetcher = _make_private_prefetchers(self.config)
        self.hierarchy = CoreMemoryHierarchy(
            config=self.config.hierarchy, shared=self.shared,
            predictor=self.predictor, l1_prefetcher=l1_prefetcher,
            l2_prefetcher=l2_prefetcher, core_id=0, active_cores=1)
        self.core = OutOfOrderCore(self.config.core)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    # Read by perfbench until ROADMAP item 6 (its ``system.run_trace`` span).
    def run_trace(self, trace: TraceBuffer, workload_name: str = "trace",
                  walk: Optional[Walk] = None) -> SimulationResult:
        """Run a pre-generated trace through the hierarchy
        (:meth:`~repro.memory.hierarchy.CoreMemoryHierarchy.run_buffer`,
        which replays ``walk`` when one is given) and the core model."""
        latencies = self.hierarchy.run_buffer(trace, walk)
        execution = self.core.execute(trace, latencies)
        return self._collect(workload_name, execution)

    def run_workload(self, workload: Workload, num_accesses: int,
                     seed: int = 0, warmup_accesses: int = 0
                     ) -> SimulationResult:
        """Generate a workload trace (with optional warm-up) and run it.

        Warm-up accesses prime the caches, predictors and prefetchers but are
        excluded from all reported statistics, mirroring the paper's use of
        warm-up instructions before each SimPoint region.  The trace is
        materialised as a columnar buffer; the warm-up/measure split is a
        zero-copy slice.
        """
        total = num_accesses + warmup_accesses
        buffer = workload.generate_buffer(total, seed=seed)
        if warmup_accesses:
            self.hierarchy.run_buffer(buffer[:warmup_accesses])
            self.reset_statistics()
        return self.run_trace(buffer[warmup_accesses:], workload.name)

    def reset_statistics(self) -> None:
        self.hierarchy.reset_statistics()

    # ------------------------------------------------------------------
    # Result collection
    # ------------------------------------------------------------------
    def _collect(self, workload_name: str,
                 execution: ExecutionResult) -> SimulationResult:
        stats = self.hierarchy.stats
        predictor_stats = self.predictor.stats
        metadata_miss_ratio = 0.0
        pld_ratio = predictor_stats.pld_misprediction_ratio
        if isinstance(self.predictor, CacheLevelPredictor):
            metadata_miss_ratio = (
                self.predictor.locmap.metadata_cache.stats.miss_ratio)
        return SimulationResult(
            workload=workload_name,
            system=self.config.name,
            predictor=self.predictor.name,
            execution=execution,
            hierarchy_stats=stats,
            predictor_stats=predictor_stats,
            energy_breakdown=self.hierarchy.energy.breakdown(),
            cache_hierarchy_energy_nj=(
                self.hierarchy.energy.cache_hierarchy_energy()),
            recovery=summarize_recovery(self.hierarchy),
            metadata_miss_ratio=metadata_miss_ratio,
            pld_misprediction_ratio=pld_ratio,
        )


def walk_config(config: SystemConfig) -> Tuple[SystemConfig, tuple]:
    """The configuration that walks exactly like ``config``, and the key
    of that walk.

    The walk reads neither the predictor nor the spec's replay-only
    fields (see :func:`_walk_spec`), so every compared system of one
    hierarchy, and the latency variants of one chain, share it; the key
    names what it does read: the normalised spec, the prefetch scheme
    and its epoch, and the core count.
    """
    spec = _walk_spec(config.hierarchy)
    return (replace(config, predictor="baseline", hierarchy=spec),
            (spec, config.prefetch_scheme, config.prefetch_epoch_accesses,
             config.num_cores))


@functools.lru_cache(maxsize=64)
def _walk_spec(hierarchy: HierarchySpec) -> HierarchySpec:
    """``hierarchy`` with the fields only the replay reads set to fixed
    values: ``parallel_port_penalty``, ``memory_speculative_launch``
    and the tag/data latencies and ``sequential_tag_data`` of every
    level below L1 (the walk charges only the L1 hit latency; the replay
    times the rest of the path).

    Those levels take L1's timing, which keeps the chain's hit latencies
    non-decreasing, so the result is a valid spec.  Memoised: specs are
    immutable, and every job asks.
    """
    l1 = hierarchy.levels[0]
    timing = {"tag_latency": l1.tag_latency, "data_latency": l1.data_latency,
              "sequential_tag_data": l1.sequential_tag_data}
    return replace(
        hierarchy, parallel_port_penalty=0.0,
        memory_speculative_launch=True,
        levels=(l1,) + tuple(replace(level, **timing)
                             for level in hierarchy.levels[1:]))


def build_system(predictor: str = "lp",
                 config: Optional[SystemConfig] = None) -> SimulatedSystem:
    """Build a single-core system with the given predictor attached."""
    config = (config or SystemConfig.paper_single_core()).with_predictor(predictor)
    return SimulatedSystem(config)


def run_predictor_comparison(workload: Workload, num_accesses: int,
                             predictors: Sequence[str] = ("baseline", "lp"),
                             seed: int = 0,
                             config: Optional[SystemConfig] = None,
                             warmup_accesses: int = 0
                             ) -> Dict[str, SimulationResult]:
    """Run the same workload on several systems (one per predictor).

    Every system sees the exact same trace (same seed), which is how the
    paper's speedup and energy comparisons are defined.  The work runs on
    the :mod:`repro.sim.engine` — the trace is generated once (not once per
    system) and the jobs fan out over worker processes when ``REPRO_JOBS``
    asks for them.  When ``REPRO_STORE`` names a results store, previously
    computed (workload, system, seed, accesses) cells are read from it
    instead of being resimulated (see :mod:`repro.sim.store`).
    """
    from .engine import SimulationEngine, SimulationJob

    base_config = config or SystemConfig.paper_single_core()
    jobs = [SimulationJob(workload=workload, predictor=name,
                          num_accesses=num_accesses,
                          warmup_accesses=warmup_accesses, seed=seed,
                          config=base_config)
            for name in predictors]
    results = SimulationEngine().run(jobs)
    return dict(zip(predictors, results))
