"""Multi-core simulation driver (Section V.D).

The paper's multi-core evaluation runs the Table II mixes on a quad-core
system with an 8 MB shared LLC and one level predictor per core.  This driver
builds one :class:`CoreMemoryHierarchy` (with its own predictor and private
prefetchers) per core on top of a single :class:`SharedMemorySystem`, and
interleaves the per-core traces round-robin so the cores contend for the LLC,
the directory and DRAM banks the way concurrently running programs do.

Per-core IPC is computed with the same window-limited core model as the
single-core runs; the figures report the geometric-mean speedup across cores
(multi-program mixes) or the aggregate accuracy breakdown (Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.base import PredictionOutcome
from ..cpu.ooo_core import ExecutionResult, OutOfOrderCore, geometric_mean
from ..memory.block import AccessType
from ..memory.hierarchy import (
    CoreMemoryHierarchy,
    SharedMemorySystem,
    Walk,
)
from ..trace import TraceBuffer
from .config import SystemConfig
from .system import make_llc_prefetcher, make_predictor, \
    _make_private_prefetchers

_LOAD = AccessType.LOAD
_STORE = AccessType.STORE


@dataclass
class MultiCoreResult:
    """Aggregated outcome of one multi-core simulation."""

    mix: str
    predictor: str
    per_core_execution: List[ExecutionResult]
    per_core_workloads: List[str]
    accuracy_breakdown: Dict[str, float]
    cache_hierarchy_energy_nj: float
    total_predictions: int
    total_recoveries: int

    @property
    def aggregate_ipc(self) -> float:
        return sum(result.ipc for result in self.per_core_execution)

    def speedup_over(self, baseline: "MultiCoreResult") -> float:
        """Geometric mean of per-core speedups (the paper's metric)."""
        speedups = []
        for mine, theirs in zip(self.per_core_execution,
                                baseline.per_core_execution):
            if theirs.ipc > 0:
                speedups.append(mine.ipc / theirs.ipc)
        return geometric_mean(speedups) if speedups else 1.0

    def normalized_energy_over(self, baseline: "MultiCoreResult") -> float:
        if baseline.cache_hierarchy_energy_nj == 0.0:
            return 1.0
        return (self.cache_hierarchy_energy_nj
                / baseline.cache_hierarchy_energy_nj)

    def energy_efficiency_over(self, baseline: "MultiCoreResult") -> float:
        """Performance per unit of cache-hierarchy energy, relative."""
        normalized_energy = self.normalized_energy_over(baseline)
        speedup = self.speedup_over(baseline)
        if normalized_energy == 0.0:
            return speedup
        return speedup / normalized_energy


class MultiCoreSystem:
    """A quad-core (or N-core) system sharing one LLC and DRAM channel.

    :meth:`run_traces` walks its traces' round-robin interleaving on this
    system's caches, or replays walks of it that the caller hands in (the
    engine shares them between the systems it compares, see
    :mod:`repro.memory.hierarchy`, "Walk and replay").
    """

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config or SystemConfig.paper_multi_core()
        self.shared = SharedMemorySystem(
            self.config.hierarchy, num_cores=self.config.num_cores,
            llc_prefetcher=make_llc_prefetcher(self.config))
        self.cores: List[CoreMemoryHierarchy] = []
        for core_id in range(self.config.num_cores):
            l1_prefetcher, l2_prefetcher = _make_private_prefetchers(self.config)
            self.cores.append(CoreMemoryHierarchy(
                config=self.config.hierarchy, shared=self.shared,
                predictor=make_predictor(self.config.predictor, self.config),
                l1_prefetcher=l1_prefetcher, l2_prefetcher=l2_prefetcher,
                core_id=core_id, active_cores=self.config.num_cores))
        self.core_model = OutOfOrderCore(self.config.core)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    # Read by perfbench until ROADMAP item 6 (its
    # ``multicore.run_traces`` span).
    def run_traces(self, traces: Sequence[TraceBuffer],
                   workload_names: Optional[Sequence[str]] = None,
                   mix_name: str = "mix",
                   walks: Optional[Sequence[Walk]] = None) -> MultiCoreResult:
        """Interleave per-core traces round-robin and time each core.

        The round-robin interleaving is walked once (:meth:`walk`, unless
        ``walks`` hands in one walk per trace of it), then each core
        replays its own accesses through its predictor and timing model.
        """
        if len(traces) > len(self.cores):
            raise ValueError("more traces than cores")
        if walks is not None and len(walks) != len(traces):
            raise ValueError(f"{len(walks)} walks for {len(traces)} traces")
        if not traces:
            return self._collect(mix_name, [], [])
        names = list(workload_names or [f"core{i}" for i in range(len(traces))])
        if walks is None:
            walks = self.walk(traces)
        per_core_latencies = [core.replay(walk, 0, len(walk))
                              for core, walk in zip(self.cores, walks)]
        executions = [
            self.core_model.execute(trace, latencies)
            for trace, latencies in zip(traces, per_core_latencies)
        ]
        return self._collect(mix_name, names, executions)

    def walk(self, traces: Sequence[TraceBuffer]) -> Tuple[Walk, ...]:
        """Walk the round-robin interleaving of per-core trace buffers
        through this system's caches; one :class:`Walk` per trace."""
        plan = []
        walks = []
        load, store = _LOAD, _STORE
        for core, trace in zip(self.cores, traces):
            walk = Walk()
            walks.append(walk)
            # Each core records into its own walk.
            core._record(walk)
            if len(trace):
                plan.append((core._step, len(trace)) + trace.replay_columns(
                    core._block_size, core._l1_page_size))
        longest = max(len(trace) for trace in traces)
        for position in range(longest):
            for step, length, addresses, blocks, pages, is_store, pcs \
                    in plan:
                if position < length:
                    step(addresses[position], blocks[position],
                         pages[position],
                         store if is_store[position] else load,
                         pcs[position])
        for core in self.cores[:len(walks)]:
            core._seal()
        return tuple(walks)

    def run_mix(self, mix_name: str, accesses_per_core: int,
                seed: int = 0) -> MultiCoreResult:
        """Run one of the Table II mixes (traces come from the trace cache)."""
        from .engine import mix_traces

        traces, names = mix_traces(mix_name, accesses_per_core, seed=seed)
        return self.run_traces(traces, workload_names=names,
                               mix_name=mix_name)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _collect(self, mix_name: str, names: Sequence[str],
                 executions: List[ExecutionResult]) -> MultiCoreResult:
        outcome_totals = {outcome: 0 for outcome in PredictionOutcome}
        predictions = 0
        recoveries = 0
        energy = 0.0
        for core in self.cores:
            stats = core.predictor.stats
            predictions += stats.predictions
            for outcome, count in stats.outcomes.items():
                outcome_totals[outcome] += count
            recoveries += core.stats.recoveries
            energy += core.energy.cache_hierarchy_energy()
        breakdown = {
            outcome.value: (outcome_totals[outcome] / predictions
                            if predictions else 0.0)
            for outcome in PredictionOutcome
        }
        return MultiCoreResult(
            mix=mix_name,
            predictor=self.config.predictor,
            per_core_execution=executions,
            per_core_workloads=list(names),
            accuracy_breakdown=breakdown,
            cache_hierarchy_energy_nj=energy,
            total_predictions=predictions,
            total_recoveries=recoveries,
        )


def run_mix_comparison(mix_name: str, accesses_per_core: int,
                       predictors: Sequence[str] = ("baseline", "lp"),
                       seed: int = 0,
                       config: Optional[SystemConfig] = None
                       ) -> Dict[str, MultiCoreResult]:
    """Run one Table II mix under several predictors (same traces).

    Runs on the :mod:`repro.sim.engine`: per-core traces are generated once
    through the trace cache instead of once per compared system, and the
    per-predictor jobs parallelise under ``REPRO_JOBS``.  When
    ``REPRO_STORE`` names a results store, stored (mix, predictor) cells
    are served from it instead of being resimulated.
    """
    from .engine import MixJob, SimulationEngine

    base_config = config or SystemConfig.paper_multi_core()
    jobs = [MixJob(mix=mix_name, predictor=predictor,
                   accesses_per_core=accesses_per_core, seed=seed,
                   config=base_config)
            for predictor in predictors]
    results = SimulationEngine().run(jobs)
    return dict(zip(predictors, results))
