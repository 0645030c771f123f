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
from typing import Dict, List, Optional, Sequence

from ..core.base import PredictionOutcome
from ..cpu.ooo_core import ExecutionResult, OutOfOrderCore, geometric_mean
from ..memory.block import AccessResult, AccessType
from ..memory.hierarchy import CoreMemoryHierarchy, SharedMemorySystem
from ..trace import TraceBuffer
from .config import SystemConfig
from .system import Trace, make_llc_prefetcher, make_predictor, \
    _make_private_prefetchers, _with_ideal_latency

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
    """A quad-core (or N-core) system sharing one LLC and DRAM channel."""

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config or SystemConfig.paper_multi_core()
        hierarchy_config = self.config.hierarchy
        if self.config.predictor == "ideal":
            hierarchy_config = _with_ideal_latency(hierarchy_config)
        self.shared = SharedMemorySystem(
            hierarchy_config, num_cores=self.config.num_cores,
            llc_prefetcher=make_llc_prefetcher(self.config))
        self.cores: List[CoreMemoryHierarchy] = []
        for core_id in range(self.config.num_cores):
            l1_prefetcher, l2_prefetcher = _make_private_prefetchers(self.config)
            self.cores.append(CoreMemoryHierarchy(
                config=hierarchy_config, shared=self.shared,
                predictor=make_predictor(self.config.predictor, self.config),
                l1_prefetcher=l1_prefetcher, l2_prefetcher=l2_prefetcher,
                core_id=core_id, active_cores=self.config.num_cores))
        self.core_model = OutOfOrderCore(self.config.core)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run_traces(self, traces: Sequence[Trace],
                   workload_names: Optional[Sequence[str]] = None,
                   mix_name: str = "mix") -> MultiCoreResult:
        """Interleave per-core traces round-robin and time each core.

        Traces are decomposed into block/page columns once per core up
        front (legacy record lists are packed into columnar buffers first —
        the streams are identical, so results are bit-identical either
        way), and the interleaved loop services each access through
        :meth:`~repro.memory.hierarchy.CoreMemoryHierarchy.access_decomposed`
        with no per-access record unpacking.
        """
        if len(traces) > len(self.cores):
            raise ValueError("more traces than cores")
        if not traces:
            return self._collect(mix_name, [], [])
        names = list(workload_names or [f"core{i}" for i in range(len(traces))])
        per_core_results: List[List[AccessResult]] = [[] for _ in traces]

        # Decompose every trace into ready-to-service argument rows up
        # front (legacy record lists are packed into buffers first), so the
        # interleaved loop below does no per-access unpacking, masking or
        # core re-lookup — just one bound-method call per access.
        load, store = _LOAD, _STORE
        plan = []
        for core, trace, results in zip(self.cores, traces,
                                        per_core_results):
            if len(trace):
                buffer = trace if isinstance(trace, TraceBuffer) \
                    else TraceBuffer.from_accesses(trace)
                addresses, blocks, pages, is_store, pcs = \
                    buffer.replay_columns(core._block_size,
                                          core._l1_page_size)
                rows = list(zip(addresses, blocks, pages,
                                (store if stored else load
                                 for stored in is_store), pcs))
            else:
                rows = []
            plan.append((core.access_decomposed, rows, results.append))

        longest = max(len(trace) for trace in traces)
        for position in range(longest):
            for service, rows, append in plan:
                if position < len(rows):
                    append(service(*rows[position]))

        executions = [
            self.core_model.execute(trace, results)
            for trace, results in zip(traces, per_core_results)
        ]
        return self._collect(mix_name, names, executions)

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
