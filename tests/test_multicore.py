"""Integration tests for the multi-core driver (Table II mixes)."""

from __future__ import annotations

import pytest

from repro.core.base import PredictionOutcome
from repro.cpu.ooo_core import ExecutionResult
from repro.sim.config import SystemConfig
from repro.sim.multicore import (
    MultiCoreResult,
    MultiCoreSystem,
    run_mix_comparison,
)
from repro.workloads import build_workload


class TestMultiCoreSystem:
    def test_builds_one_hierarchy_per_core(self):
        system = MultiCoreSystem(SystemConfig.paper_multi_core("lp"))
        assert len(system.cores) == 4
        predictors = {id(core.predictor) for core in system.cores}
        assert len(predictors) == 4          # one LP per core (Section V.D)
        llc = {id(core.shared.l3) for core in system.cores}
        assert len(llc) == 1                 # one shared LLC

    def test_run_traces_rejects_too_many_traces(self):
        system = MultiCoreSystem(SystemConfig.paper_multi_core("lp",
                                                               num_cores=2))
        traces = [build_workload("gups").generate_buffer(10, seed=i)
                  for i in range(3)]
        with pytest.raises(ValueError):
            system.run_traces(traces)

    def test_mix_run_produces_per_core_results(self):
        system = MultiCoreSystem(SystemConfig.paper_multi_core("lp"))
        result = system.run_mix("mix1", accesses_per_core=600, seed=0)
        assert len(result.per_core_execution) == 4
        assert result.per_core_workloads == ["gapbs.bfs", "619.lbm",
                                             "nas.lu", "bmt"]
        assert result.total_predictions > 0
        assert sum(result.accuracy_breakdown.values()) == pytest.approx(1.0)

    def test_multithreaded_mix_uses_two_cores(self):
        system = MultiCoreSystem(SystemConfig.paper_multi_core("lp"))
        result = system.run_mix("MT1", accesses_per_core=400, seed=0)
        assert len(result.per_core_execution) == 2
        assert result.aggregate_ipc > 0

    def test_shared_blocks_visible_across_cores(self):
        """Multi-threaded runs share the LLC, so one thread's fill can be
        another thread's remote/LLC hit."""
        system = MultiCoreSystem(SystemConfig.paper_multi_core("baseline"))
        result = system.run_mix("MT2", accesses_per_core=500, seed=1)
        total_l3_hits = sum(core.stats.l3_hits for core in system.cores)
        assert total_l3_hits > 0


class TestInterleaveBoundaries:
    """Round-robin interleave edges: trace lengths that do not divide
    evenly across the active cores."""

    @staticmethod
    def _system(num_cores: int = 4) -> MultiCoreSystem:
        return MultiCoreSystem(SystemConfig.paper_multi_core(
            "lp", num_cores=num_cores))

    def test_unequal_trace_lengths_time_each_core_fully(self):
        system = self._system(num_cores=2)
        lengths = (37, 11)   # deliberately coprime with the core count
        traces = [build_workload("gups").generate_buffer(length, seed=i)
                  for i, length in enumerate(lengths)]
        result = system.run_traces(traces)
        assert [execution.memory_accesses
                for execution in result.per_core_execution] == list(lengths)

    def test_single_trace_on_a_multi_core_system(self):
        system = self._system(num_cores=4)
        trace = build_workload("stream").generate_buffer(25, seed=0)
        result = system.run_traces([trace])
        assert len(result.per_core_execution) == 1
        assert result.per_core_execution[0].memory_accesses == 25
        assert result.per_core_workloads == ["core0"]

    def test_empty_trace_among_active_cores(self):
        system = self._system(num_cores=2)
        traces = [build_workload("gups").generate_buffer(13, seed=0),
                  build_workload("gups").generate_buffer(13, seed=1)[:0]]
        result = system.run_traces(traces)
        assert result.per_core_execution[0].memory_accesses == 13
        assert result.per_core_execution[1].memory_accesses == 0
        assert result.per_core_execution[1].ipc == 0.0

    def test_no_traces_yields_an_empty_result(self):
        result = self._system().run_traces([], mix_name="idle")
        assert result.mix == "idle"
        assert result.per_core_execution == []
        assert result.aggregate_ipc == 0.0
        assert result.total_predictions == 0

    def test_mix_runs_are_deterministic(self):
        first = MultiCoreSystem(SystemConfig.paper_multi_core("lp")) \
            .run_mix("mix2", accesses_per_core=300, seed=5)
        second = MultiCoreSystem(SystemConfig.paper_multi_core("lp")) \
            .run_mix("mix2", accesses_per_core=300, seed=5)
        assert first == second

    def test_two_core_config_builds_two_cores(self):
        system = self._system(num_cores=2)
        assert len(system.cores) == 2
        assert {core.core_id for core in system.cores} == {0, 1}


class TestResultMath:
    """MultiCoreResult metric edges, built from synthetic executions."""

    @staticmethod
    def _result(ipcs, energy=100.0) -> MultiCoreResult:
        executions = [ExecutionResult(cycles=100.0, instructions=int(100 * ipc),
                                      memory_accesses=10, stall_cycles=0.0)
                      for ipc in ipcs]
        return MultiCoreResult(
            mix="synthetic", predictor="lp",
            per_core_execution=executions,
            per_core_workloads=[f"core{i}" for i in range(len(ipcs))],
            accuracy_breakdown={}, cache_hierarchy_energy_nj=energy,
            total_predictions=0, total_recoveries=0)

    def test_aggregate_ipc_sums_cores(self):
        assert self._result([1.0, 2.0, 0.5]).aggregate_ipc \
            == pytest.approx(3.5)

    def test_speedup_skips_idle_baseline_cores(self):
        mine = self._result([2.0, 3.0])
        baseline = self._result([1.0, 0.0])
        # The zero-IPC baseline core contributes no ratio (geomean of one).
        assert mine.speedup_over(baseline) == pytest.approx(2.0)

    def test_speedup_against_fully_idle_baseline_is_one(self):
        assert self._result([2.0]).speedup_over(self._result([0.0])) == 1.0

    def test_normalized_energy_handles_zero_baseline(self):
        assert self._result([1.0], energy=50.0).normalized_energy_over(
            self._result([1.0], energy=0.0)) == 1.0
        assert self._result([1.0], energy=50.0).normalized_energy_over(
            self._result([1.0], energy=100.0)) == pytest.approx(0.5)

    def test_energy_efficiency_combines_speedup_and_energy(self):
        mine = self._result([2.0], energy=50.0)
        baseline = self._result([1.0], energy=100.0)
        assert mine.energy_efficiency_over(baseline) == pytest.approx(4.0)


class TestMixComparison:
    def test_lp_improves_mix_performance_and_energy(self):
        results = run_mix_comparison("mix1", accesses_per_core=700,
                                     predictors=("baseline", "lp"), seed=0)
        baseline, lp = results["baseline"], results["lp"]
        assert lp.speedup_over(baseline) > 1.0
        assert lp.normalized_energy_over(baseline) < 1.05
        assert lp.energy_efficiency_over(baseline) > 1.0

    def test_breakdown_mostly_accurate(self):
        results = run_mix_comparison("mix1", accesses_per_core=700,
                                     predictors=("lp",), seed=0)
        breakdown = results["lp"].accuracy_breakdown
        harmful = breakdown[PredictionOutcome.HARMFUL.value]
        assert harmful < 0.3

    def test_speedup_over_itself_is_one(self):
        results = run_mix_comparison("mix4", accesses_per_core=400,
                                     predictors=("baseline",), seed=0)
        baseline = results["baseline"]
        assert baseline.speedup_over(baseline) == pytest.approx(1.0)
