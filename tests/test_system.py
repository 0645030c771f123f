"""Integration tests for system assembly and the single-core driver."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.base import SequentialPredictor
from repro.core.d2d import DirectToDataPredictor, IdealPredictor
from repro.core.level_predictor import CacheLevelPredictor
from repro.core.tage import TAGELevelPredictor
from repro.prefetch.base import NullPrefetcher
from repro.prefetch.throttle import ThrottledPrefetcher
from repro.sim.config import PREDICTOR_NAMES, SystemConfig, table1_description
from repro.sim.system import (
    SimulatedSystem,
    build_system,
    make_llc_prefetcher,
    make_predictor,
    run_predictor_comparison,
)
from repro.workloads import build_workload


class TestPredictorFactory:
    def test_all_registry_names_build(self):
        for name in PREDICTOR_NAMES:
            assert make_predictor(name) is not None

    def test_specific_types(self):
        assert isinstance(make_predictor("baseline"), SequentialPredictor)
        assert isinstance(make_predictor("lp"), CacheLevelPredictor)
        assert isinstance(make_predictor("tage-2kb"), TAGELevelPredictor)
        assert isinstance(make_predictor("d2d"), DirectToDataPredictor)
        assert isinstance(make_predictor("ideal"), IdealPredictor)

    def test_tage_sizes(self):
        assert make_predictor("tage-2kb").storage_bits() == 2048 * 8
        assert make_predictor("tage-8kb").storage_bits() == 8192 * 8

    def test_unknown_predictor(self):
        with pytest.raises(ValueError):
            make_predictor("oracle9000")

    def test_metadata_cache_size_flows_from_config(self):
        config = dataclasses.replace(SystemConfig.paper_single_core(),
                                     metadata_cache_bytes=4096)
        predictor = make_predictor("lp", config)
        assert predictor.locmap.metadata_cache.size_bytes == 4096


class TestSystemConfig:
    def test_single_and_multi_core_llc_sizes(self):
        single = SystemConfig.paper_single_core()
        multi = SystemConfig.paper_multi_core()
        assert single.hierarchy.llc.size_bytes == 2 * 1024 * 1024
        assert multi.hierarchy.llc.size_bytes == 8 * 1024 * 1024
        assert multi.num_cores == 4

    def test_with_predictor_copies(self):
        config = SystemConfig.paper_single_core("baseline")
        other = config.with_predictor("lp")
        assert other.predictor == "lp"
        assert config.predictor == "baseline"

    def test_sensitivity_variants_cover_figure15(self):
        variants = SystemConfig.sensitivity_variants()
        assert set(variants) == {"default", "fast-seq-llc", "parallel-llc",
                                 "parallel-llc-lsq96", "aggressive-core"}
        assert variants["aggressive-core"].core.rob_entries == 224
        parallel_llc = variants["parallel-llc"].hierarchy.llc
        assert parallel_llc.tag_latency + parallel_llc.data_latency == 40

    def test_table1_description_mentions_key_parameters(self):
        table = table1_description()
        assert "32 KB" in table["L1 Cache"]
        assert "256 KB" in table["L2 Cache"]
        assert "MOESI" in table["Coherency"]
        assert "DCPT" in table["L3 Cache"]

    def test_prefetcher_factory(self):
        paper = make_llc_prefetcher(SystemConfig.paper_single_core())
        assert isinstance(paper, ThrottledPrefetcher)
        none_config = dataclasses.replace(SystemConfig.paper_single_core(),
                                          prefetch_scheme="none")
        assert isinstance(make_llc_prefetcher(none_config), NullPrefetcher)

    @pytest.mark.parametrize("scheme", ["paperx", "", "None"])
    def test_unknown_prefetch_scheme_rejected(self, scheme):
        """Any name but ``paper`` and ``none`` used to run the paper
        prefetchers under a job key of its own."""
        with pytest.raises(ValueError, match="prefetch scheme"):
            SystemConfig(prefetch_scheme=scheme)
        with pytest.raises(ValueError, match="prefetch scheme"):
            dataclasses.replace(SystemConfig.paper_single_core(),
                                prefetch_scheme=scheme)

    def test_config_is_frozen(self):
        """Assigning a field skipped __post_init__'s scheme check, so an
        unknown scheme still built the paper prefetchers."""
        config = SystemConfig.paper_single_core()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.prefetch_scheme = "paperx"
        assert config.prefetch_scheme == "paper"


class TestSimulatedSystem:
    def test_run_workload_produces_consistent_result(self):
        system = build_system("lp")
        result = system.run_workload(build_workload("gups"), 1500, seed=1)
        assert result.workload == "gups"
        assert result.predictor == "CacheLevelPredictor"
        assert result.execution.instructions > 0
        assert result.hierarchy_stats.demand_accesses == 1500
        assert result.cache_hierarchy_energy_nj > 0
        stats = result.predictor_stats
        assert stats.predictions == result.hierarchy_stats.predictions

    def test_warmup_excluded_from_statistics(self):
        system = build_system("lp")
        result = system.run_workload(build_workload("stream"), 1000, seed=1,
                                     warmup_accesses=500)
        assert result.hierarchy_stats.demand_accesses == 1000

    def test_ideal_charges_no_predictor_energy_and_d2d_does(self):
        workload = build_workload("gups")
        ideal = SimulatedSystem(SystemConfig.paper_single_core("ideal")) \
            .run_workload(workload, 600, seed=2)
        d2d = SimulatedSystem(SystemConfig.paper_single_core("d2d")) \
            .run_workload(workload, 600, seed=2)
        assert ideal.predictor_stats.predictions > 0
        assert "predictor" not in ideal.energy_breakdown
        assert d2d.energy_breakdown["predictor"] > 0.0

    def test_comparison_runs_same_trace_for_all_systems(self):
        results = run_predictor_comparison(
            build_workload("gups"), num_accesses=1200,
            predictors=("baseline", "lp", "ideal"), seed=3)
        accesses = {r.hierarchy_stats.demand_accesses for r in results.values()}
        assert accesses == {1200}
        baseline = results["baseline"]
        assert results["ideal"].speedup_over(baseline) >= 1.0
        assert results["lp"].speedup_over(baseline) >= 1.0

    def test_lp_beats_baseline_on_memory_bound_workload(self):
        """The headline claim on a clearly memory-bound workload."""
        results = run_predictor_comparison(
            build_workload("gapbs.pr"), num_accesses=4000,
            predictors=("baseline", "lp", "ideal"), seed=0,
            warmup_accesses=1000)
        baseline = results["baseline"]
        lp_speedup = results["lp"].speedup_over(baseline)
        ideal_speedup = results["ideal"].speedup_over(baseline)
        assert lp_speedup > 1.02
        assert ideal_speedup >= lp_speedup

    def test_lp_saves_cache_energy_on_memory_bound_workload(self):
        results = run_predictor_comparison(
            build_workload("gups"), num_accesses=3000,
            predictors=("baseline", "lp"), seed=0, warmup_accesses=500)
        assert results["lp"].normalized_energy_over(results["baseline"]) < 1.0

    def test_recovery_summary_consistent(self):
        results = run_predictor_comparison(
            build_workload("623.xalan"), num_accesses=3000,
            predictors=("baseline", "lp"), seed=0)
        recovery = results["lp"].recovery
        assert recovery.predictions == results["lp"].hierarchy_stats.predictions
        assert 0.0 <= recovery.recovery_rate <= 1.0
        assert recovery.recovery_energy_fraction < 0.2
