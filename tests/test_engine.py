"""Tests for the batched/parallel simulation engine (repro.sim.engine)."""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS, Scale
from repro.sim.config import SystemConfig
from repro.sim.engine import (
    MixJob,
    SimulationEngine,
    SimulationJob,
    TraceCache,
    execute_job,
    expand_grid,
    mix_traces,
)
from repro.sim.options import EngineOptions
from repro.sim.store import serialize_result
from repro.sim.system import SimulatedSystem, run_predictor_comparison
from repro.trace import TraceBuffer
from repro.workloads import build_workload

from proc_helpers import alive

APPS = ["gapbs.bfs", "605.mcf", "stream"]
SYSTEMS = ("baseline", "lp", "ideal")

#: A tiny figure scale, so facade runs stay fast.
TINY = Scale(accesses=120, warmup=40, mix_accesses=80)

HIERARCHIES = Path(__file__).resolve().parent.parent / "examples" / \
    "hierarchies"


def assert_results_identical(first, second):
    """Two SimulationResults must agree bit-for-bit on every reported metric."""
    assert first.workload == second.workload
    assert first.predictor == second.predictor
    assert first.execution.cycles == second.execution.cycles
    assert first.execution.instructions == second.execution.instructions
    assert first.ipc == second.ipc
    assert first.cache_hierarchy_energy_nj == second.cache_hierarchy_energy_nj
    assert first.energy_breakdown == second.energy_breakdown
    for field in ("demand_accesses", "l1_hits", "l2_hits", "l3_hits",
                  "memory_accesses", "total_demand_latency", "miss_latency",
                  "predictions", "recoveries"):
        assert getattr(first.hierarchy_stats, field) == \
            getattr(second.hierarchy_stats, field), field
    assert first.predictor_stats.predictions == \
        second.predictor_stats.predictions
    assert first.predictor_stats.outcomes == second.predictor_stats.outcomes
    assert first.metadata_miss_ratio == second.metadata_miss_ratio


class TestTraceCache:
    def test_repeated_key_returns_identical_object(self):
        cache = TraceCache()
        first = cache.get("gapbs.bfs", 400, seed=3)
        second = cache.get("gapbs.bfs", 400, seed=3)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_keys_generate_distinct_traces(self):
        cache = TraceCache()
        base = cache.get("stream", 300, seed=0)
        assert cache.get("stream", 300, seed=1) is not base
        assert cache.get("stream", 301, seed=0) is not base
        assert cache.get("stream", 300, seed=0, base_address=1 << 36) is not base
        assert cache.misses == 4

    def test_workload_objects_cached_by_identity(self):
        cache = TraceCache()
        workload = build_workload("gups")
        twin = build_workload("gups")
        first = cache.get(workload, 200)
        assert cache.get(workload, 200) is first
        # A different object is a different key even with the same name.
        assert cache.get(twin, 200) is not first

    def test_named_trace_matches_direct_generation(self):
        cache = TraceCache()
        cached = cache.get("gapbs.bfs", 250, seed=7)
        direct = build_workload("gapbs.bfs").generate_buffer(250, seed=7)
        assert isinstance(cached, TraceBuffer)
        assert cached == direct

    def test_lru_bound(self):
        cache = TraceCache(max_traces=2)
        cache.get("stream", 100, seed=0)
        cache.get("stream", 100, seed=1)
        cache.get("stream", 100, seed=2)
        assert len(cache) == 2


class TestEngineConfiguration:
    def test_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert SimulationEngine().num_workers == 1

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert SimulationEngine().num_workers == 3
        assert SimulationEngine(jobs=2).num_workers == 2

    def test_invalid_env_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            SimulationEngine()

    def test_expand_grid_shape_and_order(self):
        jobs = expand_grid(APPS, SYSTEMS, num_accesses=100,
                           warmup_accesses=10, seeds=(0, 1))
        assert len(jobs) == len(APPS) * len(SYSTEMS) * 2
        # Workload-major, then seed, then predictor.
        assert jobs[0].workload == APPS[0]
        assert jobs[0].predictor == SYSTEMS[0]
        assert jobs[1].predictor == SYSTEMS[1]
        assert jobs[len(SYSTEMS)].seed == 1


class TestSerialParallelEquivalence:
    def test_single_core_grid_bit_identical(self):
        jobs = expand_grid(APPS, SYSTEMS, num_accesses=400,
                           warmup_accesses=100)
        serial = SimulationEngine(jobs=1).run(jobs)
        parallel = SimulationEngine(jobs=2).run(jobs)
        assert len(serial) == len(parallel) == len(jobs)
        for first, second in zip(serial, parallel):
            assert_results_identical(first, second)

    def test_mix_jobs_bit_identical(self):
        jobs = [MixJob(mix=mix, predictor=predictor, accesses_per_core=200)
                for mix in ("mix1", "MT1") for predictor in ("baseline", "lp")]
        serial = SimulationEngine(jobs=1).run(jobs)
        parallel = SimulationEngine(jobs=2).run(jobs)
        for first, second in zip(serial, parallel):
            assert first.mix == second.mix
            assert first.predictor == second.predictor
            assert first.aggregate_ipc == second.aggregate_ipc
            assert first.cache_hierarchy_energy_nj == \
                second.cache_hierarchy_energy_nj
            assert first.accuracy_breakdown == second.accuracy_breakdown

    def test_engine_matches_direct_driver(self):
        """execute_job reproduces SimulatedSystem.run_workload exactly."""
        workload = build_workload("gapbs.bfs")
        direct = SimulatedSystem(
            SystemConfig.paper_single_core("lp")).run_workload(
            workload, 400, seed=0, warmup_accesses=100)
        via_engine = execute_job(SimulationJob(
            workload="gapbs.bfs", predictor="lp", num_accesses=400,
            warmup_accesses=100, seed=0))
        assert_results_identical(direct, via_engine)


#: A serial engine run in a fresh interpreter; prints which of the daemon
#: core, the worker pool and multiprocessing it loaded.
_SERIAL_RUN = """
import sys
from repro.sim.engine import SimulationEngine, SimulationJob
SimulationEngine(jobs=1, store=sys.argv[1]).run(
    [SimulationJob(workload=workload, predictor="lp", num_accesses=60)
     for workload in ("gups", "stream")])
print(" ".join(module for module in
               ("repro.service", "repro.sim.pool", "multiprocessing")
               if module in sys.modules))
"""


class TestEngineRunners:
    """One worker runs inline; more run on an in-process daemon core."""

    JOBS = expand_grid(["gups", "stream"], ("baseline", "lp"),
                       num_accesses=60, warmup_accesses=20)

    def test_serial_run_loads_no_daemon_pool_or_multiprocessing(
            self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(
            Path(__file__).resolve().parent.parent / "src"))
        run = subprocess.run(
            [sys.executable, "-c", _SERIAL_RUN, str(tmp_path / "store")],
            env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == []

    def test_parallel_run_retries_a_crash_and_releases_its_claims(
            self, tmp_path):
        from repro import faults
        reference = SimulationEngine(jobs=1, store=False).run(self.JOBS)
        faults.install("worker.job:crash@times=1")
        try:
            results = SimulationEngine(
                jobs=2, options=EngineOptions(jobs=2, pool="thread"),
                store=tmp_path / "store").run(self.JOBS)
        finally:
            faults.uninstall()
        assert results == reference
        assert list((tmp_path / "store" / "claims").iterdir()) == []

    def test_parallel_run_without_a_store_writes_nothing(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        results = SimulationEngine(
            jobs=2, options=EngineOptions(jobs=2, pool="thread"),
            store=False).run(self.JOBS)
        assert results == SimulationEngine(jobs=1, store=False).run(
            self.JOBS)
        assert list(tmp_path.iterdir()) == []


#: Builds a one-worker pool the way the engine and the daemon do, records
#: the worker's pid, then SIGKILLs itself so the pool is never shut down.
_ORPHANING_PARENT = """
import os, signal, sys
from concurrent.futures import ProcessPoolExecutor
from repro.sim.pool import exit_with_parent
pool = ProcessPoolExecutor(max_workers=1, initializer=exit_with_parent)
with open(sys.argv[1], "w") as handle:
    handle.write(str(pool.submit(os.getpid).result()))
os.kill(os.getpid(), signal.SIGKILL)
"""


class TestPoolWorkerLifetime:
    def test_worker_exits_when_its_parent_is_killed(self, tmp_path):
        pid_file = tmp_path / "worker.pid"
        env = dict(os.environ, PYTHONPATH=str(
            Path(__file__).resolve().parent.parent / "src"))
        parent = subprocess.run(
            [sys.executable, "-c", _ORPHANING_PARENT, str(pid_file)],
            env=env, stdout=subprocess.DEVNULL, timeout=60)
        assert parent.returncode == -signal.SIGKILL
        worker = int(pid_file.read_text())
        try:
            deadline = time.monotonic() + 5.0
            while alive(worker):
                assert time.monotonic() < deadline, \
                    f"orphaned pool worker {worker} still alive"
                time.sleep(0.05)
        finally:
            if alive(worker):
                os.kill(worker, signal.SIGKILL)


class TestGridHelpers:
    def test_run_predictor_comparison_uses_shared_trace(self):
        """The public comparison driver returns per-predictor results whose
        traces came from one generation (identical access streams)."""
        workload = build_workload("hpcg")
        results = run_predictor_comparison(workload, 300,
                                           predictors=("baseline", "lp"))
        base = results["baseline"].hierarchy_stats
        lp = results["lp"].hierarchy_stats
        assert base.demand_accesses == lp.demand_accesses == 300
        assert base.loads == lp.loads

    def test_mix_traces_cached(self):
        cache = TraceCache()
        first, names = mix_traces("mix1", 150, trace_cache=cache)
        second, _ = mix_traces("mix1", 150, trace_cache=cache)
        assert names == ["gapbs.bfs", "619.lbm", "nas.lu", "bmt"]
        for a, b in zip(first, second):
            assert a is b


# ======================================================================
# EngineOptions resolution
# ======================================================================
class TestEngineOptions:
    def test_defaults(self, monkeypatch):
        for var in ("REPRO_JOBS", "REPRO_STORE", "REPRO_FAULTS",
                    "REPRO_POOL", "REPRO_HIERARCHY"):
            monkeypatch.delenv(var, raising=False)
        options = EngineOptions.from_env()
        assert options == EngineOptions(jobs=1, pool="process", store=None,
                                        faults=None, hierarchy=None)
        # The five knobs, and no execution-strategy ones.
        assert [field.name for field in dataclasses.fields(EngineOptions)] \
            == ["jobs", "pool", "store", "faults", "hierarchy"]

    def test_environment_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setenv("REPRO_POOL", "thread")
        monkeypatch.setenv("REPRO_STORE", "/tmp/s")
        monkeypatch.setenv("REPRO_FAULTS", "store.append:eio@times=1")
        monkeypatch.setenv("REPRO_HIERARCHY", "chain.json")
        options = EngineOptions.from_env()
        assert options.jobs == 4
        assert options.pool == "thread"
        assert options.store == "/tmp/s"
        assert options.faults == "store.append:eio@times=1"
        assert options.hierarchy == "chain.json"

    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setenv("REPRO_POOL", "thread")
        options = EngineOptions.from_env(jobs=2, pool="process")
        assert options.jobs == 2
        assert options.pool == "process"

    def test_bad_jobs_message(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError,
                           match="REPRO_JOBS must be an integer"):
            EngineOptions.from_env()
        monkeypatch.delenv("REPRO_JOBS")
        with pytest.raises(ValueError, match="pool kind"):
            EngineOptions.from_env(pool="fibers")
        monkeypatch.setenv("REPRO_POOL", "fibers")
        with pytest.raises(ValueError, match="pool kind"):
            EngineOptions.from_env()

    def test_with_overrides(self):
        options = EngineOptions(jobs=2, pool="thread")
        updated = options.with_overrides(jobs=3)
        assert updated.jobs == 3 and updated.pool == "thread"
        assert options.jobs == 2  # frozen, copy-on-write
        assert options.with_overrides(pool="process").pool == "process"


# ======================================================================
# The repro.api facade
# ======================================================================
class TestApiFacade:
    def test_blessed_surface(self):
        import repro.api as api
        for name in ("run_job", "run_figure", "open_store", "connect",
                     "EngineOptions", "SimulationJob", "MixJob",
                     "SimulationEngine"):
            assert hasattr(api, name), name
            assert name in api.__all__, name

    def test_run_job_matches_engine(self):
        from repro.api import run_job
        job = SimulationJob(workload="stream", predictor="lp",
                            num_accesses=200, warmup_accesses=50)
        direct = serialize_result(execute_job(job))
        via_api = serialize_result(run_job(job, store=False))
        assert direct == via_api

    def test_open_store_memoizes(self, tmp_path, monkeypatch):
        from repro.api import open_store
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert open_store() is None
        first = open_store(tmp_path / "store")
        assert open_store(tmp_path / "store") is first
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        assert open_store() is first

    def test_run_figure_rejects_unknown(self):
        from repro.api import run_figure
        with pytest.raises(ValueError, match="unknown experiment"):
            run_figure("figure999")

    def test_run_figure_matches_a_serial_engine(self, tmp_path,
                                                monkeypatch):
        from repro.api import run_figure
        monkeypatch.delenv("REPRO_HIERARCHY", raising=False)
        report = run_figure("fig13", scale=TINY, store=tmp_path / "store",
                            jobs=1)
        experiment = EXPERIMENTS["fig13"]
        serial = SimulationEngine(jobs=1, store=False).run(
            experiment.jobs(TINY))
        assert report.stats == experiment.summarize(serial, TINY)
        assert report.simulated == report.total_jobs == len(serial)
        assert report.stats_path == tmp_path / "store" / "stats" / \
            "fig13.json"
        assert json.loads(report.stats_path.read_text()) == report.stats

    def test_run_figure_takes_a_hierarchy_spec_object(self, tmp_path,
                                                      monkeypatch):
        from repro.api import apply_hierarchy, load_hierarchy, run_figure
        spec = load_hierarchy(HIERARCHIES / "four_level.json")
        report = run_figure("fig13", scale=TINY, store=tmp_path / "store",
                            jobs=1, hierarchy=spec)
        experiment = EXPERIMENTS["fig13"]
        serial = SimulationEngine(jobs=1, store=False).run(
            apply_hierarchy(experiment.jobs(TINY), spec, "custom"))
        assert report.stats == experiment.summarize(serial, TINY)
        # The spec's jobs are keyed apart from the paper systems'.
        paper = run_figure("fig13", scale=TINY, store=tmp_path / "store",
                           jobs=1)
        assert paper.stored == 0

    def test_run_figure_uses_the_options_pool(self, tmp_path, monkeypatch):
        """``EngineOptions.pool`` reaches the figure's workers: a thread
        pool runs every job through this process's ``execute_job``."""
        import repro.service
        from repro.api import run_figure
        monkeypatch.delenv("REPRO_POOL", raising=False)
        calls = []

        def counting(job, trace_cache=None):
            calls.append(job)
            return execute_job(job, trace_cache)

        monkeypatch.setattr(repro.service, "execute_job", counting)
        report = run_figure("golden", store=tmp_path / "store",
                            options=EngineOptions(jobs=2, pool="thread"))
        assert report.simulated == len(calls) == 30
