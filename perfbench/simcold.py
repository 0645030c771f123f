"""The ``sim-cold`` workload: the paper grid simulated from nothing.

One *pass* is the Figure 11 grid (21 applications x 6 systems) plus the
Figure 14 mixes x {baseline, lp, ideal}, run in-process through a serial
engine (``jobs=1``) into an empty results store, with the process trace
cache cleared and trace spilling off.  Every grid cell is one engine call,
timed on its own: that call is the workload's *request*.  A run repeats
the identical pass and reports medians over passes.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import (
    ROOT,
    SRC,
    check_fingerprint,
    child_environment,
    fingerprint,
    percentile,
    peak_rss_mb,
    source_digest,
    summary,
)

#: Per-job volume of the cold grid (single-core accesses and warm-up,
#: accesses per core of each mix job).
ACCESSES, WARMUP, MIX_ACCESSES = 600, 200, 400
#: A run makes ``round(seconds / PASS_SECONDS)`` passes (at least one);
#: one pass takes 4-7 s on a 2-CPU reference host, and five passes keep
#: the median away from any one burst of host noise.
PASS_SECONDS = 4.0
#: Start-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 3

SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from repro.experiments import EXPERIMENTS, Scale
from repro.sim.engine import TRACE_CACHE, SimulationEngine
TRACE_CACHE.clear()
engine = SimulationEngine(jobs=1, store=sys.argv[2])
EXPERIMENTS["fig11"].jobs(Scale()); EXPERIMENTS["fig14"].jobs(Scale())
"""


def scale(tiny: bool):
    from repro.experiments import Scale

    if tiny:
        return Scale(accesses=60, warmup=20, mix_accesses=40)
    return Scale(accesses=ACCESSES, warmup=WARMUP, mix_accesses=MIX_ACCESSES)


def grid_jobs(seed: int, tiny: bool) -> List[Any]:
    """Figure 11 + Figure 14 job lists with traces seeded by ``seed``
    (seed 0 is exactly the registry grid)."""
    from repro.experiments import EXPERIMENTS

    jobs = (EXPERIMENTS["fig11"].jobs(scale(tiny))
            + EXPERIMENTS["fig14"].jobs(scale(tiny)))
    if tiny:
        # Three applications and one mix keep the smoke run short.
        keep = {"gapbs.pr", "605.mcf", "stream", "mix1"}
        jobs = [job for job in jobs
                if getattr(job, "workload", getattr(job, "mix", None))
                in keep]
    return [dataclasses.replace(job, seed=seed) for job in jobs]


def job_accesses(job: Any) -> int:
    """Simulated accesses of one job: warm-up + measured, all cores."""
    from repro.workloads.mixes import get_mix

    if hasattr(job, "mix"):
        return job.accesses_per_core * len(get_mix(job.mix).applications)
    return job.num_accesses + job.warmup_accesses


def cold_pass(jobs: List[Any], store_dir: Path
              ) -> Tuple[List[Any], List[float], float, Any]:
    """One cold pass: empty store, cleared trace cache, one call per cell."""
    from repro.sim.engine import TRACE_CACHE, SimulationEngine

    shutil.rmtree(store_dir, ignore_errors=True)
    TRACE_CACHE.clear()
    engine = SimulationEngine(jobs=1, store=store_dir)
    latencies: List[float] = []
    results: List[Any] = []
    start = time.perf_counter()
    for job in jobs:
        began = time.perf_counter()
        results.append(engine.run([job])[0])
        latencies.append(time.perf_counter() - began)
    wall = time.perf_counter() - start
    return results, latencies, wall, engine


def model_counters(jobs: List[Any], results: List[Any]) -> Dict[str, Any]:
    """Exact simulated statistics of one pass (identical run to run)."""
    counters = {"model.demand_accesses": 0, "model.l1_misses": 0,
                "model.llc_misses": 0, "model.lp_predictions": 0,
                "model.recoveries": 0}
    lp_correct = 0.0
    lp_predictions = 0
    for job, result in zip(jobs, results):
        if hasattr(job, "mix"):
            counters["model.lp_predictions"] += result.total_predictions
            counters["model.recoveries"] += result.total_recoveries
            continue
        stats = result.hierarchy_stats
        counters["model.demand_accesses"] += stats.demand_accesses
        counters["model.l1_misses"] += stats.l1_misses
        counters["model.llc_misses"] += stats.l3_misses
        counters["model.recoveries"] += stats.recoveries
        counters["model.lp_predictions"] += result.predictor_stats.predictions
        if job.predictor == "lp":
            predictor = result.predictor_stats
            lp_correct += predictor.accuracy * predictor.predictions
            lp_predictions += predictor.predictions
    counters["model.lp_accuracy"] = (lp_correct / lp_predictions
                                     if lp_predictions else 0.0)
    return counters


def lp_speedup(jobs: List[Any], results: List[Any]) -> float:
    """Geomean LP speedup over baseline across the single-core grid."""
    from common import geometric_mean

    by_app: Dict[str, Dict[str, Any]] = {}
    for job, result in zip(jobs, results):
        if not hasattr(job, "mix"):
            by_app.setdefault(job.workload, {})[job.predictor] = result
    return geometric_mean(cells["lp"].speedup_over(cells["baseline"])
                          for cells in by_app.values())


def pass_fingerprint(jobs: List[Any], results: List[Any]) -> str:
    from repro.sim.store import serialize_result

    return fingerprint([serialize_result(result) for result in results]
                       + [model_counters(jobs, results)])


def footprint(tiny: bool, seed: int) -> Dict[str, Any]:
    """Traffic dimensions: trace footprints against the modelled caches."""
    from repro.sim.config import SystemConfig
    from repro.sim.engine import TRACE_CACHE

    hierarchy = SystemConfig.paper_single_core().hierarchy
    blocks = []
    for job in grid_jobs(seed, tiny):
        if hasattr(job, "mix") or job.predictor != "baseline":
            continue
        buffer = TRACE_CACHE.get(job.workload, job_accesses(job),
                                 seed=job.seed)
        blocks.append(len(set(buffer.block_column().tolist())))
    footprint_bytes = sorted(count * 64 for count in blocks)
    return {
        "footprint_bytes": {"min": footprint_bytes[0],
                            "median": footprint_bytes[len(blocks) // 2],
                            "max": footprint_bytes[-1]},
        "capacity_bytes": {"l1": hierarchy.l1.size_bytes,
                           "l2": hierarchy.l2.size_bytes,
                           "llc": hierarchy.l3.size_bytes},
    }


def golden_check(run_dir: Path) -> bool:
    """``golden`` into its own store, byte-compared to GOLDEN_stats.json."""
    from repro.experiments import EXPERIMENTS, Scale, canonical_json
    from repro.sim.engine import TRACE_CACHE, SimulationEngine

    TRACE_CACHE.clear()
    engine = SimulationEngine(jobs=1, store=run_dir / "golden-store")
    experiment = EXPERIMENTS["golden"]
    stats = experiment.summarize(engine.run(experiment.jobs(Scale())),
                                 Scale())
    reference = (ROOT / "GOLDEN_stats.json").read_bytes()
    return canonical_json(stats).encode("utf-8") == reference


def measure_setup(run_dir: Path) -> List[float]:
    """Fresh-interpreter start-up: imports, empty store, job lists."""
    samples = []
    env = child_environment()
    for index in range(SETUP_PROBES):
        store = run_dir / f"probe-store-{index}"
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC),
                        str(store)], env=env, check=True)
        samples.append(time.perf_counter() - began)
    return samples


def run(seed: int, seconds: int, trace: bool, run_dir: Path,
        tiny: bool = False) -> Dict[str, Any]:
    """Run the workload; returns the report consumed by ``run.py``."""
    jobs = grid_jobs(seed, tiny)
    accesses = sum(job_accesses(job) for job in jobs)
    failures: List[str] = []
    report: Dict[str, Any] = {"jobs_per_pass": len(jobs),
                              "accesses_per_pass": accesses}
    if trace:
        report.update(_traced(jobs, run_dir, failures))
        passes = 3
    else:
        passes = 1 if tiny else max(1, round(seconds / PASS_SECONDS))
        report.update(_untraced(jobs, accesses, passes, run_dir, failures))
    report["repeats"] = passes
    if not golden_check(run_dir):
        failures.append("golden stats differ from GOLDEN_stats.json")
    report["traffic"] = footprint(tiny, seed)
    report["attempted"] = passes * len(jobs) + 1
    report["failures"] = failures
    return report


def _untraced(jobs: List[Any], accesses: int, passes: int, run_dir: Path,
              failures: List[str]) -> Dict[str, Any]:
    setup = measure_setup(run_dir)
    samples: Dict[str, List[float]] = {name: [] for name in (
        "jobs_per_s", "accesses_per_s", "req_p50_ms", "req_p90_ms")}
    prints = set()
    for _ in range(passes):
        results, latencies, wall, _engine = cold_pass(
            jobs, run_dir / "store")
        samples["jobs_per_s"].append(len(jobs) / wall)
        samples["accesses_per_s"].append(accesses / wall)
        samples["req_p50_ms"].append(percentile(latencies, 0.5) * 1000.0)
        samples["req_p90_ms"].append(percentile(latencies, 0.9) * 1000.0)
        prints.add(pass_fingerprint(jobs, results))
    rss = peak_rss_mb(os.getpid())
    print_value = _check_drift(jobs, prints, failures)
    counters = model_counters(jobs, results)
    # Every metric is a median over passes; the latency percentiles are
    # taken per pass (147 requests each) first.
    metrics = {name: summary(values) for name, values in samples.items()}
    metrics.update(setup_s=summary(setup), peak_rss_mb=summary([rss]),
                   lp_speedup_geomean=summary([lp_speedup(jobs, results)]))
    return {"metrics": metrics, "model": counters,
            "fingerprint": print_value}


def _traced(jobs: List[Any], run_dir: Path,
            failures: List[str]) -> Dict[str, Any]:
    """Untraced, traced and profiled passes of the identical grid."""
    from spans import Tracer, profile_call

    from repro.sim.engine import TRACE_CACHE

    plain, _, plain_wall, _ = cold_pass(jobs, run_dir / "store")
    with Tracer() as tracer:
        traced, _, traced_wall, engine = cold_pass(jobs, run_dir / "store")
    counts = {"trace.hits": TRACE_CACHE.hits,
              "trace.disk_hits": TRACE_CACHE.disk_hits,
              "store.hits": engine.store.hits,
              "store.misses": engine.store.misses,
              "store.puts": engine.store.puts,
              **model_counters(jobs, traced)}
    (profiled, _, profiled_wall, _), shares = profile_call(
        lambda: cold_pass(jobs, run_dir / "store"))
    _check_drift(jobs, {pass_fingerprint(jobs, results)
                        for results in (plain, traced, profiled)}, failures)
    counts.update(shares, trace_overhead=traced_wall / plain_wall,
                  prof_overhead=profiled_wall / plain_wall)
    return {"tracer": tracer, "counts": counts,
            "nesting_problems": tracer.check_nesting()}


def _check_drift(jobs: List[Any], prints: set, failures: List[str]) -> str:
    """Passes of one run, and runs of the same sources and seed, must
    produce identical simulated statistics."""
    if len(prints) != 1:
        failures.append("simulated statistics differ between passes")
    value = sorted(prints)[0]
    key = f"{source_digest()}-sim-cold-{jobs[0].seed}-{len(jobs)}"
    if not check_fingerprint(key, value):
        failures.append("simulated statistics differ from an earlier run "
                        "of the same sources and seed")
    return value
