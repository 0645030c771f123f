"""End-to-end simulation throughput: serial vs. engine-parallel.

This benchmark measures how fast the reproduction can push memory accesses
through full systems — the quantity that bounds every figure's simulation
budget — and writes a machine-readable ``BENCH_throughput.json`` at the
repository root so future PRs have a performance trajectory to regress
against.

Three configurations are timed on the Figure 10-12 grid (the highlighted
applications x the six compared systems):

* ``legacy_serial`` — the pre-engine driver shape: one
  :class:`SimulatedSystem` per (application, system) with the trace
  regenerated for every system (what ``run_predictor_comparison`` did before
  the engine existed);
* ``engine_serial`` — the engine's deterministic serial path with the shared
  trace cache (each application trace generated once for all six systems);
* ``engine_parallel`` — the same jobs fanned out over ``max(2, REPRO_JOBS)``
  worker processes.

The grid is then pushed through a fresh content-addressed results store
(:mod:`repro.sim.store`) twice: the populate pass persists every job, the
replay pass must serve all of them from disk.  The store hit/miss counters
and the replay throughput go into ``BENCH_throughput.json`` next to the raw
engine numbers, so the persistence layer's overhead and payoff are part of
the recorded performance trajectory.

The sharded store is additionally exercised at scale: the registry's
``sweep`` grid — several times the paper's largest figure grid — is
populated into (and replayed from) a fresh store at a small fixed
simulation size, recording entry counts, shard counts and populate/replay
rates for a store bigger than any single figure needs.

Two further sections cover the columnar trace substrate
(:mod:`repro.trace`): trace throughput (legacy record-list generation vs.
columnar buffer generation vs. the warm path that loads spilled ``.npz``
columns through a fresh trace cache, plus the memory compaction ratio) and
buffer-replay throughput (one system replaying the same trace from a
buffer vs. from a record list, asserted bit-identical).

A ``fault_plane`` section records what the fault-injection hooks
(:mod:`repro.faults`) cost: the per-call price of a disabled
:func:`~repro.faults.fault_point`, the price when a plane is armed but
never fires, and a second faults-disabled grid pass asserted to be within
ordinary run-to-run noise of the ``engine_serial`` measurement.

Per-system end-to-end throughput is also reported for the baseline and
``lp`` systems alone.  The benchmark asserts that parallel execution
reproduces serial results bit-identically; wall-clock speedups are recorded
in the JSON rather than asserted, because they depend on the host's core
count.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments import COMPARED_SYSTEMS, EXPERIMENTS, Scale
from repro.sim.engine import SimulationEngine, TRACE_CACHE, TraceCache, \
    expand_grid
from repro.sim.store import ResultStore
from repro.sim.system import SimulatedSystem
from repro.sim.config import SystemConfig
from repro.workloads import HIGHLIGHTED_APPLICATIONS, build_workload

from conftest import BENCH_ACCESSES, BENCH_WARMUP, save_result

#: Worker processes for the parallel measurement (>= 2 so the pool is real).
PARALLEL_JOBS = max(2, int(os.environ.get("REPRO_JOBS", "0") or 0))

#: Host cores available to the parallel section.  On a
#: single-core host every "parallel vs serial" wall-clock ratio measures
#: pool overhead, not parallelism, so those speedup entries are annotated
#: as not meaningful (and never asserted on) rather than recorded as if
#: they were wins.
CPU_COUNT = os.cpu_count() or 1

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


def _grid_accesses() -> int:
    """Total demand accesses one full grid pass simulates (incl. warm-up)."""
    return (len(HIGHLIGHTED_APPLICATIONS) * len(COMPARED_SYSTEMS)
            * (BENCH_ACCESSES + BENCH_WARMUP))


def _run_legacy_serial():
    """The pre-engine driver: fresh system + fresh trace per grid cell."""
    results = {}
    for app in HIGHLIGHTED_APPLICATIONS:
        per_system = {}
        for name in COMPARED_SYSTEMS:
            system = SimulatedSystem(
                SystemConfig.paper_single_core().with_predictor(name))
            per_system[name] = system.run_workload(
                build_workload(app), BENCH_ACCESSES, seed=0,
                warmup_accesses=BENCH_WARMUP)
        results[app] = per_system
    return results


def _run_engine(jobs: int, store=False):
    """The Figure 10-12 grid as ``{application: {system: result}}``."""
    fig11 = EXPERIMENTS["fig11"]
    engine = SimulationEngine(jobs=jobs, store=store)
    return fig11.grid(engine.run(fig11.jobs(
        Scale(accesses=BENCH_ACCESSES, warmup=BENCH_WARMUP))))


def _run_store_passes(store_dir: str):
    """Populate a fresh store with the grid, then replay it from disk."""
    populate_store = ResultStore(store_dir)
    populate, populate_seconds = _timed(
        lambda: _run_engine(jobs=1, store=populate_store))
    replay_store = ResultStore(store_dir)
    replay, replay_seconds = _timed(
        lambda: _run_engine(jobs=1, store=replay_store))
    report = {
        "populate": {
            "seconds": populate_seconds,
            "hits": populate_store.hits,
            "misses": populate_store.misses,
            "unkeyed": populate_store.unkeyed,
        },
        "replay": {
            "seconds": replay_seconds,
            "hits": replay_store.hits,
            "misses": replay_store.misses,
            "unkeyed": replay_store.unkeyed,
            "accesses_per_second": _grid_accesses() / replay_seconds,
        },
    }
    return populate, replay, report


#: Fixed tiny per-job sizes for the sweep-scale store measurement: the
#: section measures the *store* (entry counts, shard spread, replay rate),
#: whose entry sizes do not grow with simulated accesses, so the simulate
#: pass is kept cheap.
SWEEP_STORE_SCALE = dict(accesses=150, warmup=40, mix_accesses=90)


def _sweep_store_report(store_dir: str):
    """Populate/replay the registry's sweep grid through a sharded store.

    The sweep grid is several times the paper's largest figure grid — the
    scale the sharded layout exists for.  Asserts the replay pass is pure
    store traffic and that entries actually spread across shard files.
    """
    jobs = EXPERIMENTS["sweep"].jobs(Scale(**SWEEP_STORE_SCALE))
    populate_store = ResultStore(store_dir)
    _, populate_seconds = _timed(
        lambda: SimulationEngine(jobs=1, store=populate_store).run(jobs))
    populate_store.flush_index()
    replay_store = ResultStore(store_dir)
    _, replay_seconds = _timed(
        lambda: SimulationEngine(jobs=1, store=replay_store).run(jobs))

    assert replay_store.misses == 0
    assert replay_store.hits == len(jobs)
    assert len(replay_store) == len(jobs)

    shard_files = sorted(
        (Path(store_dir) / "shards").glob("*.jsonl"))
    assert len(shard_files) > 1  # entries spread across shard files
    paper_grid_jobs = len(HIGHLIGHTED_APPLICATIONS) * len(COMPARED_SYSTEMS)
    assert len(jobs) >= 3 * paper_grid_jobs

    return {
        "jobs": len(jobs),
        "paper_grid_jobs": paper_grid_jobs,
        "scale_vs_paper_grid": len(jobs) / paper_grid_jobs,
        "shards": len(shard_files),
        "store_bytes": sum(path.stat().st_size for path in shard_files),
        "per_job_scale": dict(SWEEP_STORE_SCALE),
        "populate": {
            "seconds": populate_seconds,
            "jobs_per_second": len(jobs) / populate_seconds,
        },
        "replay": {
            "seconds": replay_seconds,
            "jobs_per_second": len(jobs) / replay_seconds,
            "hits": replay_store.hits,
            "misses": replay_store.misses,
        },
    }


def _hierarchy_sweep_report(store_dir: str):
    """Populate/replay the ``hierarchy-sweep`` lattice through a store.

    The lattice is the declarative config-space grid (chain depth x LLC
    size x LLC latency x predictor; see
    :class:`repro.experiments.HierarchySweepExperiment`) — every job runs
    a :class:`~repro.memory.spec.HierarchySpec`-configured system, so the
    measurement covers the N-level chain path end to end.  Asserts the
    replay pass recomputes nothing: spec-keyed jobs must dedup exactly
    like the fixed paper configurations.
    """
    jobs = EXPERIMENTS["hierarchy-sweep"].jobs(Scale(**SWEEP_STORE_SCALE))
    populate_store = ResultStore(store_dir)
    _, populate_seconds = _timed(
        lambda: SimulationEngine(jobs=1, store=populate_store).run(jobs))
    populate_store.flush_index()
    replay_store = ResultStore(store_dir)
    _, replay_seconds = _timed(
        lambda: SimulationEngine(jobs=1, store=replay_store).run(jobs))

    assert replay_store.misses == 0  # zero recomputation on re-run
    assert replay_store.hits == len(jobs)

    return {
        "jobs": len(jobs),
        "per_job_scale": dict(SWEEP_STORE_SCALE),
        "populate": {
            "seconds": populate_seconds,
            "jobs_per_second": len(jobs) / populate_seconds,
        },
        "replay": {
            "seconds": replay_seconds,
            "jobs_per_second": len(jobs) / replay_seconds,
            "hits": replay_store.hits,
            "misses": replay_store.misses,
        },
    }


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _legacy_trace_bytes(traces) -> int:
    """Rough in-memory footprint of the list-of-records representation."""
    total = 0
    for trace in traces:
        total += sys.getsizeof(trace)
        if trace:
            # Every slot object is the same size; one pointer per list slot.
            total += len(trace) * (sys.getsizeof(trace[0]) + 8)
    return total


def _trace_substrate_report():
    """Throughput of the columnar trace pipeline (generate / spill / load).

    Measures legacy record-list generation against columnar buffer
    generation, then the warm path — loading the spilled ``.npz`` columns
    back through a fresh :class:`TraceCache` — which is what every re-run,
    warm worker and repeated grid actually pays.
    """
    apps = list(HIGHLIGHTED_APPLICATIONS)
    per_app = BENCH_ACCESSES + BENCH_WARMUP
    total_accesses = len(apps) * per_app

    legacy, legacy_seconds = _timed(
        lambda: [build_workload(app).generate(per_app, seed=0)
                 for app in apps])
    buffers, buffer_seconds = _timed(
        lambda: [build_workload(app).generate_buffer(per_app, seed=0)
                 for app in apps])
    for buffer, records in zip(buffers, legacy):
        assert buffer == records  # field-for-field identical streams

    buffer_bytes = sum(buffer.nbytes for buffer in buffers)
    legacy_bytes = _legacy_trace_bytes(legacy)

    with tempfile.TemporaryDirectory() as trace_dir:
        cold = TraceCache(spill_dir=trace_dir)
        _, spill_seconds = _timed(
            lambda: [cold.get(app, per_app, seed=0) for app in apps])
        warm = TraceCache(spill_dir=trace_dir)
        loaded, warm_seconds = _timed(
            lambda: [warm.get(app, per_app, seed=0) for app in apps])
        assert cold.disk_spills == len(apps)
        assert warm.disk_hits == len(apps)
        for buffer, original in zip(loaded, buffers):
            assert buffer == original  # npz round-trip is exact

    return {
        "accesses": total_accesses,
        "generate_legacy": {
            "seconds": legacy_seconds,
            "accesses_per_second": total_accesses / legacy_seconds,
        },
        "generate_buffer": {
            "seconds": buffer_seconds,
            "accesses_per_second": total_accesses / buffer_seconds,
        },
        "generate_and_spill": {
            "seconds": spill_seconds,
            "accesses_per_second": total_accesses / spill_seconds,
        },
        "warm_load": {
            "seconds": warm_seconds,
            "accesses_per_second": total_accesses / warm_seconds,
        },
        "memory": {
            "buffer_bytes": buffer_bytes,
            "legacy_bytes_estimate": legacy_bytes,
            "bytes_per_access_buffer": buffer_bytes / total_accesses,
            "bytes_per_access_legacy": legacy_bytes / total_accesses,
            "compaction_ratio": legacy_bytes / buffer_bytes,
        },
        "speedups": {
            "warm_load_vs_generate": buffer_seconds / warm_seconds,
            "warm_load_vs_legacy_generate": legacy_seconds / warm_seconds,
        },
    }


def _buffer_replay_report():
    """Hierarchy replay throughput: columnar buffer vs. record list.

    Same accesses, same system; the buffer path consumes the precomputed
    block/page columns through ``access_decomposed`` while the record path
    decomposes every access inline.  Results must agree bit-for-bit.
    """
    app = "gapbs.pr"
    per_app = BENCH_ACCESSES + BENCH_WARMUP
    workload = build_workload(app)
    records = workload.generate(per_app, seed=0)
    buffer = workload.generate_buffer(per_app, seed=0)

    record_system = SimulatedSystem(
        SystemConfig.paper_single_core().with_predictor("lp"))
    via_records, record_seconds = _timed(
        lambda: record_system.run_trace(records, app))
    buffer_system = SimulatedSystem(
        SystemConfig.paper_single_core().with_predictor("lp"))
    via_buffer, buffer_seconds = _timed(
        lambda: buffer_system.run_trace(buffer, app))

    assert via_buffer.ipc == via_records.ipc
    assert via_buffer.cache_hierarchy_energy_nj == \
        via_records.cache_hierarchy_energy_nj
    assert via_buffer.hierarchy_stats.total_demand_latency == \
        via_records.hierarchy_stats.total_demand_latency

    return {
        "workload": app,
        "accesses": per_app,
        "records": {
            "seconds": record_seconds,
            "accesses_per_second": per_app / record_seconds,
        },
        "buffer": {
            "seconds": buffer_seconds,
            "accesses_per_second": per_app / buffer_seconds,
        },
        "buffer_vs_records": record_seconds / buffer_seconds,
    }


def _fault_plane_report(engine_serial_seconds: float):
    """Cost of the fault-injection plane (:mod:`repro.faults`).

    Three numbers: the per-call cost of a disabled :func:`fault_point`
    (the price every hot-path hook pays when ``REPRO_FAULTS`` is unset),
    the per-call cost of an armed plane whose rule never fires (p=0),
    and a second faults-disabled grid pass whose ratio against the
    ``engine_serial`` measurement bounds the plane's end-to-end overhead
    by run-to-run noise.
    """
    from repro import faults
    from repro.faults import fault_point
    from repro.sim.engine import TRACE_CACHE as trace_cache

    iterations = 500_000

    def _hammer():
        for _ in range(iterations):
            fault_point("store.append", 128)

    faults.uninstall()
    _, off_seconds = _timed(_hammer)
    faults.install("store.append:eio@p=0.0,seed=1")
    _, armed_seconds = _timed(_hammer)
    faults.uninstall()

    trace_cache.clear()
    _, grid_seconds = _timed(lambda: _run_engine(jobs=1))

    return {
        "calls": iterations,
        "disabled_ns_per_call": off_seconds / iterations * 1e9,
        "armed_nonfiring_ns_per_call": armed_seconds / iterations * 1e9,
        "grid_seconds_with_hooks": grid_seconds,
        "grid_vs_engine_serial": engine_serial_seconds / grid_seconds,
    }


def _per_system_throughput(predictor: str) -> float:
    """End-to-end accesses/second of one system across all applications."""
    jobs = expand_grid(list(HIGHLIGHTED_APPLICATIONS), (predictor,),
                       num_accesses=BENCH_ACCESSES,
                       warmup_accesses=BENCH_WARMUP)
    engine = SimulationEngine(jobs=1)
    start = time.perf_counter()
    engine.run(jobs)
    elapsed = time.perf_counter() - start
    total = len(jobs) * (BENCH_ACCESSES + BENCH_WARMUP)
    return total / elapsed


def _assert_identical(serial, parallel):
    for app, per_system in serial.items():
        for name, result in per_system.items():
            other = parallel[app][name]
            assert other.ipc == result.ipc, (app, name)
            assert other.cache_hierarchy_energy_nj == \
                result.cache_hierarchy_energy_nj, (app, name)
            assert other.hierarchy_stats.l1_hits == \
                result.hierarchy_stats.l1_hits, (app, name)
            assert other.hierarchy_stats.total_demand_latency == \
                result.hierarchy_stats.total_demand_latency, (app, name)


def test_throughput(benchmark):
    grid_accesses = _grid_accesses()

    legacy, legacy_seconds = benchmark.pedantic(
        lambda: _timed(_run_legacy_serial), rounds=1, iterations=1)

    TRACE_CACHE.clear()
    serial, serial_seconds = _timed(lambda: _run_engine(jobs=1))
    parallel, parallel_seconds = _timed(lambda: _run_engine(PARALLEL_JOBS))

    with tempfile.TemporaryDirectory() as store_dir:
        store_populate, store_replay, store_report = \
            _run_store_passes(store_dir)
    with tempfile.TemporaryDirectory() as sweep_dir:
        store_report["sweep"] = _sweep_store_report(sweep_dir)
    with tempfile.TemporaryDirectory() as hsweep_dir:
        hierarchy_sweep_report = _hierarchy_sweep_report(hsweep_dir)

    # The engine's parallel path must reproduce serial results bit-for-bit
    # (and both must agree with the legacy driver, which shares every
    # simulation ingredient with the engine path), and a store replay must
    # reproduce the simulated grid exactly without simulating anything.
    _assert_identical(serial, parallel)
    _assert_identical(legacy, serial)
    _assert_identical(serial, store_populate)
    _assert_identical(serial, store_replay)
    assert store_report["populate"]["hits"] == 0
    assert store_report["replay"]["misses"] == 0
    assert store_report["replay"]["hits"] == \
        store_report["populate"]["misses"]

    baseline_aps = _per_system_throughput("baseline")
    lp_aps = _per_system_throughput("lp")

    trace_report = _trace_substrate_report()
    replay_report = _buffer_replay_report()
    fault_report = _fault_plane_report(serial_seconds)

    report = {
        "schema": "repro-bench-throughput/1",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "config": {
            "applications": len(HIGHLIGHTED_APPLICATIONS),
            "systems": list(COMPARED_SYSTEMS),
            "accesses_per_app": BENCH_ACCESSES,
            "warmup_per_app": BENCH_WARMUP,
            "grid_accesses": grid_accesses,
            "parallel_jobs": PARALLEL_JOBS,
        },
        "grid": {
            "legacy_serial": {
                "seconds": legacy_seconds,
                "accesses_per_second": grid_accesses / legacy_seconds,
            },
            "engine_serial": {
                "seconds": serial_seconds,
                "accesses_per_second": grid_accesses / serial_seconds,
            },
            "engine_parallel": {
                "seconds": parallel_seconds,
                "accesses_per_second": grid_accesses / parallel_seconds,
            },
        },
        "per_system_accesses_per_second": {
            "baseline": baseline_aps,
            "lp": lp_aps,
        },
        "store": store_report,
        "hierarchy_sweep": hierarchy_sweep_report,
        "trace": trace_report,
        "buffer_replay": replay_report,
        "fault_plane": fault_report,
        "speedups": {
            "engine_serial_vs_legacy": legacy_seconds / serial_seconds,
            "engine_parallel_vs_legacy": legacy_seconds / parallel_seconds,
            "engine_parallel_vs_serial": serial_seconds / parallel_seconds,
        },
        "parallel": {
            "cpu_count": CPU_COUNT,
            "jobs": PARALLEL_JOBS,
            "speedups_meaningful": CPU_COUNT >= 2,
            "note": None if CPU_COUNT >= 2 else (
                "single-core host: engine_parallel speedup entries "
                "measure pool overhead, not parallelism; they are "
                "recorded for the trajectory but must not be read as "
                "wins"),
        },
        "identical_results": True,
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    lines = ["Simulation throughput (accesses/second, higher is better)", ""]
    for key, entry in report["grid"].items():
        lines.append(f"{key:18s}: {entry['accesses_per_second']:10,.0f}/s "
                     f"({entry['seconds']:.2f}s)")
    lines.append(f"baseline system   : {baseline_aps:10,.0f}/s")
    lines.append(f"lp system         : {lp_aps:10,.0f}/s")
    replay = store_report["replay"]
    lines.append(f"store replay      : {replay['accesses_per_second']:10,.0f}/s "
                 f"({replay['hits']} hits, {replay['misses']} misses)")
    sweep = store_report["sweep"]
    lines.append(f"sweep store       : {sweep['jobs']} jobs "
                 f"({sweep['scale_vs_paper_grid']:.1f}x paper grid) across "
                 f"{sweep['shards']} shards; populate "
                 f"{sweep['populate']['jobs_per_second']:,.0f} jobs/s, "
                 f"replay {sweep['replay']['jobs_per_second']:,.0f} jobs/s")
    hsweep = hierarchy_sweep_report
    lines.append(f"hierarchy sweep   : {hsweep['jobs']} spec-keyed jobs; "
                 f"populate {hsweep['populate']['jobs_per_second']:,.0f} "
                 f"jobs/s, replay "
                 f"{hsweep['replay']['jobs_per_second']:,.0f} jobs/s "
                 f"({hsweep['replay']['misses']} recomputed)")
    lines.append("")
    lines.append("Trace substrate (accesses/second)")
    for key in ("generate_legacy", "generate_buffer", "generate_and_spill",
                "warm_load"):
        entry = trace_report[key]
        lines.append(f"{key:18s}: {entry['accesses_per_second']:10,.0f}/s "
                     f"({entry['seconds']:.3f}s)")
    memory = trace_report["memory"]
    lines.append(f"buffer bytes/access: {memory['bytes_per_access_buffer']:.1f} "
                 f"(records ~{memory['bytes_per_access_legacy']:.1f}, "
                 f"{memory['compaction_ratio']:.1f}x smaller)")
    lines.append(f"warm load vs generate: "
                 f"{trace_report['speedups']['warm_load_vs_generate']:.2f}x")
    lines.append(f"buffer replay vs records: "
                 f"{replay_report['buffer_vs_records']:.2f}x "
                 f"({replay_report['buffer']['accesses_per_second']:,.0f}/s)")
    lines.append("")
    lines.append("Fault plane (REPRO_FAULTS unset unless armed)")
    lines.append(f"fault_point off   : "
                 f"{fault_report['disabled_ns_per_call']:8.1f} ns/call")
    lines.append(f"armed, never fires: "
                 f"{fault_report['armed_nonfiring_ns_per_call']:8.1f} ns/call")
    lines.append(f"grid w/ hooks     : "
                 f"{fault_report['grid_seconds_with_hooks']:.2f}s "
                 f"({fault_report['grid_vs_engine_serial']:.2f}x of "
                 f"engine_serial — run-to-run noise)")
    lines.append("")
    for key, value in report["speedups"].items():
        lines.append(f"{key}: {value:.2f}x")
    if report["parallel"]["note"]:
        lines.append(f"note: {report['parallel']['note']}")
    text = "\n".join(lines)
    print("\n" + text)
    save_result("throughput", text)

    # Qualitative guarantees that must hold on any host: the trace cache
    # can only help, buffers must be much smaller than record lists, and
    # both systems must sustain real throughput.  The warm-load win only
    # shows above toy scale — per-file open overhead dominates tiny
    # traces — so it is asserted only when each trace is non-trivial.
    assert report["speedups"]["engine_serial_vs_legacy"] > 0.9
    if BENCH_ACCESSES + BENCH_WARMUP >= 2000:
        assert trace_report["speedups"]["warm_load_vs_generate"] > 1.0
    assert memory["compaction_ratio"] > 2.0
    assert baseline_aps > 0 and lp_aps > 0
    # The disabled fault plane must stay in check-a-global territory —
    # microseconds would mean a hidden allocation or lock on the hot path
    # — and the faults-off grid must stay within ordinary run-to-run
    # noise of the engine_serial measurement taken moments earlier.
    assert fault_report["disabled_ns_per_call"] < 2000
    assert fault_report["grid_vs_engine_serial"] > 0.5
