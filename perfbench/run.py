"""Benchmark of the cache-level-prediction simulator and its serving tier.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-cold --seed 1 --seconds 15 --trace 0

Workloads: ``sim-cold`` (the paper grid simulated from an empty store),
``serve-warm`` (a daemon answering figure reads from a populated store)
and ``serve-mixed`` (a two-member fleet serving reads beside ad-hoc
simulations).  ``--trace 0`` measures the end-to-end metrics with nothing
wrapped; ``--trace 1`` reruns the workload with span wrappers (and, for
``sim-cold``, a cProfile pass) and reports the per-layer metrics.

The last line of standard output is the result object; the line before it
(``perfbench-report: {...}``) holds the full report — run metadata,
per-metric medians and quartiles, traffic dimensions and check outcomes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

import common
from common import BenchmarkError

WORKLOADS = ("sim-cold", "serve-warm", "serve-mixed")

#: End-to-end metrics (every workload, tracing off) and their units.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "accesses_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "lp_speedup_geomean": "ratio",
}

#: Per-layer metrics taken as the summed self time of one span name.
SELF_TIME = {
    "trace.get_s": "trace.get",
    "trace.generate_s": "trace.generate",
    "trace.load_s": "trace.load",
    "system.build_s": "system.build",
    "cpu.execute_s": "cpu.execute",
    "multicore.run_traces_s": "multicore.run_traces",
    "store.job_spec_s": "store.job_spec",
    "store.spec_key_s": "store.spec_key",
    "store.serialize_s": "store.serialize",
    "store.deserialize_s": "store.deserialize",
    "store.get_s": "store.get",
    "store.put_s": "store.put",
    "store.refresh_s": "store.refresh",
    "store.claim_s": "store.claim",
    "experiments.summarize_s": "experiments.summarize",
    "service.submit_s": "service.submit",
    "service.result_s": "service.result",
}

#: Per-layer counts and ratios (a layer that does no work reports 0).
COUNTS = {
    "trace.hits": "count",
    "trace.disk_hits": "count",
    "trace.generated": "count",
    "hierarchy.accesses": "count",
    "model.demand_accesses": "count",
    "model.l1_misses": "count",
    "model.llc_misses": "count",
    "model.lp_predictions": "count",
    "model.lp_accuracy": "ratio",
    "model.recoveries": "count",
    "store.hits": "count",
    "store.misses": "count",
    "store.puts": "count",
    "service.coalesced": "count",
    "service.simulations": "count",
    "service.shed": "count",
    "service.retries": "count",
    "fleet.claims_won": "count",
    "fleet.claims_lost": "count",
    "fleet.claim_waits": "count",
    "fleet.claims_broken": "count",
    "fleet.duplicate_simulations": "count",
    "fleet.member_share_max": "ratio",
    "prof.hierarchy_share": "ratio",
    "prof.walk_self_share": "ratio",
    "prof.cache_share": "ratio",
    "prof.tlb_share": "ratio",
    "prof.mshr_share": "ratio",
    "prof.dram_share": "ratio",
    "prof.core_share": "ratio",
    "prof.prefetch_share": "ratio",
    "prof.energy_share": "ratio",
    "prof.kernels_share": "ratio",
    "trace_overhead": "ratio",
    "prof_overhead": "ratio",
}

PER_LAYER: Dict[str, str] = dict(
    {name: "s" for name in SELF_TIME},
    **{"hierarchy.warmup_s": "s", "hierarchy.measured_s": "s",
       "hierarchy.ns_per_access": "ns", "service.wire_s": "s"},
    **COUNTS)


def layer_metrics(report: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer values from a traced run's spans and counters."""
    tracer = report["tracer"]
    totals = tracer.report()
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for metric, span in SELF_TIME.items():
        values[metric] = totals.get(span, {}).get("self_s", 0.0)
    warmup = measured = 0.0
    accesses = 0
    for record in tracer.finished().values():
        if record[0] != "hierarchy.run_buffer":
            continue
        seconds = record[2] - record[1]
        if tracer.name_of(record[3]) == "system.run_trace":
            measured += seconds
        else:
            warmup += seconds
        accesses += record[5]
    values["hierarchy.warmup_s"] = warmup
    values["hierarchy.measured_s"] = measured
    values["hierarchy.accesses"] = accesses
    values["hierarchy.ns_per_access"] = ((warmup + measured) / accesses * 1e9
                                         if accesses else 0.0)
    values["trace.generated"] = totals.get("trace.generate",
                                           {}).get("count", 0)
    values["service.wire_s"] = max(
        0.0, totals.get("service.request", {}).get("total_s", 0.0)
        - totals.get("service.dispatch", {}).get("total_s", 0.0))
    for name, value in report["counts"].items():
        if name in values:
            values[name] = value
    return values


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 tiny: bool, keep: bool) -> Dict[str, Any]:
    import serve
    import simcold

    run_dir = common.make_run_dir(workload)
    try:
        if workload == "sim-cold":
            report = simcold.run(seed, seconds, trace, run_dir, tiny=tiny)
        else:
            report = serve.run(workload, seed, seconds, trace, run_dir,
                               tiny=tiny)
    finally:
        if not keep:
            shutil.rmtree(run_dir, ignore_errors=True)
    report["run_dir"] = str(run_dir) if keep else None
    return report


def result_line(report: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    failures: List[str] = report["failures"]
    if trace:
        report["spans"] = len(report["tracer"].finished())
        failures.extend(report["nesting_problems"][:5])
        values = layer_metrics(report)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": report["metrics"][name]["median"],
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
    # Failed requests, plus every check that failed outside a request.
    failed = min(report["attempted"],
                 max(report.get("failed", 0), len(failures)))
    return {"correct": not failures, "attempted": report["attempted"],
            "failed": failed, "metrics": metrics}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (seconds instead of a run)")
    parser.add_argument("--keep-run-dir", action="store_true",
                        help="keep the run's stores and logs for inspection")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        common.import_repro()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    common.clean_environment()
    began = time.perf_counter()
    trace = bool(args.trace)
    try:
        report = run_workload(args.workload, args.seed, args.seconds, trace,
                              args.tiny, args.keep_run_dir)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = result_line(report, trace)
    full = common.metadata(args.workload, args.seed, args.seconds, trace,
                           report["repeats"])
    full.update({key: value for key, value in report.items()
                 if key != "tracer"})
    full["failed_ratio"] = result["failed"] / result["attempted"]
    full["wall_s"] = time.perf_counter() - began
    print("perfbench-report: " + json.dumps(full, sort_keys=True,
                                            default=str))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
