"""Alternating parent/change pairs of perfbench runs, written as a ledger.

Compares two checkouts of this repository — a parent commit and a change
on top of it — on perfbench's end-to-end metrics, and on the daemon's
per-request CPU for perfbench's ``serve-warm`` request mix measured
in-process.  Usage (from the change's checkout root)::

    git clone -q . ../parent && git -C ../parent checkout -q PARENT_SHA
    python3 benchmarks/serve_pairs.py --parent ../parent --change . \\
        --out BENCH_serve_warm.json

``BENCHMARK.json`` names the workloads, the run length and each metric's
better direction.  For every workload and for seeds 0 and 1, each of 10
pairs runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` (``T`` is its ``run_seconds``) once in each checkout; even
pairs start with the parent, odd pairs with the change, so a host that
drifts slower or faster over the session does not favour either side.
The ledger holds every run's metrics, each side's median, quartiles and
failed/attempted totals, and per metric the number of pairs in which
the change was better.

``layers --checkout DIR`` prints the in-process split alone: a
``SimulationService`` on a copy of perfbench's populated store answers
the ``serve-warm`` request mix through ``dispatch``, and the socket
handler's ``_respond`` encodes each response into a discarding sink.
Both steps run on one thread: ``dispatch_us`` and ``encode_us`` are
their wall time per request, ``cpu_us`` the process CPU per request
(the daemon's CPU per warm read minus the socket and the request
decode).

``fleet-start --checkout DIR`` prints the fleet start-up alone: the
seconds from exec'ing ``python -m repro fleet --members 2`` on an empty
store to its combined ``--ready-file``, over 10 starts.  The pairs
ledger records it too, as 10 alternating starts per side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The benchmark's declaration: workloads, run length, metric directions.
BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
#: Alternating pairs per workload and seed; seed 1 is the held-out seed.
PAIRS = 10
SEEDS = (0, 1)
#: The in-process layer split: requests a pass, passes a run, and
#: alternating parent/change pairs of runs.
LAYER_REQUESTS = 2000
LAYER_REPEATS = 5
LAYER_PAIRS = 3
#: Fleet start-ups a side, alternating, and the members in each fleet.
FLEET_STARTS = 10
FLEET_MEMBERS = 2


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles (``statistics.quantiles``' default method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


# ----------------------------------------------------------------------
# The in-process layer split
# ----------------------------------------------------------------------
class _Sink:
    def write(self, data: bytes) -> int:
        return len(data)


def layers(checkout: Path) -> Dict[str, Any]:
    """Per-request daemon CPU for the ``serve-warm`` mix (microseconds)."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import serve
    from repro.service import SimulationService, _ServiceHandler

    mix, _ = serve.request_mix("serve-warm", 0, LAYER_REQUESTS, serve.SCALE)
    lines = [{"op": "submit", "experiment": request["figure"],
              "scale": serve.SCALE, "wait": True} for request in mix]
    handler = _ServiceHandler.__new__(_ServiceHandler)
    handler.wfile = _Sink()
    populated = serve.populated_store(tiny=False)
    with tempfile.TemporaryDirectory(prefix="serve-pairs-") as scratch:
        store = Path(scratch) / "store"
        shutil.copytree(populated / "store", store)
        service = SimulationService(store, jobs=2, pool="thread")
        try:
            for name in serve.FIGURES:  # warm-up: memoise every figure
                handler._respond(service.dispatch(
                    {"op": "submit", "experiment": name,
                     "scale": serve.SCALE, "wait": True}))
            samples: Dict[str, List[float]] = {
                "cpu_us": [], "dispatch_us": [], "encode_us": []}
            for _ in range(LAYER_REPEATS):
                dispatch = encode = 0.0
                cpu = time.process_time()
                for line in lines:
                    began = time.perf_counter()
                    response = service.dispatch(line)
                    middle = time.perf_counter()
                    handler._respond(response)
                    dispatch += middle - began
                    encode += time.perf_counter() - middle
                cpu = time.process_time() - cpu
                samples["cpu_us"].append(cpu / len(lines) * 1e6)
                samples["dispatch_us"].append(dispatch / len(lines) * 1e6)
                samples["encode_us"].append(encode / len(lines) * 1e6)
            simulations = service.counters["simulations"]
        finally:
            service.close(wait=True)
    if simulations:
        raise RuntimeError(f"the warm mix simulated {simulations} jobs")
    return {name: spread(values) for name, values in samples.items()}


# ----------------------------------------------------------------------
# Fleet start-up
# ----------------------------------------------------------------------
def fleet_start(checkout: Path) -> float:
    """Seconds from exec'ing ``repro fleet`` in ``checkout`` to its
    combined ready file (on an empty store)."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = str(checkout / "src")
    with tempfile.TemporaryDirectory(prefix="serve-pairs-") as scratch:
        ready = Path(scratch) / "fleet.addr"
        began = time.perf_counter()
        launcher = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "--members",
             str(FLEET_MEMBERS), "--store", str(Path(scratch) / "store"),
             "--ready-file", str(ready)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            while not ready.is_file():
                if launcher.poll() is not None:
                    raise RuntimeError(f"repro fleet exited with code "
                                       f"{launcher.returncode}")
                time.sleep(0.002)
            return time.perf_counter() - began
        finally:
            launcher.terminate()
            launcher.wait()


def start_spread(values: List[float]) -> Dict[str, Any]:
    return {"runs_s": values, **spread(values)}


# ----------------------------------------------------------------------
# The alternating pairs
# ----------------------------------------------------------------------
def in_order(pair: int) -> Tuple[str, str]:
    """Which side runs first in ``pair``: the parent in even pairs."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def perfbench_run(checkout: Path, workload: str, seed: int) -> Dict[str, Any]:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds",
               str(BENCHMARK["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {name: metric["value"]
                        for name, metric in result["metrics"].items()}}


def layers_run(checkout: Path) -> Dict[str, Any]:
    command = [sys.executable, str(Path(__file__).resolve()), "layers",
               "--checkout", str(checkout)]
    done = subprocess.run(command, capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def commit_of(checkout: Path) -> Dict[str, Any]:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True,
                              check=True).stdout.strip()

    return {"commit": git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(git("status", "--porcelain"))}


def pairs(parent: Path, change: Path) -> Dict[str, Any]:
    sides = {"parent": parent, "change": change}
    ledger: Dict[str, Any] = {
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "commits": {side: commit_of(path) for side, path in sides.items()},
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {BENCHMARK['run_seconds']} --trace 0",
        "pairs": PAIRS,
        "order": "even pairs run the parent first, odd pairs the change",
        "series": [],
    }
    for workload in [entry["name"] for entry in BENCHMARK["workloads"]]:
        for seed in SEEDS:
            runs: List[Dict[str, Any]] = []
            for pair in range(PAIRS):
                for side in in_order(pair):
                    run = perfbench_run(sides[side], workload, seed)
                    runs.append({"pair": pair, "side": side, **run})
                    print(f"{workload} seed {seed} pair {pair} {side}: "
                          f"{json.dumps(run['metrics'], sort_keys=True)}",
                          file=sys.stderr, flush=True)
            ledger["series"].append({"workload": workload, "seed": seed,
                                     **summarise(runs)})
    layer_runs: Dict[str, List[Dict[str, Any]]] = {"parent": [],
                                                   "change": []}
    for pair in range(LAYER_PAIRS):
        for side in in_order(pair):
            layer_runs[side].append(layers_run(sides[side]))
    ledger["layers"] = {
        "what": f"daemon time per serve-warm request in microseconds, "
                f"in-process: dispatch plus the handler's encode, "
                f"{LAYER_REQUESTS} requests a pass, {LAYER_REPEATS} passes "
                f"a run, {LAYER_PAIRS} alternating runs a side",
        **layer_runs}
    starts: Dict[str, List[float]] = {"parent": [], "change": []}
    for pair in range(FLEET_STARTS):
        for side in in_order(pair):
            starts[side].append(fleet_start(sides[side]))
    ledger["fleet_start"] = {
        "what": f"seconds from exec'ing 'python -m repro fleet --members "
                f"{FLEET_MEMBERS}' on an empty store to its combined "
                f"--ready-file, {FLEET_STARTS} alternating starts a side",
        **{side: start_spread(values) for side, values in starts.items()}}
    return ledger


def summarise(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    by_side = {side: [run for run in runs if run["side"] == side]
               for side in ("parent", "change")}
    metrics = sorted(runs[0]["metrics"])
    summary = {side: {name: spread([run["metrics"][name] for run in group])
                      for name in metrics}
               for side, group in by_side.items()}
    for side, group in by_side.items():
        summary[side]["failed"] = sum(run["failed"] for run in group)
        summary[side]["attempted"] = sum(run["attempted"] for run in group)
    lower_is_better = {metric["name"]: metric["better"] == "lower"
                       for metric in BENCHMARK["end_to_end"]}
    better = {}
    for name in metrics:
        wins = 0
        for pair in range(PAIRS):
            old, new = (next(run["metrics"][name] for run in by_side[side]
                             if run["pair"] == pair)
                        for side in ("parent", "change"))
            wins += new < old if lower_is_better[name] else new > old
        better[name] = wins
    return {"runs": runs, "summary": summary,
            "change_better_in_pairs": better}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", nargs="?", default="pairs",
                        choices=("pairs", "layers", "fleet-start"))
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path, default=Path("."))
    parser.add_argument("--checkout", type=Path, default=Path("."),
                        help="the checkout 'layers' or 'fleet-start' "
                             "measures")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "layers":
        print(json.dumps(layers(args.checkout.resolve()), sort_keys=True))
        return 0
    if args.mode == "fleet-start":
        checkout = args.checkout.resolve()
        print(json.dumps(start_spread([fleet_start(checkout)
                                       for _ in range(FLEET_STARTS)]),
                         sort_keys=True))
        return 0
    if args.parent is None:
        parser.error("pairs needs --parent")
    ledger = pairs(args.parent.resolve(), args.change.resolve())
    text = json.dumps(ledger, indent=2, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
