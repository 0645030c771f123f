"""Smoke test of the benchmark itself, at tiny size, for every workload.

Run from the repository root::

    python3 perfbench/smoke.py

For each workload and for ``--trace 0`` and ``--trace 1`` it checks that
the result line has exactly the keys ``correct``, ``attempted``,
``failed`` and ``metrics``, that every metric named
in ``BENCHMARK.json`` is emitted with its unit, that the outputs were
correct, that traced spans nest (children inside their parents, self time
never negative), and that after teardown no daemon, fleet member or pool
child is still running and ``store info`` reports no lingering claims.
Finally it checks that the command fails, printing no result, in a
directory holding only ``BENCHMARK.json`` and the benchmark's files.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import CACHE, ROOT, child_environment, pid_running

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT
        ) -> Tuple[subprocess.CompletedProcess, List[str]]:
    command = BENCHMARK["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--tiny", "--keep-run-dir"]
    process = subprocess.run(command, cwd=cwd, capture_output=True,
                             text=True, timeout=300)
    return process, process.stdout.strip().splitlines()


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_run(workload: str, trace: int) -> None:
    process, lines = run(workload, trace)
    label = f"{workload} --trace {trace}"
    check(process.returncode == 0,
          f"{label} exited {process.returncode}: {process.stderr[-2000:]}")
    result: Dict[str, Any] = json.loads(lines[-1])
    report: Dict[str, Any] = json.loads(lines[-2].split(": ", 1)[1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0,
          f"{label}: incorrect run: {report['failures'][:5]}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label}: attempted {result['attempted']!r}")
    named = BENCHMARK["per_layer" if trace else "end_to_end"]
    check(set(result["metrics"]) == {metric["name"] for metric in named},
          f"{label}: metric names differ from BENCHMARK.json")
    for metric in named:
        emitted = result["metrics"][metric["name"]]
        check(emitted["unit"] == metric["unit"],
              f"{label}: {metric['name']} unit {emitted['unit']!r}")
        check(isinstance(emitted["value"], (int, float)),
              f"{label}: {metric['name']} value {emitted['value']!r}")
        if not trace:
            check(emitted["value"] > 0, f"{label}: {metric['name']} is 0")
    if trace:
        check(report["spans"] > 0, f"{label}: no spans recorded")
        check(not report["nesting_problems"],
              f"{label}: {report['nesting_problems'][:3]}")
    run_dir = Path(report["run_dir"])
    try:
        if workload != "sim-cold" and not trace:
            check_teardown(label, report, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"ok: {label} ({len(result['metrics'])} metrics)")


def check_teardown(label: str, report: Dict[str, Any],
                   run_dir: Path) -> None:
    pids = report["stopped_pids"]
    check(len(pids) >= 3, f"{label}: too few processes tracked: {pids}")
    running = [pid for pid in pids if pid_running(pid)]
    check(not running, f"{label}: still running after teardown: {running}")
    stores = sorted(run_dir.glob("store-*"))
    check(bool(stores), f"{label}: no store copies kept")
    for store in stores:
        info = subprocess.run(
            [sys.executable, "-m", "repro", "store", "info", "--store",
             str(store)], capture_output=True, text=True,
            env=child_environment(), timeout=60)
        check(info.returncode == 0, f"{label}: store info failed")
        check("active claims" not in info.stdout,
              f"{label}: lingering claims in {store.name}")


def check_bare_directory() -> None:
    """The command must fail cleanly without the simulator's sources."""
    bare = CACHE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        process, lines = run("sim-cold", 0, cwd=bare)
        check(process.returncode != 0, "bare directory run exited 0")
        check(not any(line.startswith("{") for line in lines),
              "bare directory run printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: fails cleanly without sources")


def main() -> int:
    for workload in [entry["name"] for entry in BENCHMARK["workloads"]]:
        for trace in (0, 1):
            check_run(workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
