"""Shared plumbing of the benchmark: paths, environment, statistics, processes.

Nothing here imports the simulator at module scope; :func:`import_repro`
puts the checkout's ``src`` directory on ``sys.path`` first, so the
benchmark always measures the source tree it sits in, never an installed
copy.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: The checkout root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Checkout-local scratch: cached populated stores, run directories,
#: fingerprints of earlier runs.  Listed in ``.gitignore``.
CACHE = ROOT / ".bench_build" / "perfbench"


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed launch)."""


def require_sources() -> None:
    """Refuse to run in a directory without the simulator's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"no simulator sources under {SRC}; run the benchmark from a "
            f"full checkout of the repository")


def clean_environment() -> None:
    """Drop every ``REPRO_*`` knob so the caller's shell cannot change
    what is measured, and point child interpreters at ``src``."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["PYTHONPATH"] = str(SRC)
    # The process-local trace cache resolves its spill directory from the
    # environment; an empty value disables spilling for in-process work.
    os.environ["REPRO_TRACE_DIR"] = ""


def child_environment() -> Dict[str, str]:
    """Environment for daemon subprocesses: no REPRO_* knobs at all."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def import_repro() -> None:
    require_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_digest() -> str:
    """SHA-256 over the simulator's sources: keys every cached artefact."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def make_run_dir(workload: str) -> Path:
    """A fresh per-run directory, also made the temporary directory of
    this process and its children (the fleet launcher makes one)."""
    path = CACHE / "runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    (path / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(path / "tmp")
    return path


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[int(rank) - 1]


def summary(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles and sample count of one metric's samples."""
    values = list(values)
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "samples": len(values)}


def geometric_mean(values: Iterable[float]) -> float:
    values = list(values)
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def fingerprint(value: Any) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()


# ----------------------------------------------------------------------
# Run metadata
# ----------------------------------------------------------------------
def git_commit() -> Optional[str]:
    """The checkout's commit, read from ``.git`` (None outside git)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(workload: str, seed: int, seconds: int, trace: bool,
             repeats: int) -> Dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def check_fingerprint(key: str, value: str) -> bool:
    """Compare with the fingerprint an earlier run of the same sources and
    seed recorded (recording it if this is the first); False on drift."""
    path = CACHE / "fingerprints" / f"{key}.json"
    if path.is_file():
        return json.loads(path.read_text())["fingerprint"] == value
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}")
    tmp.write_text(json.dumps({"fingerprint": value}))
    os.replace(tmp, path)
    return True


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for pid {pid}")


def pid_running(pid: int) -> bool:
    """Whether ``pid`` is alive and not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def stop_process(process: subprocess.Popen, grace: float = 15.0) -> None:
    """SIGTERM, then SIGKILL after ``grace`` seconds; always reaps."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def wait_for_file(path: Path, process: subprocess.Popen,
                  timeout: float = 60.0) -> str:
    """Poll for a ready file a child writes once it is listening."""
    deadline = time.monotonic() + timeout
    while not path.is_file():
        if process.poll() is not None:
            raise BenchmarkError(
                f"{process.args[3]} exited with code {process.returncode} "
                f"during startup")
        if time.monotonic() >= deadline:
            raise BenchmarkError(f"no ready file {path} after {timeout}s")
        time.sleep(0.01)
    return path.read_text().strip()


def wait_gone(pids: Sequence[int], timeout: float = 15.0) -> List[int]:
    """Wait for ``pids`` to exit; returns the ones still running."""
    deadline = time.monotonic() + timeout
    alive = [pid for pid in pids if pid_running(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if pid_running(pid)]
    return alive
