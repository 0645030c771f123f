"""Multi-writer regression tests for the sharded results store.

The bug these tests pin down: the old single-file store appended through
buffered text IO (one ``handle.write`` could split a line across multiple
``write(2)`` syscalls, so two processes could interleave torn fragments)
and repaired torn tails by rewriting the whole file from a stale
in-memory prefix (dropping entries other processes appended in between).
The sharded store appends each line with a single locked ``os.write`` and
repairs by truncating in place, so N concurrent writers must never lose
or corrupt an entry.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main, run_experiment
from repro.experiments import Scale
from repro.sim.engine import SimulationEngine, SimulationJob
from repro.sim.store import ResultStore, fsck_store, serialize_result

SRC = Path(__file__).resolve().parent.parent / "src"

#: Writer processes x puts per writer for the stress test.
WRITERS = 4
PUTS_PER_WRITER = 12

_WRITER_SCRIPT = """
import hashlib
import json
import sys

from repro.sim.store import ResultStore, deserialize_result

root, writer_id, encoded_path, puts = sys.argv[1:5]
with open(encoded_path, encoding="utf-8") as handle:
    result = deserialize_result(json.load(handle))
store = ResultStore(root)
for index in range(int(puts)):
    key = hashlib.sha256(f"{writer_id}:{index}".encode()).hexdigest()
    store.put(key, {"writer": writer_id, "index": index}, result)
"""


def _subprocess_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_STORE", None)
    env.pop("REPRO_JOBS", None)
    return env


@pytest.mark.slow
def test_concurrent_writers_lose_nothing(tmp_path):
    """N processes x M puts into one store, then a clean, complete load."""
    job = SimulationJob(workload="gups", predictor="lp", num_accesses=60,
                        warmup_accesses=20)
    result = SimulationEngine(jobs=1, store=False).run([job])[0]
    encoded_path = tmp_path / "result.json"
    encoded_path.write_text(json.dumps(serialize_result(result)),
                            encoding="utf-8")

    root = tmp_path / "store"
    env = _subprocess_env()
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", _WRITER_SCRIPT, str(root), str(writer),
             str(encoded_path), str(PUTS_PER_WRITER)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for writer in range(WRITERS)
    ]
    for process in writers:
        _, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stderr.decode()

    import hashlib
    store = ResultStore(root)
    expected = {
        hashlib.sha256(f"{writer}:{index}".encode()).hexdigest()
        for writer in range(WRITERS) for index in range(PUTS_PER_WRITER)
    }
    assert set(store.keys()) == expected
    assert all(store.get(key) == result for key in expected)
    assert store.misses == 0

    # And the files themselves are structurally sound: nothing to salvage.
    report = fsck_store(root)
    assert report["torn"] == report["corrupt"] == report["foreign"] == 0
    assert report["moved"] == 0
    assert report["kept"] == WRITERS * PUTS_PER_WRITER


@pytest.mark.slow
@pytest.mark.parametrize("jobs_env", ["1", "2"])
def test_two_simultaneous_cli_runs_share_one_store(tmp_path, jobs_env):
    """Two `python -m repro run` processes racing on one store stay clean
    and simulate each job once between them.

    Local runs claim their cold keys, so the loser of a key's claim serves
    the winner's result from the store.  With REPRO_JOBS=2 each invocation
    also fans simulation out over worker processes, so the store lock sees
    contention from both racing parents.
    """
    store_dir = tmp_path / "store"
    args = ["-m", "repro", "run", "fig13", "--store", str(store_dir),
            "--accesses", "120", "--warmup", "40", "--mix-accesses", "80"]
    env = dict(_subprocess_env(), REPRO_JOBS=jobs_env)
    racers = [subprocess.Popen([sys.executable, *args], env=env,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE)
              for _ in range(2)]
    simulated = 0
    for process in racers:
        stdout, stderr = process.communicate(timeout=300)
        assert process.returncode == 0, stderr.decode()
        match = re.search(r"fig13: (\d+) jobs — (\d+) from store, "
                          r"(\d+) simulated", stdout.decode())
        assert match, stdout.decode()
        total_jobs = int(match.group(1))
        simulated += int(match.group(3))
    assert simulated == total_jobs

    # Nothing was lost or corrupted, and no claim was left behind.
    report = fsck_store(store_dir)
    assert report["torn"] == report["corrupt"] == report["foreign"] == 0
    store = ResultStore(store_dir)
    assert store.active_claims() == []
    assert store.total_lines() == total_jobs
    scale = Scale(accesses=120, warmup=40, mix_accesses=80)
    rerun = run_experiment("fig13", store, scale)
    assert rerun.simulated == 0
    assert rerun.stored == rerun.total_jobs

    # A clean single-process run agrees bit-for-bit on the metrics.
    reference = run_experiment("fig13", ResultStore(tmp_path / "ref"),
                               scale)
    assert rerun.stats == reference.stats


def test_store_fsck_cli_reports_clean_store(tmp_path, capsys):
    run_experiment("fig13", ResultStore(tmp_path),
                   Scale(accesses=120, warmup=40, mix_accesses=80))
    assert main(["store", "fsck", "--store", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0 unsalvageable lines dropped" in out
