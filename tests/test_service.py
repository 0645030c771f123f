"""Tests for the persistent simulation service (:mod:`repro.service`).

The headline semantics under test:

* warm requests are answered straight from the store with zero simulation;
* concurrent identical requests coalesce onto **one** running simulation
  per job key (asserted via the store's put counter and the service's
  dedup counters);
* a daemon killed mid-grid resumes from the store with zero recomputation
  of the cells it already persisted;
* the protocol survives malformed input without taking the daemon down.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.service as service_module
import repro.sim.pool as pool_module
import repro.sim.store as store_module
from repro.cli import main, run_experiment
from repro.experiments import EXPERIMENTS, Scale, canonical_json
from repro.memory.spec import load_hierarchy
from repro.service import (
    GRID_MEMO_SIZE,
    ServiceClient,
    ServiceError,
    SimulationService,
    create_server,
    format_address,
    job_from_wire,
    parse_address,
    scale_from_wire,
    serve_forever,
)
from repro.sim.engine import (
    MixJob,
    SimulationEngine,
    SimulationJob,
    apply_hierarchy,
)
from repro.sim.pool import WorkerPool
from repro.sim.store import ResultStore, job_key, try_job_key

from proc_helpers import alive, children

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Tiny wire scale shared by the in-process tests.
TINY_WIRE = {"accesses": 120, "warmup": 40, "mix_accesses": 80}
TINY = Scale(accesses=120, warmup=40, mix_accesses=80)


@pytest.fixture(autouse=True)
def _isolated_env(monkeypatch):
    """Service tests must not inherit an ambient store/trace/jobs config."""
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.setenv("REPRO_TRACE_DIR", "")


@pytest.fixture
def service(tmp_path):
    # Thread workers: this suite monkeypatches execute_job and reaches
    # into pool internals, which needs jobs to stay in-process.  The
    # process-pool path has its own coverage in TestProcessPool below.
    svc = SimulationService(tmp_path / "store", jobs=2, pool="thread")
    yield svc
    svc.close(wait=True)


@pytest.fixture
def server(service):
    """An in-process daemon on an ephemeral localhost port."""
    srv, address = create_server(service, port=0)
    thread = threading.Thread(target=serve_forever, args=(service, srv),
                              daemon=True)
    thread.start()
    client = ServiceClient(address, timeout=30.0)
    client.wait_healthy(timeout=10.0)
    yield client
    try:
        client.shutdown()
    except (OSError, ServiceError):
        pass
    client.close()
    thread.join(timeout=10.0)


# ======================================================================
# Addresses
# ======================================================================
class TestAddresses:
    def test_bare_port_is_localhost_tcp(self):
        assert parse_address("7321") == ("tcp", ("127.0.0.1", 7321))

    def test_host_and_port(self):
        assert parse_address("10.0.0.5:99") == ("tcp", ("10.0.0.5", 99))

    def test_path_is_unix(self):
        assert parse_address("/run/repro.sock") == ("unix",
                                                    "/run/repro.sock")

    def test_unix_prefix_is_stripped(self):
        assert parse_address("unix:/tmp/s.sock") == ("unix", "/tmp/s.sock")

    def test_invalid_port_raises(self):
        with pytest.raises(ServiceError):
            parse_address("localhost:notaport")

    def test_empty_address_raises(self):
        with pytest.raises(ServiceError):
            parse_address("   ")

    def test_format_round_trips(self):
        for address in ("127.0.0.1:7321", "unix:/tmp/repro.sock"):
            family, location = parse_address(address)
            assert format_address(family, location) == address


# ======================================================================
# Wire specs
# ======================================================================
class TestWireSpecs:
    def test_single_job_round_trip(self):
        job = job_from_wire({"kind": "single", "workload": "gups",
                             "predictor": "lp", "num_accesses": 100,
                             "warmup_accesses": 20, "seed": 3})
        assert job == SimulationJob(workload="gups", predictor="lp",
                                    num_accesses=100, warmup_accesses=20,
                                    seed=3)

    def test_single_is_the_default_kind(self):
        job = job_from_wire({"workload": "gups", "predictor": "baseline",
                             "num_accesses": 50})
        assert isinstance(job, SimulationJob)
        assert job.warmup_accesses == 0 and job.seed == 0

    def test_mix_job_round_trip(self):
        job = job_from_wire({"kind": "mix", "mix": "mix1",
                             "predictor": "lp", "accesses_per_core": 80})
        assert job == MixJob(mix="mix1", predictor="lp",
                             accesses_per_core=80, seed=0)

    def test_wire_job_keys_match_engine_job_keys(self):
        """A wire spec addresses the same store cell as the native job."""
        wire = job_from_wire({"workload": "gups", "predictor": "lp",
                              "num_accesses": 100, "warmup_accesses": 20})
        native = SimulationJob(workload="gups", predictor="lp",
                               num_accesses=100, warmup_accesses=20)
        assert job_key(wire) == job_key(native)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError, match="unknown job kind"):
            job_from_wire({"kind": "nope", "workload": "gups"})

    def test_missing_field_names_the_field(self):
        with pytest.raises(ServiceError, match="predictor"):
            job_from_wire({"workload": "gups", "num_accesses": 10})

    def test_non_object_spec_rejected(self):
        with pytest.raises(ServiceError):
            job_from_wire(["not", "a", "spec"])

    def test_scale_defaults_and_fields(self):
        assert scale_from_wire(None) == Scale()
        assert scale_from_wire(TINY_WIRE) == TINY

    def test_scale_rejects_unknown_fields(self):
        with pytest.raises(ServiceError, match="unknown scale field"):
            scale_from_wire({"accesses": 10, "speed": 11})


# ======================================================================
# Service core (no socket)
# ======================================================================
class TestServiceCore:
    def test_submit_simulates_then_serves_from_store(self, service):
        first = service.submit(experiment="fig13", scale=TINY_WIRE,
                               wait=True)
        assert first["state"] == "done"
        assert first["simulated"] == first["total_jobs"] > 0
        assert first["stored"] == first["coalesced"] == 0

        second = service.submit(experiment="fig13", scale=TINY_WIRE,
                                wait=True)
        assert second["simulated"] == 0
        assert second["stored"] == second["total_jobs"]
        assert second["stats"] == first["stats"]

    def test_stats_match_a_local_run_bit_for_bit(self, service, tmp_path):
        payload = service.submit(experiment="fig13", scale=TINY_WIRE,
                                 wait=True)
        local = run_experiment("fig13", ResultStore(tmp_path / "local"),
                               TINY)
        assert payload["stats"] == local.stats

    def test_stats_file_written_under_the_store(self, service):
        payload = service.submit(experiment="fig13", scale=TINY_WIRE,
                                 wait=True)
        stats_path = Path(payload["stats_path"])
        assert stats_path == service.store.root / "stats" / "fig13.json"
        assert json.loads(stats_path.read_text()) == payload["stats"]

    def test_force_resimulates_stored_cells(self, service):
        service.submit(experiment="fig13", scale=TINY_WIRE, wait=True)
        forced = service.submit(experiment="fig13", scale=TINY_WIRE,
                                force=True, wait=True)
        assert forced["simulated"] == forced["total_jobs"]
        assert forced["stored"] == 0

    def test_explicit_job_grid_returns_results(self, service):
        jobs = [{"workload": "gups", "predictor": predictor,
                 "num_accesses": 80, "warmup_accesses": 20}
                for predictor in ("baseline", "lp")]
        payload = service.submit(jobs=jobs, wait=True)
        assert payload["state"] == "done"
        assert len(payload["results"]) == 2
        for encoded in payload["results"]:
            assert encoded["kind"] == "single"
            assert encoded["workload"] == "gups"

    def test_explicit_grid_shares_store_cells_with_experiments(
            self, service):
        jobs = [{"workload": "gups", "predictor": "lp",
                 "num_accesses": 160}]
        service.submit(jobs=jobs, wait=True)
        again = service.submit(jobs=jobs, wait=True)
        assert again["stored"] == 1 and again["simulated"] == 0

    def test_unknown_experiment_rejected(self, service):
        with pytest.raises(ServiceError, match="unknown experiment"):
            service.submit(experiment="fig99", wait=True)

    def test_submit_needs_exactly_one_grid_source(self, service):
        with pytest.raises(ServiceError):
            service.submit()
        with pytest.raises(ServiceError):
            service.submit(experiment="fig13", jobs=[{}])

    def test_async_submit_is_pollable_to_completion(self, service):
        payload = service.submit(experiment="fig13", scale=TINY_WIRE)
        assert payload["state"] == "running"
        final = service.result(payload["id"], wait=True, timeout=60.0)
        assert final["state"] == "done"
        assert final["completed"] == final["total_jobs"]
        assert final["stats"] is not None

    def test_status_reports_store_coverage(self, service):
        empty = service.status(scale=TINY_WIRE)
        assert empty["experiments"]["fig13"]["stored"] == 0
        service.submit(experiment="fig13", scale=TINY_WIRE, wait=True)
        after = service.status(scale=TINY_WIRE)
        row = after["experiments"]["fig13"]
        assert row["stored"] == row["total"] > 0
        # fig14 runs the same (mix x predictor) grid: shared cells show up.
        assert after["experiments"]["fig14"]["stored"] == row["stored"]

    def test_unknown_request_id_rejected(self, service):
        with pytest.raises(ServiceError, match="unknown request id"):
            service.status("req-999-nope")

    def test_counters_track_dedup_traffic(self, service):
        service.submit(experiment="fig13", scale=TINY_WIRE, wait=True)
        service.submit(experiment="fig13", scale=TINY_WIRE, wait=True)
        stats = service.stats()
        total = EXPERIMENTS["fig13"].jobs(TINY)
        assert stats["counters"]["simulations"] == len(total)
        assert stats["counters"]["store_hits"] == len(total)
        assert stats["store"]["puts"] == len(total)
        assert stats["workers"] == 2
        assert stats["inflight"] == 0


# ======================================================================
# Per-daemon grid memo (job lists and keys computed once per grid)
# ======================================================================
#: The scale perfbench populates and serves its figures at.
BENCH_SCALE = Scale(accesses=300, warmup=100, mix_accesses=200)
FOUR_LEVEL = REPO_ROOT / "examples" / "hierarchies" / "four_level.json"


def _spy(monkeypatch, module, name: str) -> list:
    """Count calls of ``module.name`` (the attribute callers look up)."""
    calls: list = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestGridMemo:
    @pytest.mark.parametrize("scale", [Scale(), BENCH_SCALE],
                             ids=["default", "bench"])
    def test_memoised_keys_match_direct_keys(self, service, scale):
        for name, experiment in EXPERIMENTS.items():
            grid = service._grid(name, scale)
            reference = experiment.jobs(scale)
            assert list(grid.jobs) == reference, name
            assert list(grid.keys) == [try_job_key(job)
                                       for job in reference], name
            assert service._grid(name, scale) is service._grid(name, scale)

    @pytest.mark.parametrize("scale", [Scale(), BENCH_SCALE],
                             ids=["default", "bench"])
    def test_memoised_keys_follow_the_hierarchy_override(self, tmp_path,
                                                         scale):
        spec = load_hierarchy(FOUR_LEVEL)
        svc = SimulationService(tmp_path / "store", jobs=1, pool="thread",
                                hierarchy=str(FOUR_LEVEL))
        try:
            for name, experiment in EXPERIMENTS.items():
                reference = apply_hierarchy(experiment.jobs(scale), spec,
                                            "four_level")
                grid = svc._grid(name, scale)
                assert list(grid.jobs) == reference, name
                assert list(grid.keys) == [try_job_key(job)
                                           for job in reference], name
        finally:
            svc.close(wait=True)

    def test_warm_repeat_builds_no_spec(self, service, monkeypatch):
        service_specs = _spy(monkeypatch, service_module, "job_spec")
        store_specs = _spy(monkeypatch, store_module, "job_spec")
        cold = service.submit(experiment="fig11", scale=TINY_WIRE,
                              wait=True)
        # Keys once per job; specs for the store only where one is put.
        assert len(store_specs) == cold["total_jobs"]
        assert len(service_specs) == cold["simulated"] == cold["total_jobs"]
        del service_specs[:], store_specs[:]
        warm = service.submit(experiment="fig11", scale=TINY_WIRE,
                              wait=True)
        assert warm["stored"] == warm["total_jobs"]
        assert warm["stats"] == cold["stats"]
        assert service_specs == [] and store_specs == []

    def test_status_reuses_the_memo(self, service, monkeypatch):
        first = service.status(scale=TINY_WIRE)
        keyed = _spy(monkeypatch, service_module, "try_job_key")
        assert service.status(scale=TINY_WIRE) == first
        service.submit(experiment="fig13", scale=TINY_WIRE, wait=True)
        assert keyed == []
        row = service.status(scale=TINY_WIRE)["experiments"]["fig13"]
        assert row["stored"] == row["total"] > 0

    def test_memo_fills_lazily_and_stays_bounded(self, service):
        assert service._grid.cache_info().currsize == 0
        for accesses in range(10, 15 + GRID_MEMO_SIZE):
            service._grid("fig13", Scale(accesses=accesses))
        assert service._grid.cache_info().currsize == GRID_MEMO_SIZE

    def test_memo_holds_keys_not_results(self, service):
        cold = service.submit(experiment="fig13", scale=TINY_WIRE,
                              wait=True)
        warm = service.submit(experiment="fig13", scale=TINY_WIRE,
                              wait=True)
        assert warm["stored"] == warm["total_jobs"]
        # A store cleared under a warm memo is re-simulated, not served
        # from the memoised stats, and yields the same bytes.
        service.store.clear()
        simulated = service.counters["simulations"]
        again = service.submit(experiment="fig13", scale=TINY_WIRE,
                               wait=True)
        assert again["simulated"] == again["total_jobs"]
        assert again["stored"] == 0
        assert service.counters["simulations"] - simulated == \
            again["total_jobs"]
        assert canonical_json(again["stats"]) == \
            canonical_json(cold["stats"])

    def test_memoised_stats_match_a_fresh_summary(self, service):
        """Every figure's memo-served stats are byte-equal to summarising
        the stored results afresh, and leave the stats file alone."""
        for name, experiment in EXPERIMENTS.items():
            service.submit(experiment=name, scale=TINY_WIRE, wait=True)
        for name, experiment in EXPERIMENTS.items():
            grid = service._grid(name, TINY)
            assert grid.summary is not None, name
            stats_file = service.store.root / "stats" / f"{name}.json"
            before = stats_file.read_bytes()
            hits = service.store.hits
            memoised = service.submit(experiment=name, scale=TINY_WIRE,
                                      wait=True)
            # Served from the memo: no stored result was read.
            assert service.store.hits == hits, name
            assert memoised["state"] == "done", name
            assert memoised["stored"] == memoised["completed"] == \
                memoised["total_jobs"], name
            fresh = experiment.summarize(
                [service.store.get(key) for key in grid.keys], TINY)
            assert canonical_json(memoised["stats"]) == \
                canonical_json(fresh), name
            assert stats_file.read_bytes() == before, name

    def test_force_bypasses_and_refreshes_the_memo(self, service):
        cold = service.submit(experiment="fig13", scale=TINY_WIRE,
                              wait=True)
        grid = service._grid("fig13", TINY)
        summary = grid.summary
        assert summary is not None
        forced = service.submit(experiment="fig13", scale=TINY_WIRE,
                                force=True, wait=True)
        assert forced["simulated"] == forced["total_jobs"]
        assert grid.summary is not summary
        assert grid.summary[1] == summary[1]
        assert forced["stats"] == cold["stats"]

    def test_grid_with_a_failed_job_is_never_memoised(self, service,
                                                      monkeypatch):
        grid = service._grid("fig13", TINY)
        poisoned = grid.jobs[0]
        original = service_module.execute_job

        def fail_one(job, trace_cache=None):
            if job == poisoned:
                raise RuntimeError("boom")
            return original(job)

        monkeypatch.setattr(service_module, "execute_job", fail_one)
        monkeypatch.setattr(service, "RETRY_BACKOFF", 0.0)
        failed = service.submit(experiment="fig13", scale=TINY_WIRE,
                                wait=True)
        assert failed["state"] == "failed"
        assert grid.summary is None
        # Every other cell is stored; the quarantined one still fails.
        again = service.submit(experiment="fig13", scale=TINY_WIRE,
                               wait=True)
        assert again["state"] == "failed"
        assert again["stored"] == again["total_jobs"] - 1
        assert grid.summary is None
        monkeypatch.setattr(service_module, "execute_job", original)
        healed = service.submit(experiment="fig13", scale=TINY_WIRE,
                                force=True, wait=True)
        assert healed["state"] == "done"
        assert grid.summary is not None

    def test_memo_is_evicted_with_its_grid(self, service):
        service.submit(experiment="fig13", scale=TINY_WIRE, wait=True)
        assert service._grid("fig13", TINY).summary is not None
        for accesses in range(10, 10 + GRID_MEMO_SIZE):
            service._grid("fig13", Scale(accesses=accesses))
        grid = service._grid("fig13", TINY)
        assert grid.summary is None
        hits = service.store.hits
        warm = service.submit(experiment="fig13", scale=TINY_WIRE,
                              wait=True)
        # Rebuilt the long way (every stored result read), then memoised.
        assert warm["stored"] == warm["total_jobs"]
        assert service.store.hits - hits == warm["total_jobs"]
        assert grid.summary is not None

    def test_cold_grid_shards_match_a_serial_engine_run(self, service,
                                                        tmp_path):
        service.submit(experiment="fig13", scale=TINY_WIRE, wait=True)
        serial = SimulationEngine(jobs=1, store=tmp_path / "serial")
        serial.run(EXPERIMENTS["fig13"].jobs(TINY))

        def shards(root: Path) -> dict:
            return {path.name: path.read_bytes()
                    for path in (root / "shards").glob("*.jsonl")}

        assert shards(service.store.root) == shards(tmp_path / "serial")
        assert shards(service.store.root)

    def test_warm_requests_rewrite_neither_index_nor_stats(self, service):
        service.submit(experiment="fig13", scale=TINY_WIRE, wait=True)
        index = service.store.shards_dir / "index.json"
        stats = service.store.root / "stats" / "fig13.json"
        before = [(path.stat().st_ino, path.stat().st_mtime_ns)
                  for path in (index, stats)]
        for _ in range(2):
            warm = service.submit(experiment="fig13", scale=TINY_WIRE,
                                  wait=True)
            assert warm["stats_path"] == str(stats)
        assert [(path.stat().st_ino, path.stat().st_mtime_ns)
                for path in (index, stats)] == before
        # A cold job's put still refreshes the index.
        service.submit(jobs=[{"workload": "gups", "predictor": "lp",
                              "num_accesses": 60}], wait=True)
        assert index.stat().st_ino != before[0][0]

    def test_changed_stats_still_replace_the_file_atomically(self,
                                                             service):
        def encoded(value: int) -> bytes:
            return canonical_json({"value": value}).encode("utf-8")

        path = Path(service._write_stats("memo", encoded(1)))
        inode = path.stat().st_ino
        assert service._write_stats("memo", encoded(1)) == str(path)
        assert path.stat().st_ino == inode
        assert service._write_stats("memo", encoded(2)) == str(path)
        assert path.stat().st_ino != inode
        assert json.loads(path.read_text()) == {"value": 2}
        assert sorted(p.name for p in path.parent.iterdir()) == \
            ["memo.json"]


# ======================================================================
# In-flight deduplication under concurrency
# ======================================================================
class TestDedup:
    def test_concurrent_identical_requests_simulate_each_key_once(
            self, service):
        """N clients ask for the golden figure at once: one simulation per
        job key, bit-identical stats for every client."""
        clients = 3
        barrier = threading.Barrier(clients)
        payloads: list = [None] * clients
        errors: list = []

        def request(slot: int) -> None:
            try:
                barrier.wait()
                payloads[slot] = service.submit(experiment="golden",
                                                wait=True)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=request, args=(slot,))
                   for slot in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not errors
        total = len(EXPERIMENTS["golden"].jobs(TINY))

        # The dedup invariant: every job key was simulated exactly once
        # and persisted exactly once, no matter how many clients raced.
        assert service.counters["simulations"] == total
        assert service.store.puts == total
        assert service.store.total_lines() == len(service.store) == total
        # Every requested cell was answered one of the three ways.
        answered = (service.counters["simulations"]
                    + service.counters["store_hits"]
                    + service.counters["coalesced"])
        assert answered == clients * total

        states = [payload["state"] for payload in payloads]
        assert states == ["done"] * clients
        reference = payloads[0]["stats"]
        assert all(payload["stats"] == reference for payload in payloads)
        committed = json.loads((REPO_ROOT / "GOLDEN_stats.json").read_text())
        assert reference == committed

    def test_concurrent_requests_with_shared_cells_coalesce(self, service):
        """fig13 and fig14 run the same grid: racing them simulates the
        shared cells once."""
        barrier = threading.Barrier(2)
        done: list = [None, None]

        def request(slot: int, name: str) -> None:
            barrier.wait()
            done[slot] = service.submit(experiment=name, scale=TINY_WIRE,
                                        wait=True)

        threads = [threading.Thread(target=request, args=(0, "fig13")),
                   threading.Thread(target=request, args=(1, "fig14"))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        total = len(EXPERIMENTS["fig13"].jobs(TINY))
        assert done[0]["state"] == done[1]["state"] == "done"
        assert service.counters["simulations"] == total
        assert service.store.puts == total

    def test_coalesced_requests_fail_loudly_when_the_owner_fails(
            self, service, monkeypatch):
        """A watcher attached to a failing owner must error, not hang."""
        import repro.service as service_module

        started = threading.Event()

        def explode(job, trace_cache=None):
            started.set()
            time.sleep(0.05)
            raise RuntimeError("boom")

        monkeypatch.setattr(service_module, "execute_job", explode)
        owner = service.submit(experiment="fig13", scale=TINY_WIRE)
        assert started.wait(timeout=30.0)
        watcher = service.submit(experiment="fig13", scale=TINY_WIRE)
        final_owner = service.result(owner["id"], wait=True, timeout=60.0)
        final_watcher = service.result(watcher["id"], wait=True,
                                       timeout=60.0)
        assert final_owner["state"] == "failed"
        assert final_owner["failed_jobs"]
        assert any("boom" in failure["error"]
                   for failure in final_owner["failed_jobs"])
        assert final_watcher["state"] == "failed"
        # The failing keys were retried up to the budget, then poisoned.
        assert service.counters["retries"] > 0
        assert service.counters["quarantined"] > 0


class TestFailureHygiene:
    """The daemon must fail requests loudly and leak nothing."""

    def test_claim_failure_leaves_no_inflight_futures(self, service):
        """A pool that cannot accept work mid-claim must not strand
        registered futures (later requests would coalesce onto them and
        wait forever)."""
        service._pool.shutdown(wait=True)
        payload = service.submit(experiment="fig13", scale=TINY_WIRE,
                                 wait=True)
        assert payload["state"] == "failed"
        assert service._inflight == {}
        # A replacement pool over the same store still works.
        service._pool = WorkerPool(1, "thread")
        recovered = service.submit(experiment="fig13", scale=TINY_WIRE,
                                   wait=True)
        assert recovered["state"] == "done"

    def test_finished_requests_are_evicted_beyond_the_cap(
            self, service, monkeypatch):
        import repro.service as service_module

        monkeypatch.setattr(service_module, "MAX_FINISHED_REQUESTS", 2)
        spec = {"workload": "gups", "predictor": "baseline",
                "num_accesses": 40}
        ids = [service.submit(jobs=[spec], wait=True)["id"]
               for _ in range(5)]
        assert len(service._requests) <= 3
        with pytest.raises(ServiceError, match="unknown request id"):
            service.status(ids[0])
        # The newest finished request is still pollable.
        assert service.status(ids[-1])["state"] == "done"


# ======================================================================
# Admission control: atomic check-and-reserve
# ======================================================================
class TestAdmissionControl:
    def test_admit_is_check_and_reserve(self, tmp_path):
        svc = SimulationService(tmp_path / "store", jobs=1, pool="thread",
                                max_queue=1)
        try:
            reserved = svc._admit(1)
            assert reserved == 1
            # The slot is reserved the moment the check passes — a second
            # submit sheds even though no job has reached the pool yet
            # (the pre-fix race: both passed the check, both ran).
            with pytest.raises(ServiceError) as excinfo:
                svc._admit(1)
            assert excinfo.value.code == "overloaded"
            assert excinfo.value.retryable is True
            svc._release_reservation(reserved)
            assert svc._admit(1) == 1
            svc._release_reservation(1)
        finally:
            svc.close(wait=True)

    def test_concurrent_submits_cannot_overshoot_max_queue(
            self, tmp_path, monkeypatch):
        import repro.service as service_module

        release = threading.Event()
        real_execute = service_module.execute_job

        def held(job, **kwargs):
            release.wait(15.0)
            return real_execute(job, **kwargs)

        monkeypatch.setattr(service_module, "execute_job", held)
        svc = SimulationService(tmp_path / "store", jobs=4, pool="thread",
                                max_queue=2)
        try:
            admitted, sheds = [], []

            def submit(seed: int) -> None:
                spec = {"workload": "gups", "predictor": "baseline",
                        "num_accesses": 40, "seed": seed}
                try:
                    admitted.append(
                        svc.submit(jobs=[spec], wait=False)["id"])
                except ServiceError as exc:
                    sheds.append(exc)

            threads = [threading.Thread(target=submit, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # Held jobs keep every admitted slot occupied, so admissions
            # can never exceed the bound — the pre-fix race admitted all
            # eight.  (Reservations may transiently double-count against
            # active jobs, which sheds early but never over-admits.)
            assert 1 <= len(admitted) <= 2
            assert len(sheds) == 8 - len(admitted)
            assert all(exc.code == "overloaded" and exc.retryable
                       for exc in sheds)
            assert svc.counters["shed"] == len(sheds)
            release.set()
            for request_id in admitted:
                final = svc.result(request_id, wait=True, timeout=30.0)
                assert final["state"] == "done"
            # Drained: the backlog returns to zero, nothing leaks.
            assert svc._reserved_jobs == 0
            deadline = time.time() + 10.0
            while svc._active_jobs and time.time() < deadline:
                time.sleep(0.01)
            assert svc._active_jobs == 0
        finally:
            release.set()
            svc.close(wait=True)


# ======================================================================
# The socket layer
# ======================================================================
class TestSocketServer:
    def test_health_and_figures(self, server):
        health = server.health()
        assert health["status"] == "ok"
        assert health["pid"] == os.getpid()
        figures = server.figures()["experiments"]
        assert set(figures) == set(EXPERIMENTS)

    def test_submit_over_the_wire(self, server):
        payload = server.submit(experiment="fig13", scale=TINY_WIRE,
                                wait=True)
        assert payload["state"] == "done"
        assert payload["simulated"] == payload["total_jobs"]
        again = server.submit(experiment="fig13", scale=TINY_WIRE,
                              wait=True)
        assert again["simulated"] == 0
        assert again["stats"] == payload["stats"]

    def test_warm_submit_is_one_round_trip(self, service, server):
        requests = service.counters["requests"]
        cold = server.submit(experiment="fig13", scale=TINY_WIRE,
                             wait=True)
        assert cold["simulated"] == cold["total_jobs"]
        assert service.counters["requests"] - requests >= 2
        requests = service.counters["requests"]
        warm = server.submit(experiment="fig13", scale=TINY_WIRE,
                             wait=True)
        assert service.counters["requests"] - requests == 1
        assert warm["state"] == "done"
        assert warm["stats"] == cold["stats"]

    def test_done_submit_without_payload_is_still_polled(
            self, service, server, monkeypatch):
        """A daemon predating inline answers reports a warm grid ``done``
        with no payload: the client must fetch it through ``result``."""
        cold = server.submit(experiment="fig13", scale=TINY_WIRE,
                             wait=True)
        original = service.submit

        def bare_submit(**params):
            response = original(**params)
            assert response["state"] == "done"
            for field in ("stats", "stats_path", "results"):
                response.pop(field, None)
            return response

        monkeypatch.setattr(service, "submit", bare_submit)
        requests = service.counters["requests"]
        warm = server.submit(experiment="fig13", scale=TINY_WIRE,
                             wait=True)
        assert service.counters["requests"] - requests == 2
        assert warm["stats"] == cold["stats"]

    def test_async_submit_and_result_over_the_wire(self, server):
        submitted = server.submit(experiment="fig13", scale=TINY_WIRE)
        assert submitted["state"] in ("running", "done")
        final = server.result(submitted["id"], wait=True, timeout=60.0)
        assert final["state"] == "done"
        assert final["stats"] is not None

    def test_error_responses_do_not_kill_the_daemon(self, server):
        with pytest.raises(ServiceError, match="unknown experiment"):
            server.submit(experiment="fig99", wait=True)
        with pytest.raises(ServiceError, match="unknown op"):
            server.request("dance")
        assert server.health()["status"] == "ok"

    def test_malformed_json_is_answered_not_fatal(self, server):
        family, location = parse_address(server.address)
        with socket.create_connection(location, timeout=10.0) as sock:
            sock.sendall(b"this is not json\n")
            response = json.loads(sock.makefile("rb").readline())
        assert response["ok"] is False
        assert "JSON" in response["error"]
        assert server.health()["status"] == "ok"

    def test_unix_socket_server(self, tmp_path):
        svc = SimulationService(tmp_path / "store", jobs=1)
        sock_path = tmp_path / "repro.sock"
        srv, address = create_server(svc, socket_path=sock_path)
        thread = threading.Thread(target=serve_forever, args=(svc, srv),
                                  daemon=True)
        thread.start()
        try:
            client = ServiceClient(address, timeout=10.0)
            assert client.wait_healthy()["status"] == "ok"
            assert address == f"unix:{sock_path}"
            client.shutdown()
        finally:
            thread.join(timeout=10.0)
        assert not sock_path.exists()  # unlinked on shutdown

    def test_create_server_needs_exactly_one_binding(self, service):
        with pytest.raises(ServiceError):
            create_server(service)
        with pytest.raises(ServiceError):
            create_server(service, port=0, socket_path="/tmp/x.sock")

    def test_shutdown_op_stops_the_accept_loop(self, tmp_path):
        svc = SimulationService(tmp_path / "store", jobs=1)
        srv, address = create_server(svc, port=0)
        thread = threading.Thread(target=serve_forever, args=(svc, srv),
                                  daemon=True)
        thread.start()
        client = ServiceClient(address, timeout=10.0)
        client.wait_healthy()
        assert client.shutdown()["stopping"] is True
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        with pytest.raises(OSError):
            ServiceClient(address, timeout=0.5).health()


# ======================================================================
# Kept-alive connections
# ======================================================================
def _serve(service: SimulationService, **binding):
    """Start ``service`` on a socket; returns ``(server, thread, address)``."""
    srv, address = create_server(service, **binding)
    thread = threading.Thread(target=serve_forever, args=(service, srv),
                              daemon=True)
    thread.start()
    return srv, thread, address


def _handler_threads() -> set:
    return {thread for thread in threading.enumerate()
            if "process_request_thread" in thread.name}


class TestKeepAlive:
    def test_sequential_requests_share_one_connection(self, service,
                                                      server):
        before = service.counters["connections"]
        with ServiceClient(server.address, timeout=10.0) as client:
            for _ in range(20):
                assert client.health()["status"] == "ok"
        assert service.counters["connections"] - before == 1

    def test_threads_sharing_a_client_never_share_a_socket(self, service,
                                                           server):
        spec = {"workload": "gups", "predictor": "lp", "num_accesses": 40}
        ids = [service.submit(jobs=[spec], wait=True)["id"]
               for _ in range(8)]
        assert len(set(ids)) == 8
        before = service.counters["connections"]
        client = ServiceClient(server.address, timeout=10.0)
        errors = []

        def poll(request_id: str) -> None:
            try:
                for _ in range(50):
                    echoed = client.status(request_id)["id"]
                    assert echoed == request_id, (echoed, request_id)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=poll, args=(request_id,))
                       for request_id in ids]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            client.close()
        assert errors == []
        assert service.counters["connections"] - before == 8

    def test_connections_of_exited_threads_are_closed(self, tmp_path):
        """Thread churn on a long-lived client must not pile up idle
        connections on either side."""
        svc = SimulationService(tmp_path / "store", jobs=1, pool="thread")
        srv, thread, address = _serve(svc, port=0)
        client = ServiceClient(address, timeout=10.0)
        try:
            for _ in range(20):
                caller = threading.Thread(target=client.health)
                caller.start()
                caller.join(timeout=10.0)
            assert len(client._connections) <= 2
            deadline = time.monotonic() + 10.0
            while len(srv._connections) > 2:
                assert time.monotonic() < deadline, \
                    f"{len(srv._connections)} daemon connections stayed open"
                time.sleep(0.01)
        finally:
            client.close()
            srv.request_shutdown()
            thread.join(timeout=10.0)

    def test_restarted_unix_daemon_is_reached_without_backoff(
            self, tmp_path, monkeypatch):
        sock_path = tmp_path / "repro.sock"
        first = SimulationService(tmp_path / "store", jobs=1, pool="thread")
        srv, thread, address = _serve(first, socket_path=sock_path)
        client = ServiceClient(address, timeout=10.0)
        try:
            assert client.health()["status"] == "ok"
            srv.shutdown()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            second = SimulationService(tmp_path / "store", jobs=1,
                                       pool="thread")
            srv, thread, _ = _serve(second, socket_path=sock_path)

            def no_backoff(attempt: int) -> None:
                pytest.fail("a closed kept-alive connection must be "
                            "reopened at once, not retried with backoff")

            monkeypatch.setattr(client, "_sleep_backoff", no_backoff)
            assert client.health()["pid"] == os.getpid()
            assert second.counters["connections"] == 1
        finally:
            client.close()
            srv.request_shutdown()
            thread.join(timeout=10.0)

    def test_dropped_response_closes_the_connection(self, service, server):
        from repro import faults

        client = ServiceClient(server.address, timeout=10.0)
        try:
            assert client.health()["status"] == "ok"
            faults.install("service.response:drop@times=1")
            start = time.monotonic()
            assert client.health()["status"] == "ok"
            # The daemon hung up after the drop: no client-side timeout.
            assert time.monotonic() - start < 2.0
            fired = sum(counts["fired"]
                        for counts in faults.counters_snapshot().values())
            assert fired == 1
        finally:
            faults.uninstall()
            client.close()

    def test_close_ends_the_daemon_handler_threads(self, service, server):
        before = _handler_threads()
        client = ServiceClient(server.address, timeout=10.0)
        client.health()
        helpers = [threading.Thread(target=client.health) for _ in range(2)]
        for helper in helpers:
            helper.start()
        for helper in helpers:
            helper.join(timeout=10.0)
        opened = _handler_threads() - before
        assert len(opened) == 3
        client.close()
        deadline = time.monotonic() + 10.0
        while any(thread.is_alive() for thread in opened):
            assert time.monotonic() < deadline, "handler threads outlived " \
                "the client's close()"
            time.sleep(0.01)

    def test_stopped_daemon_cuts_off_kept_alive_clients(self, tmp_path):
        svc = SimulationService(tmp_path / "store", jobs=1, pool="thread")
        srv, thread, address = _serve(svc, port=0)
        client = ServiceClient(address, timeout=10.0, retries=1)
        try:
            assert client.health()["status"] == "ok"
            srv.request_shutdown()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            with pytest.raises(ServiceError) as excinfo:
                client.health()
            assert excinfo.value.code == "connection"
        finally:
            client.close()

    def test_shutdown_op_stops_the_daemon_even_if_its_answer_is_lost(
            self, tmp_path):
        from repro import faults

        svc = SimulationService(tmp_path / "store", jobs=1, pool="thread")
        srv, thread, address = _serve(svc, port=0)
        client = ServiceClient(address, timeout=10.0, retries=1)
        try:
            client.wait_healthy()
            faults.install("service.response:drop")
            with pytest.raises(ServiceError):
                client.shutdown()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        finally:
            faults.uninstall()
            client.close()


# ======================================================================
# Unix socket safety: never steal a live daemon's socket
# ======================================================================
class TestUnixSocketSafety:
    def test_refuses_to_replace_a_live_socket(self, tmp_path):
        svc = SimulationService(tmp_path / "store", jobs=1)
        sock_path = tmp_path / "repro.sock"
        srv, address = create_server(svc, socket_path=sock_path)
        thread = threading.Thread(target=serve_forever, args=(svc, srv),
                                  daemon=True)
        thread.start()
        other = SimulationService(tmp_path / "store2", jobs=1)
        try:
            client = ServiceClient(address, timeout=10.0)
            client.wait_healthy()
            with pytest.raises(ServiceError, match="already listening"):
                create_server(other, socket_path=sock_path)
            # The incumbent survived the probe unharmed.
            assert client.health()["status"] == "ok"
            assert sock_path.exists()
            client.shutdown()
        finally:
            thread.join(timeout=10.0)
            other.close(wait=True)

    def test_replaces_a_stale_socket_file(self, tmp_path):
        sock_path = tmp_path / "repro.sock"
        # A crashed daemon leaves its socket file behind: bound once,
        # never listening again.  Connecting is refused, so it is stale.
        leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        leftover.bind(str(sock_path))
        leftover.close()
        assert sock_path.exists()
        svc = SimulationService(tmp_path / "store", jobs=1)
        srv, address = create_server(svc, socket_path=sock_path)
        thread = threading.Thread(target=serve_forever, args=(svc, srv),
                                  daemon=True)
        thread.start()
        try:
            client = ServiceClient(address, timeout=10.0)
            assert client.wait_healthy()["status"] == "ok"
            client.shutdown()
        finally:
            thread.join(timeout=10.0)


# ======================================================================
# Client clock hygiene and bounded request bookkeeping
# ======================================================================
class TestClientClock:
    def test_wait_healthy_survives_wall_clock_jumps(self, tmp_path,
                                                    monkeypatch):
        """wait_healthy must pace itself on the monotonic clock: a wall
        clock jumping forward (NTP step, suspend/resume) must not eat
        the retry budget."""
        import repro.service as service_module
        from types import SimpleNamespace

        state = {"mono": 1000.0, "wall": 5_000_000.0}

        def fake_monotonic():
            return state["mono"]

        def fake_time():
            # Every read of the wall clock leaps an hour forward.
            state["wall"] += 3600.0
            return state["wall"]

        def fake_sleep(seconds):
            state["mono"] += seconds

        fake = SimpleNamespace(monotonic=fake_monotonic, time=fake_time,
                               sleep=fake_sleep,
                               perf_counter=time.perf_counter)
        monkeypatch.setattr(service_module, "time", fake)
        client = ServiceClient("127.0.0.1:1", timeout=0.1)
        probes = []

        def failing_health():
            probes.append(state["mono"])
            raise OSError("connection refused")

        monkeypatch.setattr(client, "health", failing_health)
        with pytest.raises(OSError, match="connection refused"):
            client.wait_healthy(timeout=1.0, interval=0.05)
        # 1.0s budget at 0.05s intervals: ~20 probes.  A wall-clock
        # deadline would have bailed after the very first probe.
        assert len(probes) >= 15

    def test_finished_requests_evicted_by_completion_time(
            self, tmp_path, monkeypatch):
        import repro.service as service_module

        monkeypatch.setattr(service_module, "MAX_FINISHED_REQUESTS", 2)
        svc = SimulationService(tmp_path / "store", jobs=1, pool="thread")
        try:
            spec = {"workload": "gups", "predictor": "baseline",
                    "num_accesses": 40, "seed": 0}
            ids = []
            for seed in range(3):
                spec_n = dict(spec, seed=seed)
                ids.append(svc.submit(jobs=[spec_n], wait=True)["id"])
            # Forge completion order that disagrees with both insertion
            # and request-id order: ids[1] finished first.
            for request_id, finished_at in zip(ids, (300.0, 100.0, 200.0)):
                svc._requests[request_id].finished_at = finished_at
            # The next submit trips eviction down to MAX_FINISHED_REQUESTS.
            svc.submit(jobs=[dict(spec, seed=9)], wait=True)
            with pytest.raises(ServiceError, match="unknown request"):
                svc.result(ids[1])
            assert svc.result(ids[0])["state"] == "done"
            assert svc.result(ids[2])["state"] == "done"
        finally:
            svc.close(wait=True)


# ======================================================================
# Daemon subprocess: kill -9 mid-grid, restart, resume
# ======================================================================
def _spawn_daemon(tmp_path: Path, store: Path, jobs: str = "1",
                  extra: "tuple[str, ...]" = ()
                  ) -> "tuple[subprocess.Popen, str]":
    ready = tmp_path / f"ready-{time.monotonic_ns()}.txt"
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_JOBS=jobs,
               REPRO_TRACE_DIR="")
    env.pop("REPRO_STORE", None)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--store", str(store), "--ready-file", str(ready), *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    deadline = time.time() + 30.0
    while not ready.is_file():
        if process.poll() is not None:
            raise AssertionError(
                f"daemon died on startup: "
                f"{process.stderr.read().decode()}")  # type: ignore
        if time.time() > deadline:
            process.kill()
            raise AssertionError("daemon never wrote its ready file")
        time.sleep(0.02)
    return process, ready.read_text().strip()


@pytest.mark.slow
class TestDaemonRestart:
    SCALE = {"accesses": 400, "warmup": 120, "mix_accesses": 300}

    def test_kill_and_restart_resumes_with_zero_recomputation(
            self, tmp_path):
        store = tmp_path / "store"
        daemon, address = _spawn_daemon(tmp_path, store)
        try:
            client = ServiceClient(address, timeout=30.0)
            client.wait_healthy(timeout=30.0)
            submitted = client.submit(experiment="fig13", scale=self.SCALE)
            total = submitted["total_jobs"]
            # Let it persist part of the grid, then kill it un-gracefully.
            deadline = time.time() + 60.0
            while True:
                snapshot = client.status(submitted["id"])
                if snapshot["completed"] >= 1 or \
                        snapshot["state"] != "running":
                    break
                assert time.time() < deadline, "grid never started"
                time.sleep(0.02)
            workers = children(daemon.pid)
        finally:
            daemon.kill()
            daemon.wait(timeout=30.0)

        # The SIGKILLed daemon's pool workers notice and exit on their own.
        assert workers, "the daemon runs its jobs in pool workers"
        deadline = time.time() + 5.0
        while any(alive(pid) for pid in workers):
            assert time.time() < deadline, \
                f"orphaned pool workers still alive: {workers}"
            time.sleep(0.05)

        survivors = len(ResultStore(store))
        assert survivors >= 1  # the kill landed after at least one put

        restarted, address = _spawn_daemon(tmp_path, store)
        try:
            client = ServiceClient(address, timeout=30.0)
            client.wait_healthy(timeout=30.0)
            payload = client.submit(experiment="fig13", scale=self.SCALE,
                                    wait=True)
            assert payload["state"] == "done"
            # Zero recomputation of stored cells: everything the first
            # daemon persisted is served, only the remainder simulates.
            assert payload["stored"] >= survivors
            assert payload["simulated"] == total - payload["stored"]
        finally:
            restarted.terminate()
            restarted.wait(timeout=30.0)

        # One line per key across both daemon lifetimes: nothing was
        # simulated (or persisted) twice.
        final = ResultStore(store)
        assert len(final) == total
        assert final.total_lines() == total
        # And the resumed grid's metrics match a clean local run.
        local = run_experiment(
            "fig13", ResultStore(tmp_path / "reference"),
            Scale(accesses=400, warmup=120, mix_accesses=300))
        daemon_stats = json.loads(
            (store / "stats" / "fig13.json").read_text())
        assert daemon_stats == local.stats

    def test_sigterm_shuts_down_gracefully(self, tmp_path):
        daemon, address = _spawn_daemon(tmp_path, tmp_path / "store")
        client = ServiceClient(address, timeout=30.0)
        client.wait_healthy(timeout=30.0)
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=30.0) == 0

    def test_warm_daemon_answers_from_a_store_written_locally(
            self, tmp_path):
        """A daemon pointed at a pre-populated store simulates nothing."""
        store = tmp_path / "store"
        run_experiment("fig13", ResultStore(store), TINY)
        daemon, address = _spawn_daemon(tmp_path, store)
        try:
            client = ServiceClient(address, timeout=30.0)
            client.wait_healthy(timeout=30.0)
            payload = client.submit(experiment="fig13", scale=TINY_WIRE,
                                    wait=True)
            assert payload["simulated"] == 0
            assert payload["stored"] == payload["total_jobs"]
        finally:
            daemon.terminate()
            daemon.wait(timeout=30.0)


# ======================================================================
# Process-pool workers (the daemon default)
# ======================================================================
def _assert_pids_exit(pids, timeout: float = 15.0) -> None:
    """Every pid must disappear (or be reaped) within the deadline."""
    deadline = time.time() + timeout
    for pid in pids:
        while True:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            assert time.time() < deadline, \
                f"pool child {pid} survived shutdown"
            time.sleep(0.05)


class TestProcessPool:
    def _process_service(self, tmp_path, **kwargs):
        svc = SimulationService(tmp_path / "store", **kwargs)
        if svc.pool_kind != "process":
            svc.close(wait=True)
            pytest.skip("process pool unavailable on this host: "
                        f"{svc.stats()['pool']['fallback_reason']}")
        return svc

    def test_jobs_run_on_pool_children(self, tmp_path):
        svc = self._process_service(tmp_path, jobs=2)
        try:
            payload = svc.submit(experiment="fig13", scale=TINY_WIRE,
                                 wait=True)
            assert payload["state"] == "done"
            assert payload["simulated"] == payload["total_jobs"]
            stats = svc.stats()
            assert stats["pool"]["type"] == "process"
            assert stats["pool"]["workers"] == 2
            assert stats["pool"]["children"]  # live worker pids
            assert stats["pool"]["fallback_reason"] is None
        finally:
            svc.close(wait=True)

    def test_process_pool_results_match_thread_pool(self, tmp_path):
        svc = self._process_service(tmp_path, jobs=2)
        try:
            pooled = svc.submit(experiment="fig13", scale=TINY_WIRE,
                                wait=True)
        finally:
            svc.close(wait=True)
        serial = SimulationService(tmp_path / "serial-store", jobs=1,
                                   pool="thread")
        try:
            reference = serial.submit(experiment="fig13", scale=TINY_WIRE,
                                      wait=True)
        finally:
            serial.close(wait=True)
        assert pooled["stats"] == reference["stats"]

    def test_fallback_to_threads_is_logged(self, tmp_path, monkeypatch,
                                           caplog):
        class NoProcesses:
            def __init__(self, **kwargs):
                del kwargs

            def submit(self, fn, *args):
                raise OSError("fork refused")

            def shutdown(self, wait=True):
                del wait

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", NoProcesses)
        with caplog.at_level("WARNING", logger="repro.sim.pool"):
            svc = SimulationService(tmp_path / "store", jobs=1,
                                    pool="process")
        try:
            assert svc.pool_kind == "thread"
            [record] = [record for record in caplog.records
                        if record.name == "repro.sim.pool"]
            assert record.levelname == "WARNING"
            assert "fork refused" in record.getMessage()
            assert "using thread workers" in record.getMessage()
        finally:
            svc.close(wait=True)

    def test_close_terminates_pool_children(self, tmp_path):
        # Regression: a SIGTERM'd daemon used to leak its pool children;
        # close() must reap (or terminate) every worker process.
        svc = self._process_service(tmp_path, jobs=2)
        try:
            svc.submit(experiment="fig13", scale=TINY_WIRE, wait=True)
            children = svc.stats()["pool"]["children"]
            assert children
        finally:
            svc.close(wait=True)
        _assert_pids_exit(children)
        svc.close(wait=True)  # idempotent after the pool is gone

    def test_stats_payload_shape_for_exact_thread_pool(self, service):
        stats = service.stats()
        # Jobs replay through the one exact loop: no execution knobs.
        for knob in ("kernel", "shards", "sharding"):
            assert knob not in stats
        assert stats["pool"]["type"] == "thread"
        assert stats["pool"]["children"] == []
        assert stats["counters"]["pool_failovers"] == 0


@pytest.mark.slow
class TestDaemonPoolShutdown:
    def test_sigterm_reaps_process_pool_children(self, tmp_path):
        # Regression for the leak: SIGTERM must take the pool's child
        # processes down with the daemon, not orphan them.
        daemon, address = _spawn_daemon(tmp_path, tmp_path / "store",
                                        jobs="2",
                                        extra=("--pool", "process"))
        try:
            client = ServiceClient(address, timeout=30.0)
            client.wait_healthy(timeout=30.0)
            client.submit(experiment="fig13", scale=TINY_WIRE, wait=True)
            stats = client.stats()
            assert stats["pool"]["type"] == "process"
            children = stats["pool"]["children"]
            assert children
        except BaseException:
            daemon.kill()
            daemon.wait(timeout=30.0)
            raise
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=30.0) == 0
        _assert_pids_exit(children)


# ======================================================================
# CLI integration (--remote against an in-process server)
# ======================================================================
class TestRemoteCLI:
    def test_run_remote_round_trip(self, server, capsys):
        scale = ["--accesses", "120", "--warmup", "40",
                 "--mix-accesses", "80"]
        assert main(["run", "fig13", "--remote", server.address]
                    + scale) == 0
        out = capsys.readouterr().out
        assert "0 from store" in out and "simulated" in out
        assert main(["run", "fig13", "--remote", server.address]
                    + scale) == 0
        assert "0 simulated" in capsys.readouterr().out

    def test_run_remote_check_against_golden(self, server, capsys,
                                             monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["run", "golden", "--remote", server.address,
                     "--check"]) == 0
        assert "matches" in capsys.readouterr().out

    def test_run_remote_stats_out(self, server, tmp_path, capsys):
        out_path = tmp_path / "stats.json"
        assert main(["run", "fig13", "--remote", server.address,
                     "--accesses", "120", "--warmup", "40",
                     "--mix-accesses", "80",
                     "--stats-out", str(out_path)]) == 0
        del capsys
        stats = json.loads(out_path.read_text())
        local = run_experiment("fig13", ResultStore(tmp_path / "ref"),
                               TINY)
        assert stats == local.stats

    def test_status_remote_reports_daemon_coverage(self, server, capsys):
        scale = ["--accesses", "120", "--warmup", "40",
                 "--mix-accesses", "80"]
        assert main(["status", "--remote", server.address] + scale) == 0
        out = capsys.readouterr().out
        assert "daemon @" in out and "fig13" in out

    def test_figures_remote_lists_experiments(self, server, capsys):
        assert main(["figures", "--remote", server.address]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_stats_remote_renders_one_daemon(self, server, capsys):
        """A lone daemon is a fleet of one: ``stats`` prints its member
        block (pool, store) and the summed counters."""
        assert main(["run", "fig13", "--remote", server.address,
                     "--accesses", "120", "--warmup", "40",
                     "--mix-accesses", "80"]) == 0
        capsys.readouterr()
        assert main(["stats", "--remote", server.address]) == 0
        out = capsys.readouterr().out
        assert "1/1 members reachable" in out
        assert "pool            :     thread (in-process)" in out
        assert "store           :" in out and "puts)" in out
        assert "claims            :" in out
        assert main(["stats", "--remote", server.address, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["members"][0]["pool"]["type"] == "thread"
        counters = payload["counters"]
        assert counters["claims_won"] == counters["simulations"] > 0

    def test_non_json_peer_is_a_service_error_not_a_crash(self, capsys):
        """A foreign server (e.g. HTTP) answering garbage must surface as
        the CLI's clean error message, not a JSONDecodeError traceback."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def answer_like_http():
            conn, _ = listener.accept()
            conn.recv(4096)
            conn.sendall(b"HTTP/1.1 400 Bad Request\r\n\r\n")
            conn.close()

        thread = threading.Thread(target=answer_like_http, daemon=True)
        thread.start()
        try:
            assert main(["run", "fig13", "--remote",
                         f"127.0.0.1:{port}"]) == 1
            err = capsys.readouterr().err
            assert "cannot run against daemon" in err
            assert "non-JSON" in err
        finally:
            thread.join(timeout=10.0)
            listener.close()

    def test_remote_unreachable_is_a_clean_error(self, tmp_path, capsys):
        # Grab a port nothing is listening on.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["run", "fig13", "--remote", f"127.0.0.1:{port}"]) == 1
        assert "cannot run against daemon" in capsys.readouterr().err
        assert main(["status", "--remote", f"127.0.0.1:{port}"]) == 1
        assert "cannot query daemon" in capsys.readouterr().err
