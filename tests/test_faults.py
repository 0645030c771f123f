"""The chaos harness: deterministic fault injection and the recovery paths.

The contract every test here pins down: **faults may cost retries, never
correctness**.  Injected disk errors, torn writes, crashing/killed workers
and dropped connections must leave final results bit-identical to a clean
run — the golden grid under a nonzero fault schedule matches
``GOLDEN_stats.json`` exactly — while the recovery work (retries, put
retries, quarantine, reconnects) shows up honestly in counters.
"""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import faults
from repro.experiments import EXPERIMENTS, Scale, canonical_json
from repro.faults import (
    FaultPlane,
    FaultSpecError,
    InjectedCrashError,
    fault_point,
    parse_schedule,
)
from repro.service import (
    ServiceClient,
    ServiceError,
    SimulationService,
    create_server,
    job_from_wire,
    serve_forever,
)
from repro.sim.engine import SimulationEngine, SimulationJob
from repro.sim.store import ResultStore, fsck_store, serialize_result

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_STATS = REPO_ROOT / "GOLDEN_stats.json"

TINY = Scale(accesses=120, warmup=40, mix_accesses=80)
TINY_WIRE = {"accesses": 120, "warmup": 40, "mix_accesses": 80}


#: The test process; a job that kills its worker must never run here.
_TEST_PID = os.getpid()


def _execute_unless_lp(job, trace_cache=None):
    """``execute_job``, except that an ``lp`` job kills its worker process
    (in the test's own process, where that would end the run, it raises
    instead, which the test reports)."""
    from repro.sim.engine import execute_job

    if job.predictor != "lp":
        return execute_job(job, trace_cache)
    if os.getpid() == _TEST_PID:
        raise AssertionError("the killing job ran in the daemon's process")
    os._exit(86)


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    """Every test starts with no plane and a cleared environment."""
    monkeypatch.delenv(faults.REPRO_FAULTS_ENV, raising=False)
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    faults.uninstall()
    yield
    faults.uninstall()


# ======================================================================
# Schedule grammar
# ======================================================================
class TestSpecParsing:
    def test_round_trip(self):
        spec = ("store.append:eio@p=0.05,seed=7;"
                "worker.job:crash@seed=3,times=5;"
                "service.response:drop;"
                "store.read:latency@ms=50.0")
        rules = parse_schedule(spec)
        assert [rule.spec() for rule in rules] == [
            "store.append:eio@p=0.05,seed=7",
            "worker.job:crash@seed=3,times=5",
            "service.response:drop",
            "store.read:latency@ms=50.0",
        ]

    def test_whitespace_and_blank_entries_are_tolerated(self):
        rules = parse_schedule("  store.read:eio ;; \n worker.job:kill ")
        assert [(rule.site, rule.kind) for rule in rules] == [
            ("store.read", "eio"), ("worker.job", "kill")]

    @pytest.mark.parametrize("bad", [
        "nosuchsite:eio",
        "store.append:nosuchkind",
        "store.append",
        "store.append:eio@p=nope",
        "store.append:eio@frobnicate=1",
        "store.append:eio@p=1.5",
        "store.append:eio@times=-1",
    ])
    def test_malformed_schedules_fail_loudly(self, bad):
        with pytest.raises(FaultSpecError):
            parse_schedule(bad)

    def test_unset_env_means_no_plane_and_no_overhead(self, monkeypatch):
        monkeypatch.delenv(faults.REPRO_FAULTS_ENV, raising=False)
        faults.uninstall()
        assert faults.active_plane() is None
        assert fault_point("store.append", 100) is None
        assert faults.counters_snapshot() == {}

    def test_env_schedule_is_resolved_lazily_once(self, monkeypatch):
        monkeypatch.setenv(faults.REPRO_FAULTS_ENV,
                           "store.read:eio@times=1")
        faults.uninstall()
        with pytest.raises(OSError):
            fault_point("store.read")
        # times=1 exhausted: the same memoized plane answers quietly now.
        assert fault_point("store.read") is None


class TestDeterminism:
    def test_same_seed_same_firing_sequence(self):
        def firing_pattern(seed):
            plane = FaultPlane.from_spec(
                f"worker.job:crash@p=0.3,seed={seed}")
            pattern = []
            for _ in range(64):
                try:
                    plane.check("worker.job")
                    pattern.append(False)
                except InjectedCrashError:
                    pattern.append(True)
            return pattern

        assert firing_pattern(7) == firing_pattern(7)
        assert firing_pattern(7) != firing_pattern(8)

    def test_times_and_after_bound_the_fires(self):
        plane = FaultPlane.from_spec("store.read:eio@times=2,after=3")
        outcomes = []
        for _ in range(10):
            try:
                plane.check("store.read")
                outcomes.append("ok")
            except OSError:
                outcomes.append("eio")
        assert outcomes == ["ok"] * 3 + ["eio"] * 2 + ["ok"] * 5

    def test_counters_track_evaluations_and_fires(self):
        plane = FaultPlane.from_spec("client.connect:drop@p=0.5,seed=1")
        for _ in range(40):
            try:
                plane.check("client.connect")
            except ConnectionResetError:
                pass
        (counts,) = plane.counters().values()
        assert counts["evaluated"] == 40
        assert 0 < counts["fired"] < 40
        assert plane.total_fired() == counts["fired"]


# ======================================================================
# Store hooks: append (EIO / torn) and read
# ======================================================================
def _tiny_result():
    job = SimulationJob(workload="gups", predictor="lp", num_accesses=60,
                        warmup_accesses=20)
    return SimulationEngine(jobs=1, store=False).run([job])[0]


class TestStoreFaults:
    def test_eio_append_propagates_and_store_stays_loadable(self, tmp_path):
        result = _tiny_result()
        store = ResultStore(tmp_path)
        store.put("aa" * 32, {"n": 0}, result)
        faults.install("store.append:eio@times=1")
        with pytest.raises(OSError) as excinfo:
            store.put("bb" * 32, {"n": 1}, result)
        assert excinfo.value.errno == errno.EIO
        # The shard holds the first entry untouched; retrying succeeds.
        store.put("bb" * 32, {"n": 1}, result)
        fresh = ResultStore(tmp_path)
        assert set(fresh.keys()) == {"aa" * 32, "bb" * 32}
        assert fresh.get("bb" * 32) == result

    def test_torn_append_is_repaired_by_the_next_locked_write(
            self, tmp_path):
        result = _tiny_result()
        store = ResultStore(tmp_path)
        store.put("aa" * 32, {"n": 0}, result)
        faults.install("store.append:torn@seed=3,times=1")
        with pytest.raises(OSError):
            store.put("bb" * 32, {"n": 1}, result)
        # The torn prefix is on disk: a fresh open skips it with a
        # warning, and the next locked append truncates it in place.
        salvage = ResultStore(tmp_path)
        assert set(salvage.keys()) == {"aa" * 32}
        store.put("bb" * 32, {"n": 1}, result)
        fresh = ResultStore(tmp_path)
        assert set(fresh.keys()) == {"aa" * 32, "bb" * 32}
        assert fresh.get("bb" * 32) == result
        report = fsck_store(tmp_path)
        assert report["torn"] == report["corrupt"] == 0
        assert report["kept"] == 2

    def test_read_fault_degrades_to_a_miss(self, tmp_path, caplog):
        result = _tiny_result()
        ResultStore(tmp_path).put("cc" * 32, {"n": 2}, result)
        fresh = ResultStore(tmp_path)  # cold in-memory cache: disk read
        faults.install("store.read:eio@times=1")
        assert fresh.get("cc" * 32) is None
        assert fresh.misses == 1
        assert "treating as a miss" in caplog.text
        # The entry is intact; the next read (no fault) serves it.
        assert fresh.get("cc" * 32) == result

    def test_engine_retries_the_put_and_loses_nothing(self, tmp_path):
        plane = faults.install("store.append:eio@times=1")
        engine = SimulationEngine(jobs=1, store=tmp_path / "store")
        job = SimulationJob(workload="gups", predictor="lp",
                            num_accesses=60, warmup_accesses=20)
        (result,) = engine.run([job])
        assert plane.total_fired() == 1
        # The retried append landed: a rerun is a pure store hit.
        faults.uninstall()
        rerun = SimulationEngine(jobs=1, store=tmp_path / "store")
        assert rerun.run([job]) == [result]
        assert rerun.store.hits == 1


# ======================================================================
# Engine: crashing and killed workers
# ======================================================================
class TestEngineFaults:
    def test_injected_crash_escapes_execute_job(self):
        faults.install("worker.job:crash@times=1")
        job = SimulationJob(workload="gups", predictor="lp",
                            num_accesses=40)
        with pytest.raises(InjectedCrashError):
            SimulationEngine(jobs=1, store=False).run([job])

    def test_kill_is_inert_outside_worker_children(self):
        faults.install("worker.job:kill@times=1")
        job = SimulationJob(workload="gups", predictor="lp",
                            num_accesses=40)
        # Must not exit this process; must not raise either.
        (result,) = SimulationEngine(jobs=1, store=False).run([job])
        assert result is not None

    def test_kill_is_inert_in_a_forked_daemon(self):
        """A ``fleet`` member is a forked child but no pool worker: a
        ``kill`` rule must not end it."""
        faults.install("worker.job:kill@times=1")
        job = SimulationJob(workload="gups", predictor="lp",
                            num_accesses=40)
        child = multiprocessing.get_context("fork").Process(
            target=SimulationEngine(jobs=1, store=False).run, args=([job],))
        child.start()
        child.join(timeout=60.0)
        assert child.exitcode == 0

    @pytest.mark.slow
    def test_killed_pool_workers_fail_over_to_serial(self, monkeypatch):
        """worker.job:kill takes every pool child down; once two jobs in
        a row have killed their worker running alone the pool falls back,
        and the grid finishes on in-process threads with bit-identical
        results."""
        jobs = [SimulationJob(workload=workload, predictor=predictor,
                              num_accesses=60, warmup_accesses=20)
                for workload in ("gups", "stream")
                for predictor in ("baseline", "lp")]
        reference = SimulationEngine(jobs=1, store=False).run(jobs)

        monkeypatch.setenv(faults.REPRO_FAULTS_ENV,
                           "worker.job:kill@p=1.0")
        faults.uninstall()  # re-resolve from the env (children inherit)
        results = SimulationEngine(jobs=2, store=False).run(jobs)
        # The failover count is checked on the daemon, which runs this
        # grid: see test_killed_daemon_workers_fall_back_to_threads.
        assert results == reference


# ======================================================================
# Service: per-job retry, quarantine, admission, degraded mode
# ======================================================================
class TestServiceRecovery:
    def test_killed_daemon_workers_fall_back_to_threads(
            self, tmp_path, monkeypatch):
        """The daemon's pool rides out workers that die on every job: the
        grid ends ``done`` with results bit-identical to a serial run."""
        specs = [{"workload": "gups", "predictor": predictor,
                  "num_accesses": 60, "warmup_accesses": 20}
                 for predictor in ("baseline", "lp")]
        reference = SimulationEngine(jobs=1, store=False).run(
            [job_from_wire(spec) for spec in specs])

        monkeypatch.setenv(faults.REPRO_FAULTS_ENV,
                           "worker.job:kill@p=1.0")
        faults.uninstall()  # re-resolve from the env (children inherit)
        service = SimulationService(tmp_path / "store", jobs=2,
                                    pool="process")
        try:
            pool = service.stats()["pool"]
            if pool["type"] != "process":
                pytest.skip("process pool unavailable on this host: "
                            f"{pool['fallback_reason']}")
            payload = service.submit(jobs=specs, wait=True)
            pool = service.stats()["pool"]
        finally:
            service.close()
        assert payload["state"] == "done", payload.get("failed_jobs")
        assert payload["results"] == [serialize_result(result)
                                      for result in reference]
        assert pool["type"] == "thread"
        assert "keep dying" in pool["fallback_reason"]
        # Replaced pools: a first break with two jobs on it (unless the
        # first job died before the second started), the first job dying
        # alone twice, then the thread fallback when a second job dies
        # alone.
        assert pool["failovers"] in (3, 4)
        assert service.counters["quarantined"] == 0

    def test_a_job_that_kills_its_worker_is_quarantined(
            self, tmp_path, monkeypatch):
        """A job whose worker dies every time it runs (a segfault, the OOM
        killer) uses up its retry budget and is quarantined on process
        workers; it never runs in the daemon's own process, and the
        daemon keeps serving on process workers."""
        import repro.service as service_module

        poison = {"workload": "gups", "predictor": "lp",
                  "num_accesses": 60, "warmup_accesses": 20}
        sibling = dict(poison, predictor="baseline")
        monkeypatch.setattr(service_module, "execute_job",
                            _execute_unless_lp)
        service = SimulationService(tmp_path / "store", jobs=2,
                                    pool="process")
        try:
            if service.stats()["pool"]["type"] != "process":
                pytest.skip("process pool unavailable on this host")
            payload = service.submit(jobs=[sibling, poison], wait=True)
            (failure,) = payload["failed_jobs"]
            again = service.submit(jobs=[poison], wait=True)
            healthy = service.submit(
                jobs=[dict(sibling, seed=1)], wait=True)
            stats = service.stats()
        finally:
            service.close()
        assert payload["state"] == "failed"
        assert failure["index"] == 1 and failure["code"] == "job_failed"
        assert "BrokenProcessPool" in failure["error"]
        assert payload["completed"] == 1  # the sibling finished
        assert service.counters["retries"] == 2
        assert service.counters["quarantined"] == 1
        assert again["failed_jobs"][0]["code"] == "quarantined"
        assert healthy["state"] == "done"
        assert stats["pool"]["type"] == "process"
        assert stats["pool"]["fallback_reason"] is None

    def test_crashing_jobs_are_retried_to_success(self, tmp_path):
        faults.install("worker.job:crash@times=2")
        service = SimulationService(tmp_path / "store", jobs=2,
                                    pool="thread")
        try:
            payload = service.submit(experiment="golden", wait=True)
        finally:
            service.close()
        assert payload["state"] == "done"
        assert service.counters["retries"] == 2
        assert service.counters["job_failures"] == 0
        assert service.counters["quarantined"] == 0

    def test_persistent_failure_quarantines_only_that_job(
            self, tmp_path, monkeypatch):
        import repro.service as service_module

        spec = {"workload": "gups", "predictor": "lp", "num_accesses": 40}
        sibling = {"workload": "stream", "predictor": "lp",
                   "num_accesses": 40}
        real_execute = service_module.execute_job

        def poisoned(job, trace_cache=None):
            if getattr(job, "workload", None) == "gups":
                raise RuntimeError("persistent gups failure")
            return real_execute(job, trace_cache)

        monkeypatch.setattr(service_module, "execute_job", poisoned)
        service = SimulationService(tmp_path / "store", jobs=1,
                                    job_retries=2, pool="thread")
        try:
            payload = service.submit(jobs=[spec, sibling], wait=True)
            assert payload["state"] == "failed"
            (failure,) = payload["failed_jobs"]
            assert failure["index"] == 0
            assert failure["code"] == "job_failed"
            assert "persistent gups failure" in failure["error"]
            # The sibling completed and persisted despite the failure.
            assert payload["completed"] == 1
            assert service.store.puts == 1
            assert service.counters["retries"] == 1
            assert service.counters["quarantined"] == 1
            # Resubmitting fails fast on the poisoned key — no retries.
            retries_before = service.counters["retries"]
            again = service.submit(jobs=[spec], wait=True)
            assert again["state"] == "failed"
            assert again["failed_jobs"][0]["code"] == "quarantined"
            assert service.counters["retries"] == retries_before
            # force clears the quarantine and retries for real.
            monkeypatch.setattr(service_module, "execute_job",
                                real_execute)
            forced = service.submit(jobs=[spec], force=True, wait=True)
            assert forced["state"] == "done"
            assert service.status()["quarantine"] == {}
        finally:
            service.close()

    def test_hung_job_hits_the_deadline_and_recovers(
            self, tmp_path, monkeypatch):
        import repro.service as service_module

        real_execute = service_module.execute_job
        hung_once = threading.Event()
        release = threading.Event()

        def sleepy(job, trace_cache=None):
            if not hung_once.is_set():
                hung_once.set()
                release.wait(30.0)
            return real_execute(job, trace_cache)

        monkeypatch.setattr(service_module, "execute_job", sleepy)
        service = SimulationService(tmp_path / "store", jobs=2,
                                    job_timeout=0.5, pool="thread")
        spec = {"workload": "gups", "predictor": "lp", "num_accesses": 40}
        try:
            start = time.monotonic()
            payload = service.submit(jobs=[spec], wait=True)
            seconds = time.monotonic() - start
        finally:
            _release_and_close(service, release)
        assert payload["state"] == "done"
        assert seconds < 20.0  # did not wait out the hung attempt
        assert service.counters["retries"] >= 1

    def test_admission_control_sheds_with_a_retryable_error(
            self, tmp_path, monkeypatch):
        import repro.service as service_module

        release = threading.Event()
        started = threading.Event()

        def stuck(job, trace_cache=None):
            started.set()
            release.wait(30.0)
            raise RuntimeError("never completes meaningfully")

        monkeypatch.setattr(service_module, "execute_job", stuck)
        service = SimulationService(tmp_path / "store", jobs=1,
                                    max_queue=1, job_retries=1,
                                    pool="thread")
        spec = {"workload": "gups", "predictor": "lp", "num_accesses": 40}
        try:
            service.submit(jobs=[spec])
            assert started.wait(10.0)
            with pytest.raises(ServiceError) as excinfo:
                service.submit(jobs=[dict(spec, seed=1)])
            assert excinfo.value.code == "overloaded"
            assert excinfo.value.retryable
            assert service.counters["shed"] == 1
        finally:
            release.set()
            service.close(wait=False)

    def test_unwritable_store_flips_to_degraded_readonly(self, tmp_path):
        store_root = tmp_path / "store"
        warm = SimulationService(store_root, jobs=2)
        try:
            warm.submit(experiment="golden", wait=True)
        finally:
            warm.close()

        # Every append now fails hard: the first cold put exhausts the
        # retry budget and flips the daemon into degraded mode...
        faults.install("store.append:enospc")
        service = SimulationService(store_root, jobs=2)
        spec = {"workload": "gups", "predictor": "lp", "num_accesses": 48}
        try:
            payload = service.submit(jobs=[spec], wait=True)
            # ...but the computed result still flowed back to the caller.
            assert payload["state"] == "done"
            assert service.degraded
            assert service.counters["put_failures"] == 1
            assert service.health()["status"] == "degraded"
            # Warm answers keep flowing (golden is fully stored)...
            again = service.submit(experiment="golden", wait=True)
            assert again["state"] == "done"
            assert again["stored"] == again["total_jobs"]
            # ...while cold grids and force are refused honestly.
            with pytest.raises(ServiceError) as excinfo:
                service.submit(jobs=[dict(spec, seed=9)])
            assert excinfo.value.code == "degraded"
            with pytest.raises(ServiceError):
                service.submit(experiment="golden", force=True)
        finally:
            service.close(wait=False)


# ======================================================================
# Client: deadlines, reconnect, no hangs
# ======================================================================
def _blocked_until(release: threading.Event):
    """An ``execute_job`` stand-in that holds its worker until released.

    Released attempts fail instead of returning, so nothing is persisted
    after the test: a worker that outlives its test would otherwise store
    its job while a later test is running.
    """
    def blocked(job, trace_cache=None):
        release.wait(60.0)
        raise RuntimeError("released by the test")
    return blocked


def _release_and_close(service: SimulationService,
                       release: threading.Event) -> None:
    """Unblock the stub workers, then join every thread of ``service``."""
    release.set()
    service.close(wait=True)
    leftovers = [thread.name for thread in threading.enumerate()
                 if thread.name.startswith("repro-service-")
                 and thread.is_alive()]
    assert leftovers == []


class TestClientResilience:
    def test_dead_daemon_raises_retryable_connection_error(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here any more
        client = ServiceClient(f"127.0.0.1:{port}", timeout=1.0,
                               retries=2, backoff=0.01)
        start = time.monotonic()
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert time.monotonic() - start < 10.0
        assert excinfo.value.code == "connection"
        assert excinfo.value.retryable
        assert isinstance(excinfo.value, OSError)  # legacy catch style

    def test_silent_daemon_times_out_instead_of_hanging(self):
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        accepted = []

        def accept_and_stall():
            conn, _ = server.accept()
            accepted.append(conn)  # read nothing, answer nothing

        threads = [threading.Thread(target=accept_and_stall, daemon=True)
                   for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            client = ServiceClient(
                f"127.0.0.1:{server.getsockname()[1]}", timeout=0.3,
                retries=2, backoff=0.01)
            start = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                client.stats()
            assert time.monotonic() - start < 10.0
            assert excinfo.value.code == "timeout"
            assert excinfo.value.retryable
        finally:
            for conn in accepted:
                conn.close()
            server.close()

    def test_result_wait_survives_daemon_death_mid_request(
            self, tmp_path, monkeypatch):
        """The satellite bug: result(wait=True) must not hang forever
        when the daemon dies mid-request."""
        import repro.service as service_module

        release = threading.Event()
        monkeypatch.setattr(service_module, "execute_job",
                            _blocked_until(release))
        monkeypatch.setattr(ServiceClient, "WAIT_CHUNK", 0.2)
        service = SimulationService(tmp_path / "store", jobs=1,
                                    pool="thread")
        try:
            server, address = create_server(service, port=0)
            thread = threading.Thread(target=serve_forever,
                                      args=(service, server), daemon=True)
            thread.start()
            client = ServiceClient(address, timeout=5.0, retries=2,
                                   backoff=0.01)
            client.wait_healthy()
            spec = {"workload": "gups", "predictor": "lp",
                    "num_accesses": 40}
            submitted = client.submit(jobs=[spec])
            killer = threading.Timer(0.5, server.request_shutdown)
            killer.start()
            start = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                client.result(submitted["id"], wait=True, timeout=30.0)
            assert time.monotonic() - start < 25.0
            assert excinfo.value.retryable
            assert excinfo.value.code in ("connection", "timeout")
            killer.cancel()
            thread.join(timeout=10.0)
        finally:
            _release_and_close(service, release)

    def test_result_wait_honors_the_overall_timeout(
            self, tmp_path, monkeypatch):
        import repro.service as service_module

        release = threading.Event()
        monkeypatch.setattr(service_module, "execute_job",
                            _blocked_until(release))
        monkeypatch.setattr(ServiceClient, "WAIT_CHUNK", 0.2)
        service = SimulationService(tmp_path / "store", jobs=1,
                                    pool="thread")
        try:
            submitted = service.submit(jobs=[{
                "workload": "gups", "predictor": "lp",
                "num_accesses": 40}])
            server, address = create_server(service, port=0)
            thread = threading.Thread(target=serve_forever,
                                      args=(service, server), daemon=True)
            thread.start()
            client = ServiceClient(address, timeout=5.0)
            client.wait_healthy()
            start = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                client.result(submitted["id"], wait=True, timeout=1.0)
            assert excinfo.value.code == "timeout"
            assert 0.5 < time.monotonic() - start < 10.0
            server.request_shutdown()
            thread.join(timeout=10.0)
        finally:
            _release_and_close(service, release)

    def test_dropped_responses_are_retried_transparently(self, tmp_path):
        faults.install("service.response:drop@times=1")
        service = SimulationService(tmp_path / "store", jobs=1)
        server, address = create_server(service, port=0)
        thread = threading.Thread(target=serve_forever,
                                  args=(service, server), daemon=True)
        thread.start()
        try:
            client = ServiceClient(address, timeout=10.0, backoff=0.01)
            # First response is dropped mid-flight; the retry answers.
            assert client.health()["status"] == "ok"
        finally:
            server.request_shutdown()
            thread.join(timeout=10.0)
            service.close(wait=False)

    def test_connect_faults_exhaust_into_connection_error(self, tmp_path):
        faults.install("client.connect:drop")
        client = ServiceClient("127.0.0.1:1", timeout=0.2, retries=2,
                               backoff=0.01)
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.code == "connection"


# ======================================================================
# The chaos harness: golden grid under fire, bit-identical stats
# ======================================================================
#: A deliberately noisy but convergent schedule: every kind of fault
#: fires (deterministically, a bounded number of times) and every
#: recovery path runs, yet retries always win in the end.
CHAOS_SCHEDULE = (
    "store.append:eio@times=2;"
    "store.append:torn@seed=5,times=1,after=4;"
    "worker.job:crash@times=2;"
    "worker.job:crash@p=0.2,seed=11,times=2,after=8;"
    "store.read:eio@times=1;"
    "service.response:drop@times=2;"
    "client.connect:drop@times=1,after=2"
)


class TestChaosGolden:
    def test_golden_grid_under_chaos_matches_golden_stats(self, tmp_path):
        """The acceptance criterion: injected store EIO/torn appends,
        crashing workers, unreadable entries and dropped connections cost
        retries — and the golden stats stay bit-identical."""
        reference = json.loads(GOLDEN_STATS.read_text(encoding="utf-8"))
        faults.install(CHAOS_SCHEDULE)
        service = SimulationService(tmp_path / "store", jobs=2,
                                    pool="thread")
        server, address = create_server(service, port=0)
        thread = threading.Thread(target=serve_forever,
                                  args=(service, server), daemon=True)
        thread.start()
        try:
            client = ServiceClient(address, timeout=60.0, backoff=0.01)
            client.wait_healthy()
            payload = client.submit(experiment="golden", wait=True)
            assert payload["state"] == "done"
            assert payload["stats"] == reference
            # A second (warm) pass under the same plane also matches.
            again = client.submit(experiment="golden", wait=True)
            assert again["state"] == "done"
            assert again["stats"] == reference
            stats = client.stats()
            assert stats["counters"]["retries"] > 0
            assert stats["counters"]["put_retries"] > 0
            assert stats["counters"]["job_failures"] == 0
            assert stats["counters"]["quarantined"] == 0
            assert not stats["degraded"]
            fired = sum(counts["fired"]
                        for counts in stats["faults"].values())
            assert fired >= 5
        finally:
            server.request_shutdown()
            thread.join(timeout=15.0)
            service.close(wait=False)
        # The store the chaos run left behind is structurally sound.
        report = fsck_store(tmp_path / "store")
        assert report["torn"] == report["corrupt"] == 0
        # And a clean serial run agrees with everything persisted.  The
        # plane goes first: an unspent fault would make this rerun simulate
        # (see test_unreadable_stored_entry_counts_as_a_simulation).
        faults.uninstall()
        rerun = SimulationService(tmp_path / "store", jobs=1,
                                    pool="thread")
        try:
            warm = rerun.submit(experiment="golden", wait=True)
            assert warm["stats"] == reference
            assert warm["simulated"] == 0
        finally:
            rerun.close()

    def test_unreadable_stored_entry_counts_as_a_simulation(self, tmp_path):
        """A stored entry whose read fails is simulated again, persisted
        and reported as a simulation, not as a store hit."""
        reference = json.loads(GOLDEN_STATS.read_text(encoding="utf-8"))
        populate = SimulationService(tmp_path / "store", jobs=2,
                                     pool="thread")
        try:
            assert populate.submit(experiment="golden",
                                   wait=True)["stats"] == reference
        finally:
            populate.close()
        faults.install("store.read:eio@times=1")
        service = SimulationService(tmp_path / "store", jobs=2,
                                    pool="thread")
        try:
            payload = service.submit(experiment="golden", wait=True)
            assert payload["state"] == "done"
            assert (payload["stored"], payload["simulated"]) == (29, 1)
            counters = service.stats()["counters"]
            assert (counters["store_hits"], counters["simulations"]) \
                == (29, 1)
            assert payload["stats"] == reference
            assert service.store.total_lines() == 31
        finally:
            service.close()

    def test_zero_overhead_claim_is_structural(self):
        """With no plane installed, fault_point is one load + one check
        (no allocation, no lock): assert the fast path stays trivially
        cheap relative to the armed path."""
        faults.uninstall()
        iterations = 200_000
        start = time.perf_counter()
        for _ in range(iterations):
            fault_point("store.append", 128)
        off_seconds = time.perf_counter() - start
        per_call_ns = off_seconds / iterations * 1e9
        # Generous bound: even slow CI boxes do an attribute check in
        # well under 2 microseconds.
        assert per_call_ns < 2000


# ======================================================================
# Multiprocess regression: torn appends across writer processes
# ======================================================================
_FAULTY_WRITER = """
import hashlib
import json
import os
import sys

from repro.sim.store import ResultStore, deserialize_result

root, writer_id, encoded_path, puts = sys.argv[1:5]
with open(encoded_path, encoding="utf-8") as handle:
    result = deserialize_result(json.load(handle))
store = ResultStore(root)
failures = 0
for index in range(int(puts)):
    key = hashlib.sha256(f"{writer_id}:{index}".encode()).hexdigest()
    for attempt in range(4):
        try:
            store.put(key, {"writer": writer_id, "index": index}, result)
            break
        except OSError:
            failures += 1
    else:
        raise SystemExit(f"writer {writer_id}: put {index} never landed")
print(failures)
"""


@pytest.mark.slow
def test_concurrent_writers_survive_injected_append_faults(tmp_path):
    """N writer processes, each under its own EIO/torn append schedule:
    every entry must land (after retries) and the store must fsck clean —
    the multiprocess companion to tests/test_store_concurrency.py."""
    from repro.sim.store import serialize_result

    result = _tiny_result()
    encoded_path = tmp_path / "result.json"
    encoded_path.write_text(json.dumps(serialize_result(result)),
                            encoding="utf-8")
    root = tmp_path / "store"
    writers, puts_per_writer = 3, 8
    src = REPO_ROOT / "src"

    processes = []
    for writer in range(writers):
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("REPRO_STORE", None)
        env.pop("REPRO_JOBS", None)
        # A distinct deterministic schedule per writer: sparse EIO and
        # one torn write each, all mid-stream.
        env[faults.REPRO_FAULTS_ENV] = (
            f"store.append:eio@p=0.3,seed={writer + 1},times=3;"
            f"store.append:torn@p=0.3,seed={writer + 101},times=2")
        processes.append(subprocess.Popen(
            [sys.executable, "-c", _FAULTY_WRITER, str(root), str(writer),
             str(encoded_path), str(puts_per_writer)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    total_failures = 0
    for process in processes:
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stderr.decode()
        total_failures += int(stdout.decode().strip() or 0)
    assert total_failures > 0  # the schedules actually fired

    import hashlib
    store = ResultStore(root)
    expected = {
        hashlib.sha256(f"{writer}:{index}".encode()).hexdigest()
        for writer in range(writers) for index in range(puts_per_writer)
    }
    assert set(store.keys()) == expected
    assert all(store.get(key) == result for key in expected)
    report = fsck_store(root)
    assert report["torn"] == report["corrupt"] == report["foreign"] == 0
    assert report["kept"] >= writers * puts_per_writer
