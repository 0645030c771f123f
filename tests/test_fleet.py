"""Tests for fleet serving: claim records, cross-daemon dedup, FleetClient.

The contract under test (see README "Fleet serving"):

* a per-job-key claim is won by exactly one daemon; losers poll the
  shared store instead of recomputing, so a cold grid submitted to N
  daemons at once performs each simulation exactly once fleet-wide;
* a claim whose owner died is detected as stale (same-host pid probe,
  foreign-host TTL) and broken, so a crashed owner never wedges the
  fleet;
* the claim layer is an optimisation, never a correctness gate — the
  locked shard appends stay safe (and the store byte-exact) without it;
* :class:`repro.service.FleetClient` routes by job-key hash, fails over
  on ``connection``/``timeout``/``overloaded`` errors, and aggregates
  ``stats``/``health`` across the members.
"""

from __future__ import annotations

import json
import os
import signal
import socket as socket_module
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.service as service_module
import repro.sim.store as store_module
from repro.api import connect
from repro.experiments import EXPERIMENTS, Scale
from repro.service import (
    FleetClient,
    ServiceClient,
    ServiceError,
    SimulationService,
    create_server,
    serve_forever,
)
from repro.sim.engine import SimulationEngine, SimulationJob
from repro.sim.store import (
    ResultStore,
    _start_time,
    fsck_store,
    job_key,
    job_spec,
)

from proc_helpers import alive, parent_of, running_with_argument

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

TINY_WIRE = {"accesses": 120, "warmup": 40, "mix_accesses": 80}
TINY = Scale(accesses=120, warmup=40, mix_accesses=80)

SINGLE_SPEC = {"workload": "gups", "predictor": "baseline",
               "num_accesses": 60, "warmup_accesses": 20, "seed": 0}
SINGLE_JOB = SimulationJob(workload="gups", predictor="baseline",
                           num_accesses=60, warmup_accesses=20, seed=0)


@pytest.fixture(autouse=True)
def _isolated_env(monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)


@pytest.fixture(scope="module")
def tiny_result():
    return SimulationEngine(jobs=1, store=False).run([SINGLE_JOB])[0]


def _plant_dead_owner_claim(store: ResultStore, key: str) -> None:
    """A claim on ``key`` whose owner (a reaped subprocess) is dead."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    assert store.claim(key)
    path = store._claim_path(key)
    entry = json.loads(path.read_text(encoding="utf-8"))
    entry["pid"] = child.pid
    path.write_text(json.dumps(entry), encoding="utf-8")


# ======================================================================
# Claim records (store layer)
# ======================================================================
class TestClaims:
    def test_fsck_reaps_the_claims_of_stored_keys(self, tmp_path,
                                                   tiny_result):
        store = ResultStore(tmp_path)
        key = job_key(SINGLE_JOB)
        store.put(key, job_spec(SINGLE_JOB), tiny_result)
        _plant_dead_owner_claim(store, key)
        assert store.claim("ab" * 32)  # an unstored key keeps its claim
        report = fsck_store(tmp_path)
        assert report["claims_reaped"] == 1
        assert report["kept"] == 1
        assert store.active_claims() == ["ab" * 32]
        assert fsck_store(tmp_path)["claims_reaped"] == 0

    def test_claim_is_exclusive(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.claim("ab" * 32) is True
        assert store.claim("ab" * 32) is False

    def test_release_allows_reclaim(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "cd" * 32
        assert store.claim(key)
        store.release_claim(key)
        assert store.claim(key)

    def test_release_is_idempotent(self, tmp_path):
        ResultStore(tmp_path).release_claim("ef" * 32)  # no claim, no raise

    def test_read_claim_record_fields(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "12" * 32
        store.claim(key, owner="daemon-7")
        entry = store.read_claim(key)
        assert entry["key"] == key
        assert entry["pid"] == os.getpid()
        assert entry["owner"] == "daemon-7"
        assert isinstance(entry["time"], float)

    def test_read_claim_missing_is_none(self, tmp_path):
        assert ResultStore(tmp_path).read_claim("34" * 32) is None

    def test_corrupt_claim_reads_empty_and_is_stale(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "56" * 32
        store.claim(key)
        store._claim_path(key).write_text("not json", encoding="utf-8")
        entry = store.read_claim(key)
        assert entry == {}
        assert store.claim_is_stale(entry) is True

    def test_live_same_host_claim_is_not_stale(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "78" * 32
        store.claim(key)
        assert store.claim_is_stale(store.read_claim(key)) is False

    def test_dead_pid_claim_is_stale(self, tmp_path):
        # A claim from a process that no longer exists: probe the pid of
        # a subprocess we already reaped.
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        store = ResultStore(tmp_path)
        key = "9a" * 32
        store.claim(key)
        path = store._claim_path(key)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["pid"] = child.pid
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert store.claim_is_stale(store.read_claim(key)) is True

    def test_own_pid_claim_of_an_earlier_process_is_stale(self, tmp_path):
        # A daemon restarted in the same container usually gets its
        # predecessor's pid (PID 1): a leftover claim under our pid but
        # another process's token belongs to the dead incarnation.
        store = ResultStore(tmp_path)
        key = "ab" * 32
        store.claim(key)
        path = store._claim_path(key)
        entry = json.loads(path.read_text(encoding="utf-8"))
        assert entry["pid"] == os.getpid()
        entry["token"] = "0" * 32
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert store.claim_is_stale(store.read_claim(key)) is True
        del entry["token"]  # a record written without a token
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert store.claim_is_stale(store.read_claim(key)) is True

    @pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/stat"),
                        reason="needs /proc for process start times")
    def test_recycled_pid_claim_is_stale(self, tmp_path):
        # A live process whose start time differs from the record's has
        # reused a dead owner's pid; a matching start time is the owner.
        child = subprocess.Popen([sys.executable, "-c",
                                  "import time; time.sleep(60)"])
        try:
            store = ResultStore(tmp_path)
            key = "cd" * 32
            store.claim(key)
            path = store._claim_path(key)
            entry = json.loads(path.read_text(encoding="utf-8"))
            entry["pid"] = child.pid
            entry["start"] = _start_time(child.pid)
            path.write_text(json.dumps(entry), encoding="utf-8")
            assert store.claim_is_stale(store.read_claim(key)) is False
            entry["start"] = "1"
            path.write_text(json.dumps(entry), encoding="utf-8")
            assert store.claim_is_stale(store.read_claim(key)) is True
        finally:
            child.kill()
            child.wait()

    def test_concurrent_first_claims_mint_one_token(self, monkeypatch):
        # A slow start-time probe widens the window in which threads
        # making a process's first claims could each mint a token.
        def slow_start_time(pid):
            time.sleep(0.05)
            return real_start_time(pid)

        real_start_time = store_module._start_time
        monkeypatch.setattr(store_module, "_PROCESS_IDENTITY", {})
        monkeypatch.setattr(store_module, "_start_time", slow_start_time)
        barrier = threading.Barrier(8)
        tokens: list = []

        def first_claim() -> None:
            barrier.wait()
            tokens.append(store_module._process_identity()[0])

        threads = [threading.Thread(target=first_claim) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tokens) == 8
        assert len(set(tokens)) == 1

    def test_foreign_host_claim_expires_by_ttl(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "bc" * 32
        store.claim(key)
        path = store._claim_path(key)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["host"] = "some-other-host"
        path.write_text(json.dumps(entry), encoding="utf-8")
        # Fresh foreign claim: cannot probe the pid, must honour the TTL.
        assert store.claim_is_stale(store.read_claim(key)) is False
        entry["time"] = time.time() - store.claim_ttl - 1
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert store.claim_is_stale(store.read_claim(key)) is True

    def test_steal_refuses_a_live_claim(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "de" * 32
        store.claim(key)
        assert store.steal_claim(key) is False
        assert store.read_claim(key)["pid"] == os.getpid()

    def test_steal_breaks_a_stale_claim(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "f0" * 32
        store.claim(key)
        path = store._claim_path(key)
        path.write_text("torn", encoding="utf-8")  # malformed == stale
        assert store.steal_claim(key, owner="thief") is True
        assert store.read_claim(key)["owner"] == "thief"

    def test_active_claims_lists_and_clear_removes(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = sorted(("11" * 32, "22" * 32))
        for key in keys:
            store.claim(key)
        assert store.active_claims() == keys
        store.clear()
        assert store.active_claims() == []

    def test_sibling_never_sees_a_partial_claim(self, tmp_path, monkeypatch):
        # A claim file must never be visible without its record: a
        # sibling reading an empty file gets {} — "stale" — and would
        # break a live member's claim.  Observe the claim from a second
        # store around every write and around the publishing link.
        store = ResultStore(tmp_path)
        sibling = ResultStore(tmp_path)
        key = "a1" * 32
        seen = []
        real_write, real_link = os.write, os.link

        def observe():
            entry = sibling.read_claim(key)
            seen.append(entry)
            if entry is not None:
                assert entry["key"] == key
                assert sibling.claim_is_stale(entry) is False

        def write(fd, data):
            observe()
            written = real_write(fd, data)
            observe()
            return written

        def link(src, dst, *args, **kwargs):
            observe()
            real_link(src, dst, *args, **kwargs)
            observe()

        monkeypatch.setattr(os, "write", write)
        monkeypatch.setattr(os, "link", link)
        assert store.claim(key) is True
        monkeypatch.undo()
        assert seen[0] is None and seen[-1]["pid"] == os.getpid()
        assert sibling.steal_claim(key) is False
        # The temp file is gone once the claim is published.
        assert [path.name for path in store.claims_dir.iterdir()] \
            == [f"{key}.json"]

    def test_concurrent_claimers_see_only_complete_claims(self, tmp_path):
        key = "b2" * 32
        readers_done = threading.Event()
        bad = []

        def reader():
            sibling = ResultStore(tmp_path)
            while not readers_done.is_set():
                entry = sibling.read_claim(key)
                if entry is not None and sibling.claim_is_stale(entry):
                    bad.append(entry)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            store = ResultStore(tmp_path)
            for _ in range(300):
                assert store.claim(key) is True
                store.release_claim(key)
        finally:
            readers_done.set()
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert bad == []

    def test_leftover_temp_claim_is_not_active_and_clear_removes_it(
            self, tmp_path):
        store = ResultStore(tmp_path)
        store.claim("33" * 32)
        # A claimer killed between writing its record and publishing it.
        (store.claims_dir / f"{'44' * 32}.x1y2.tmp").write_text(
            "{}", encoding="utf-8")
        assert store.active_claims() == ["33" * 32]
        assert store.read_claim("44" * 32) is None
        store.clear()
        assert not store.claims_dir.exists()


# ======================================================================
# Cross-process refresh (store layer)
# ======================================================================
class TestRefresh:
    def test_refresh_sees_a_foreign_append(self, tmp_path, tiny_result):
        writer = ResultStore(tmp_path)
        reader = ResultStore(tmp_path)
        key = job_key(SINGLE_JOB)
        assert reader.refresh(key) is False
        writer.put(key, job_spec(SINGLE_JOB), tiny_result)
        assert reader.refresh(key) is True
        assert key in reader
        loaded = reader.get(key)
        assert loaded is not None

    def test_refresh_of_unknown_key_is_false(self, tmp_path, tiny_result):
        writer = ResultStore(tmp_path)
        writer.put(job_key(SINGLE_JOB), job_spec(SINGLE_JOB), tiny_result)
        reader = ResultStore(tmp_path)
        assert reader.refresh("00" * 32) is False

    def test_refresh_of_already_loaded_key_is_true(self, tmp_path,
                                                   tiny_result):
        store = ResultStore(tmp_path)
        key = job_key(SINGLE_JOB)
        store.put(key, job_spec(SINGLE_JOB), tiny_result)
        assert store.refresh(key) is True

    def test_refreshed_store_still_byte_safe_for_appends(self, tmp_path,
                                                         tiny_result):
        """A refresh must not break the exactly-one-line-per-key invariant
        for the refreshing store's own later appends."""
        writer = ResultStore(tmp_path)
        reader = ResultStore(tmp_path)
        key = job_key(SINGLE_JOB)
        writer.put(key, job_spec(SINGLE_JOB), tiny_result)
        assert reader.refresh(key) is True
        other = SimulationJob(workload="gups", predictor="baseline",
                              num_accesses=60, warmup_accesses=20, seed=1)
        reader.put(job_key(other), job_spec(other), tiny_result)
        final = ResultStore(tmp_path)
        assert len(final) == 2
        assert final.total_lines() == 2


# ======================================================================
# Fleet mode, in-process: two services over one store
# ======================================================================
class TestFleetService:
    def _service(self, store: Path, **kwargs) -> SimulationService:
        kwargs.setdefault("jobs", 2)
        kwargs.setdefault("pool", "thread")
        return SimulationService(store, **kwargs)

    # fig10 and fig11 are two figures over one 126-cell grid.
    @pytest.mark.parametrize("first,second", [("golden", "golden"),
                                              ("fig10", "fig11")])
    def test_cold_grid_is_simulated_once_fleet_wide(self, tmp_path,
                                                    first, second):
        store = tmp_path / "store"
        a = self._service(store)
        b = self._service(store)
        try:
            payloads = {}

            def run(name, svc, experiment):
                payloads[name] = svc.submit(experiment=experiment,
                                            scale=TINY_WIRE, wait=True)

            threads = [threading.Thread(target=run, args=("a", a, first)),
                       threading.Thread(target=run, args=("b", b, second))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            total = payloads["a"]["total_jobs"]
            assert payloads["b"]["total_jobs"] == total
            assert payloads["a"]["state"] == "done"
            assert payloads["b"]["state"] == "done"
            if first == second:
                assert payloads["a"]["stats"] == payloads["b"]["stats"]
            simulations = (a.counters["simulations"]
                           + b.counters["simulations"])
            # The acceptance contract: each cold cell simulated exactly
            # once across the whole fleet, zero duplicates.
            assert simulations == total
            final = ResultStore(store)
            assert len(final) == total
            assert final.total_lines() == total  # no duplicate appends
            assert final.active_claims() == []   # every claim released
        finally:
            a.close(wait=True)
            b.close(wait=True)

    def test_a_dead_owners_claim_on_a_stored_key_is_reaped(self, tmp_path):
        """An owner killed between its put and its release leaves its
        claim; the daemon that waits on the claim and then serves the key
        from the store removes it."""
        store = tmp_path / "store"
        reader = self._service(store)  # its view predates every put
        writer = self._service(store)
        try:
            writer.submit(experiment="golden", scale=TINY_WIRE, wait=True)
            key = ResultStore(store).keys()[0]
            _plant_dead_owner_claim(ResultStore(store), key)
            payload = reader.submit(experiment="golden", scale=TINY_WIRE,
                                    wait=True)
            assert payload["state"] == "done"
            assert reader.counters["simulations"] == 0
            assert reader.counters["claim_waits"] == 1
            assert ResultStore(store).active_claims() == []
        finally:
            reader.close(wait=True)
            writer.close(wait=True)

    def test_claim_loser_serves_from_store_not_recompute(self, tmp_path):
        store = tmp_path / "store"
        a = self._service(store)
        b = self._service(store)
        try:
            done = threading.Event()

            def run_a():
                a.submit(experiment="golden", scale=TINY_WIRE, wait=True)
                done.set()

            thread = threading.Thread(target=run_a)
            thread.start()
            payload = b.submit(experiment="golden", scale=TINY_WIRE,
                               wait=True)
            thread.join()
            assert done.is_set()
            assert payload["state"] == "done"
            # Whatever b did not win, it served from the store (either
            # found stored at claim time or after waiting on a's claims)
            # rather than recomputing.
            lost = b.counters["claims_lost"]
            assert b.counters["claim_waits"] <= lost
            assert (b.counters["simulations"] + a.counters["simulations"]
                    == payload["total_jobs"])
        finally:
            a.close(wait=True)
            b.close(wait=True)

    def test_stale_claim_of_dead_owner_is_broken_and_taken_over(
            self, tmp_path):
        store_dir = tmp_path / "store"
        svc = self._service(store_dir)
        try:
            child = subprocess.Popen([sys.executable, "-c", "pass"])
            child.wait()
            key = job_key(SINGLE_JOB)
            svc.store.claim(key)
            path = svc.store._claim_path(key)
            entry = json.loads(path.read_text(encoding="utf-8"))
            entry["pid"] = child.pid  # forge a dead owner
            path.write_text(json.dumps(entry), encoding="utf-8")

            payload = svc.submit(jobs=[SINGLE_SPEC], wait=True)
            assert payload["state"] == "done"
            assert svc.counters["claims_broken"] == 1
            assert svc.counters["simulations"] == 1
            assert svc.store.active_claims() == []
        finally:
            svc.close(wait=True)

    def test_leftover_claim_of_a_previous_incarnation_is_broken(
            self, tmp_path):
        """A daemon killed mid-grid and restarted under the same pid (PID
        1 in a container) must not wait forever on its own leftover
        claim: the record's token is not this process's, so it is stale."""
        store_dir = tmp_path / "store"
        svc = self._service(store_dir)
        try:
            key = job_key(SINGLE_JOB)
            svc.store.claim(key, owner="repro-serve-1")
            path = svc.store._claim_path(key)
            entry = json.loads(path.read_text(encoding="utf-8"))
            entry["token"] = "0" * 32  # written by an earlier process
            path.write_text(json.dumps(entry), encoding="utf-8")

            payload = svc.submit(jobs=[SINGLE_SPEC])
            final = svc.result(payload["id"], wait=True, timeout=30.0)
            assert final["state"] == "done"
            assert svc.counters["claims_lost"] == 1
            assert svc.counters["claims_broken"] == 1
            assert svc.counters["simulations"] == 1
            assert svc.store.active_claims() == []
        finally:
            svc.close(wait=True)

    def test_released_claim_without_result_is_taken_over(self, tmp_path):
        """An owner that releases its claim without persisting (failed
        attempt, crash before put) must not wedge the loser: the poller
        claims the key itself and simulates."""
        store_dir = tmp_path / "store"
        svc = self._service(store_dir)
        try:
            key = job_key(SINGLE_JOB)
            # A live foreign claim (our own pid, so never stale).
            svc.store.claim(key)
            payload = svc.submit(jobs=[SINGLE_SPEC])

            def release_soon():
                time.sleep(0.2)
                svc.store.release_claim(key)

            threading.Thread(target=release_soon).start()
            final = svc.result(payload["id"], wait=True, timeout=30.0)
            assert final["state"] == "done"
            assert svc.counters["claims_lost"] == 1
            assert svc.counters["simulations"] == 1
        finally:
            svc.close(wait=True)

    def test_lone_daemon_claims_every_cold_key(self, tmp_path):
        """A lone daemon is a fleet of one: it claims each cold key it
        simulates, always wins, and releases every claim."""
        svc = self._service(tmp_path / "store")
        try:
            payload = svc.submit(experiment="fig13", scale=TINY_WIRE,
                                 wait=True)
            assert payload["state"] == "done"
            assert svc.counters["simulations"] == payload["total_jobs"]
            assert svc.counters["claims_won"] == svc.counters["simulations"]
            assert svc.counters["claims_lost"] == 0
            assert svc.store.active_claims() == []
            assert not hasattr(svc, "fleet")
        finally:
            svc.close(wait=True)


# ======================================================================
# FleetClient over in-process socket servers
# ======================================================================
def _start_server(service: SimulationService):
    srv, address = create_server(service, port=0)
    thread = threading.Thread(target=serve_forever, args=(service, srv),
                              daemon=True)
    thread.start()
    return srv, thread, address


@pytest.fixture
def fleet_pair(tmp_path):
    """Two fleet daemons (in-process) sharing one store."""
    store = tmp_path / "store"
    services = [SimulationService(store, jobs=2, pool="thread")
                for _ in range(2)]
    started = [_start_server(service) for service in services]
    addresses = [address for _, _, address in started]
    for address in addresses:
        with ServiceClient(address, timeout=10.0) as client:
            client.wait_healthy(timeout=10.0)
    yield services, addresses
    for (srv, thread, address), service in zip(started, services):
        try:
            with ServiceClient(address, timeout=5.0) as client:
                client.shutdown()
        except (OSError, ServiceError):
            pass
        thread.join(timeout=10.0)


class TestFleetClient:
    def test_address_list_parsing(self):
        client = FleetClient(" 7001 , 7002 ")
        assert [member.address for member in client.members] == \
            ["127.0.0.1:7001", "127.0.0.1:7002"]
        assert client.address == "127.0.0.1:7001,127.0.0.1:7002"
        with pytest.raises(ServiceError, match="empty fleet"):
            FleetClient(" , ")

    def test_connect_returns_a_one_member_fleet(self):
        client = connect("7001")
        assert isinstance(client, FleetClient)
        assert [member.address for member in client.members] == \
            ["127.0.0.1:7001"]
        assert client._route("fig13", None, TINY_WIRE) == 0

    def test_memoised_route_matches_the_first_job_key(self, monkeypatch):
        client = FleetClient("7001,7002,7003")
        for name, experiment in EXPERIMENTS.items():
            grid = experiment.jobs(TINY)
            expected = int(job_key(grid[0])[:8], 16) % 3
            assert client._route(name, None, TINY_WIRE) == expected, name
        # Memoised per (experiment, scale): a repeat hashes nothing.
        keyed = []
        monkeypatch.setattr(service_module, "try_job_key",
                            lambda job: keyed.append(job))
        for name in EXPERIMENTS:
            client._route(name, None, TINY_WIRE)
        assert keyed == []

    def test_routing_is_deterministic_and_key_based(self, fleet_pair):
        _, addresses = fleet_pair
        client = FleetClient(addresses, timeout=10.0)
        route = client._route("fig13", None, TINY_WIRE)
        assert route == client._route("fig13", None, TINY_WIRE)
        first = client.submit(experiment="fig13", scale=TINY_WIRE,
                              wait=True)
        second = client.submit(experiment="fig13", scale=TINY_WIRE,
                               wait=True)
        assert first["member"] == addresses[route]
        assert second["member"] == first["member"]
        assert second["simulated"] == 0  # warm on the same member

    def test_warm_submit_is_one_round_trip(self, fleet_pair):
        services, addresses = fleet_pair
        client = FleetClient(addresses, timeout=10.0)

        def requests() -> int:
            return sum(service.counters["requests"] for service in services)

        before = requests()
        cold = client.submit(experiment="fig13", scale=TINY_WIRE, wait=True)
        assert cold["simulated"] == cold["total_jobs"]
        assert requests() - before >= 2
        before = requests()
        warm = client.submit(experiment="fig13", scale=TINY_WIRE, wait=True)
        assert requests() - before == 1
        assert warm["member"] == cold["member"]
        assert warm["stats"] == cold["stats"]

    def test_one_connection_per_member_per_thread(self, fleet_pair):
        services, addresses = fleet_pair
        before = [service.counters["connections"] for service in services]

        def talk() -> None:
            for _ in range(5):
                client.health()
                client.stats()

        with FleetClient(addresses, timeout=10.0) as client:
            threads = [threading.Thread(target=talk) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
        opened = [service.counters["connections"] - count
                  for service, count in zip(services, before)]
        assert opened == [2, 2]

    def test_done_submit_without_payload_is_still_polled(
            self, fleet_pair, monkeypatch):
        services, addresses = fleet_pair
        client = FleetClient(addresses, timeout=10.0)
        cold = client.submit(experiment="fig13", scale=TINY_WIRE, wait=True)
        for service in services:
            original = service.submit

            def bare_submit(_original=original, **params):
                response = _original(**params)
                for field in ("stats", "stats_path", "results"):
                    response.pop(field, None)
                return response

            monkeypatch.setattr(service, "submit", bare_submit)
        before = sum(service.counters["requests"] for service in services)
        warm = client.submit(experiment="fig13", scale=TINY_WIRE, wait=True)
        after = sum(service.counters["requests"] for service in services)
        assert after - before == 2
        assert warm["state"] == "done"
        assert warm["stats"] == cold["stats"]

    def test_failover_skips_a_dead_member(self, fleet_pair):
        services, addresses = fleet_pair
        # A fleet where one configured member is a dead port: every
        # submit must land on the live ones, whichever way it routes.
        dead = "127.0.0.1:1"
        client = FleetClient([dead, addresses[0]], timeout=5.0,
                             retries=1, backoff=0.01)
        payload = client.submit(experiment="fig13", scale=TINY_WIRE,
                                wait=True)
        assert payload["state"] == "done"
        assert payload["member"] == addresses[0]
        health = client.health()
        assert health["status"] == "degraded"
        assert health["fleet"]["healthy"] == 1
        statuses = {member["address"]: member["status"]
                    for member in health["members"]}
        assert statuses[dead] == "unreachable"
        stats = client.stats()
        assert stats["fleet"] == {"size": 2, "reachable": 1}

    def test_no_reachable_member_raises_connection_error(self):
        client = FleetClient("127.0.0.1:1,127.0.0.1:2", timeout=0.5,
                             retries=1, backoff=0.01)
        with pytest.raises(ServiceError) as excinfo:
            client.stats()
        assert excinfo.value.code == "connection"
        with pytest.raises(ServiceError):
            client.submit(experiment="fig13", scale=TINY_WIRE, wait=True)
        assert client.health()["status"] == "unreachable"

    def test_overloaded_member_sheds_to_another(self, tmp_path,
                                                monkeypatch):
        """S5: an `overloaded` refusal routes the submit to the next
        member instead of failing the client."""
        import repro.service as service_module

        store = tmp_path / "store"
        release = threading.Event()
        real_execute = service_module.execute_job

        def gated(job, **kwargs):
            if getattr(job, "workload", None) == "gups":
                release.wait(15.0)
            return real_execute(job, **kwargs)

        monkeypatch.setattr(service_module, "execute_job", gated)
        # Tiny admission bound on member A only; B takes the spill.
        a = SimulationService(store, jobs=2, pool="thread", max_queue=1)
        b = SimulationService(store, jobs=2, pool="thread")
        started = [_start_server(a), _start_server(b)]
        addresses = [address for _, _, address in started]
        try:
            for address in addresses:
                ServiceClient(address, timeout=10.0).wait_healthy(
                    timeout=10.0)
            # Fill A's only admission slot with a held job.
            held = a.submit(jobs=[SINGLE_SPEC])
            address_a, address_b = addresses
            # Arrange the member list so the grid's routed index is A:
            # the shed-and-fail-over path is then deterministic.
            route = FleetClient(addresses)._route("fig13", None, TINY_WIRE)
            ordered = [address_a, address_b] if route == 0 \
                else [address_b, address_a]
            client = FleetClient(ordered, timeout=10.0, retries=1,
                                 backoff=0.01)
            payload = client.submit(experiment="fig13", scale=TINY_WIRE,
                                    wait=True)
            assert payload["state"] == "done"
            # A shed the grid (its one slot is held) and B served it.
            assert payload["member"] == address_b
            assert a.counters["shed"] >= 1
            assert b.counters["simulations"] == payload["total_jobs"]
            release.set()
            final = a.result(held["id"], wait=True, timeout=30.0)
            assert final["state"] == "done"
        finally:
            release.set()
            for (srv, thread, address) in started:
                try:
                    ServiceClient(address, timeout=5.0).shutdown()
                except (OSError, ServiceError):
                    pass
                thread.join(timeout=10.0)


# ======================================================================
# The fleet launcher (``repro fleet``)
# ======================================================================
def _consecutive_free_ports() -> int:
    """A localhost port ``p`` with ``p`` and ``p + 1`` both free."""
    for _ in range(50):
        with socket_module.socket() as first, \
                socket_module.socket() as second:
            first.bind(("127.0.0.1", 0))
            port = first.getsockname()[1]
            try:
                second.bind(("127.0.0.1", port + 1))
            except OSError:
                continue
        return port
    raise AssertionError("no two consecutive free ports")


def _launch_fleet(tmp_path: Path, *options: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_STORE", None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "--members", "2",
         "--store", str(tmp_path / "store"),
         "--ready-file", str(tmp_path / "fleet-ready.txt"), *options],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _fleet_address(launcher: subprocess.Popen, tmp_path: Path) -> str:
    ready = tmp_path / "fleet-ready.txt"
    deadline = time.monotonic() + 60.0
    while not ready.is_file():
        assert launcher.poll() is None, \
            launcher.stderr.read().decode()  # type: ignore
        assert time.monotonic() < deadline, \
            "launcher never wrote the combined ready file"
        time.sleep(0.01)
    return ready.read_text().strip()


def _stop_launcher(launcher: subprocess.Popen) -> None:
    if launcher.poll() is None:
        launcher.send_signal(signal.SIGTERM)
        try:
            launcher.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            launcher.kill()
            raise
    launcher.stdout.close()  # type: ignore
    launcher.stderr.close()  # type: ignore


def _await_gone(pids, timeout: float = 10.0) -> list:
    """The pids of ``pids`` still alive after up to ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        living = [pid for pid in pids if alive(pid)]
        if not living or time.monotonic() >= deadline:
            return living
        time.sleep(0.05)


class TestFleetLauncher:
    def test_process_pool_fleet_on_base_ports_leaves_nothing_running(
            self, tmp_path):
        port = _consecutive_free_ports()
        launcher = _launch_fleet(tmp_path, "--base-port", str(port),
                                 "--pool", "process", "--jobs", "1")
        try:
            address = _fleet_address(launcher, tmp_path)
            assert address == f"127.0.0.1:{port},127.0.0.1:{port + 1}"
            stats = FleetClient(address, timeout=30.0).stats()
            assert stats["fleet"] == {"size": 2, "reachable": 2}
            pids = [member["pid"] for member in stats["members"]]
            workers = [pid for member in stats["members"]
                       for pid in member["pool"]["children"]]
            assert all(member["pool"]["type"] == "process"
                       for member in stats["members"])
            assert len(workers) == 2
        finally:
            launcher.send_signal(signal.SIGTERM)
            returncode = launcher.wait(timeout=30.0)
            _stop_launcher(launcher)
        assert returncode == 0
        assert _await_gone(pids + workers) == []

    def test_killed_member_brings_the_fleet_down(self, tmp_path):
        launcher = _launch_fleet(tmp_path, "--pool", "thread", "--jobs", "1")
        try:
            address = _fleet_address(launcher, tmp_path)
            pids = [member["pid"] for member in
                    FleetClient(address, timeout=30.0).stats()["members"]]
            os.kill(pids[0], signal.SIGKILL)
            assert launcher.wait(timeout=30.0) == 1
            assert b"fleet member died" in launcher.stderr.read()
        finally:
            _stop_launcher(launcher)
        assert _await_gone(pids) == []

    def test_member_that_cannot_bind_fails_the_startup(self, tmp_path):
        port = _consecutive_free_ports()
        with socket_module.socket() as held:
            held.bind(("127.0.0.1", port + 1))
            held.listen()
            launcher = _launch_fleet(tmp_path, "--base-port", str(port),
                                     "--pool", "thread", "--jobs", "1")
            try:
                assert launcher.wait(timeout=60.0) == 1
                stderr = launcher.stderr.read()
            finally:
                _stop_launcher(launcher)
        assert b"exited with code 1 during startup" in stderr
        assert b"cannot start the daemon" in stderr
        assert not (tmp_path / "fleet-ready.txt").exists()
        # Whatever started with the fleet's command line is gone again.
        assert _await_gone(running_with_argument(str(tmp_path))) == []

    def test_members_are_forked_from_the_launcher(self, tmp_path):
        launcher = _launch_fleet(tmp_path, "--pool", "thread", "--jobs", "1")
        try:
            address = _fleet_address(launcher, tmp_path)
            pids = [member["pid"] for member in
                    FleetClient(address, timeout=30.0).stats()["members"]]
            command = Path(f"/proc/{launcher.pid}/cmdline").read_bytes()
            for pid in pids:
                assert parent_of(pid) == launcher.pid
                # One interpreter: no member exec'd a command of its own.
                assert Path(f"/proc/{pid}/cmdline").read_bytes() == command
        finally:
            _stop_launcher(launcher)


# ======================================================================
# Daemon subprocesses: real fleets, SIGKILL failover, the launcher
# ======================================================================
def _spawn_fleet_daemon(tmp_path: Path, store: Path,
                        jobs: str = "2") -> "tuple[subprocess.Popen, str]":
    ready = tmp_path / f"ready-{time.monotonic_ns()}.txt"
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_JOBS=jobs,
               REPRO_POOL="thread")
    env.pop("REPRO_STORE", None)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--store", str(store), "--ready-file", str(ready)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    deadline = time.monotonic() + 30.0
    while not ready.is_file():
        if process.poll() is not None:
            raise AssertionError(
                f"fleet daemon died on startup: "
                f"{process.stderr.read().decode()}")  # type: ignore
        if time.monotonic() > deadline:
            process.kill()
            raise AssertionError("fleet daemon never wrote its ready file")
        time.sleep(0.02)
    return process, ready.read_text().strip()


@pytest.mark.slow
class TestFleetDaemons:
    SCALE = {"accesses": 400, "warmup": 120, "mix_accesses": 300}

    def test_two_daemons_cold_grid_simulated_once_fleet_wide(
            self, tmp_path):
        store = tmp_path / "store"
        daemon_a, address_a = _spawn_fleet_daemon(tmp_path, store)
        daemon_b, address_b = _spawn_fleet_daemon(tmp_path, store)
        try:
            client_a = ServiceClient(address_a, timeout=60.0)
            client_b = ServiceClient(address_b, timeout=60.0)
            payloads = {}

            def run(name, client):
                payloads[name] = client.submit(experiment="golden",
                                               scale=TINY_WIRE, wait=True)

            threads = [threading.Thread(target=run, args=("a", client_a)),
                       threading.Thread(target=run, args=("b", client_b))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            total = payloads["a"]["total_jobs"]
            assert payloads["a"]["state"] == "done"
            assert payloads["b"]["state"] == "done"
            assert payloads["a"]["stats"] == payloads["b"]["stats"]
            simulations = sum(
                client.stats()["counters"]["simulations"]
                for client in (client_a, client_b))
            assert simulations == total  # exactly once, fleet-wide
            # Aggregated view agrees, and a re-run is pure store traffic.
            fleet = FleetClient([address_a, address_b], timeout=60.0)
            assert fleet.stats()["counters"]["simulations"] == total
            rerun = fleet.submit(experiment="golden", scale=TINY_WIRE,
                                 wait=True)
            assert rerun["simulated"] == 0
            assert rerun["stored"] == total
        finally:
            for daemon in (daemon_a, daemon_b):
                daemon.terminate()
                daemon.wait(timeout=30.0)
        final = ResultStore(store)
        assert len(final) == total
        assert final.total_lines() == total  # zero duplicate appends
        assert final.active_claims() == []

    def test_fleetclient_fails_over_when_a_member_is_killed_mid_grid(
            self, tmp_path):
        store = tmp_path / "store"
        daemon_a, address_a = _spawn_fleet_daemon(tmp_path, store)
        daemon_b, address_b = _spawn_fleet_daemon(tmp_path, store)
        daemons = {address_a: daemon_a, address_b: daemon_b}
        try:
            client = FleetClient([address_a, address_b], timeout=60.0,
                                 retries=1, backoff=0.01)
            route = client._route("fig13", None, self.SCALE)
            routed_address = client.members[route].address
            routed = ServiceClient(routed_address, timeout=60.0)

            result = {}

            def run():
                result["payload"] = client.submit(
                    experiment="fig13", scale=self.SCALE, wait=True)

            thread = threading.Thread(target=run)
            thread.start()
            # Let the routed member persist part of the grid, then kill
            # it un-gracefully (SIGKILL: no claim cleanup, no goodbye).
            deadline = time.monotonic() + 60.0
            while True:
                try:
                    if routed.stats()["store"]["puts"] >= 1:
                        break
                except (OSError, ServiceError):
                    break  # grid finished + thread raced us; handled below
                assert time.monotonic() < deadline, "grid never started"
                time.sleep(0.02)
            daemons[routed_address].kill()
            daemons[routed_address].wait(timeout=30.0)

            thread.join(timeout=120.0)
            assert not thread.is_alive()
            payload = result["payload"]
            assert payload["state"] == "done"
            total = payload["total_jobs"]
            # The survivor picked the grid up: cells the dead member
            # persisted came from the store, the rest were simulated
            # (breaking the dead member's stale claims along the way).
            assert payload["member"] != routed_address
            assert payload["stored"] + payload["simulated"] == total
        finally:
            for daemon in daemons.values():
                if daemon.poll() is None:
                    daemon.terminate()
                    daemon.wait(timeout=30.0)
        # Exactly one line per key even across the SIGKILL: nothing was
        # simulated (or persisted) twice, and no claim leaked.
        final = ResultStore(store)
        assert len(final) == total
        assert final.total_lines() == total
        assert final.active_claims() == []

    def test_fleet_launcher_end_to_end(self, tmp_path):
        launcher = _launch_fleet(tmp_path, "--pool", "thread", "--jobs", "2")
        try:
            address = _fleet_address(launcher, tmp_path)
            assert address.count(",") == 1  # two members
            client = FleetClient(address, timeout=60.0)
            client.wait_healthy(timeout=30.0)
            payload = client.submit(experiment="golden", scale=TINY_WIRE,
                                    wait=True)
            assert payload["state"] == "done"
            stats = client.stats()
            assert stats["fleet"] == {"size": 2, "reachable": 2}
            assert stats["counters"]["simulations"] == \
                payload["total_jobs"]
            assert stats["counters"]["claims_won"] == \
                payload["total_jobs"]
        finally:
            launcher.send_signal(signal.SIGTERM)
            try:
                assert launcher.wait(timeout=30.0) == 0
            except subprocess.TimeoutExpired:
                launcher.kill()
                raise
        final = ResultStore(tmp_path / "store")
        assert final.total_lines() == len(final)

