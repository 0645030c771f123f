"""The ``serve-warm`` and ``serve-mixed`` workloads: the daemon and the fleet.

Both start from a results store populated with the 11 figure experiments
at :data:`SCALE`.  The populated store is built once per source digest
under the checkout's cache (simulation output is a pure function of the
sources) together with each figure's expected ``stats`` payload, computed
from the live results rather than read back from the store.  Every run
copies it afresh for each daemon or fleet it starts.

Load is closed-loop: :data:`CLIENTS` threads in the benchmark process each
send their next request only after the previous one completed.

* ``serve-warm``: one ``python -m repro serve --jobs 2`` daemon; every
  request is a figure read (zipf s = 1.1 over :data:`FIGURES`), so zero
  simulations happen.
* ``serve-mixed``: a two-member ``python -m repro fleet``; 80% figure reads
  and 20% ad-hoc two-job lists on trace seeds the store has never seen,
  each sent twice back to back with its jobs in either order, so the
  members contend for the same fleet claims or coalesce them.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (
    CACHE,
    canonical,
    child_environment,
    peak_rss_mb,
    percentile,
    source_digest,
    stop_process,
    summary,
    wait_for_file,
    wait_gone,
)

#: The figure experiments in zipf rank order (most requested first).
FIGURES = ("fig11", "fig10", "fig12", "fig14", "fig07", "fig13", "fig09",
           "fig08", "fig15", "fig05", "golden")
ZIPF_S = 1.1
#: Store scale of the served figures (and of the ad-hoc jobs).
SCALE = {"accesses": 300, "warmup": 100, "mix_accesses": 200}
TINY_SCALE = {"accesses": 60, "warmup": 20, "mix_accesses": 40}
#: Closed-loop client threads (the host's CPU count in the reference runs).
CLIENTS = 2
#: Requests per measured second, per workload.
RATE = {"serve-warm": 50, "serve-mixed": 40}
#: Share of serve-mixed requests that are ad-hoc job lists.
ADHOC_SHARE = 0.2
#: Every ADHOC_VERIFY-th ad-hoc job is re-simulated in-process to check
#: the served bytes.
ADHOC_VERIFY = 10
SETUP_PROBES = 3
ADHOC_PREDICTORS = ("baseline", "lp", "tage-2kb", "d2d", "ideal",
                    "tage-8kb")
ADHOC_SEED_BASE = 1_000_000


# ----------------------------------------------------------------------
# The populated store
# ----------------------------------------------------------------------
def populated_store(tiny: bool) -> Path:
    """Directory holding ``store/`` and ``expected.json`` (built once)."""
    from repro.experiments import EXPERIMENTS, Scale, canonical_json
    from repro.sim.engine import TRACE_CACHE, SimulationEngine

    scale_wire = TINY_SCALE if tiny else SCALE
    tag = "-".join(str(scale_wire[key]) for key in sorted(scale_wire))
    root = CACHE / "stores" / f"{source_digest()}-{tag}"
    if (root / "expected.json").is_file():
        return root
    building = root.with_name(f".{root.name}.{os.getpid()}")
    shutil.rmtree(building, ignore_errors=True)
    building.mkdir(parents=True)
    TRACE_CACHE.clear()
    engine = SimulationEngine(jobs=1, store=building / "store")
    scale = Scale(**scale_wire)
    expected = {}
    for name in FIGURES:
        experiment = EXPERIMENTS[name]
        results = engine.run(experiment.jobs(scale))
        expected[name] = json.loads(canonical_json(
            experiment.summarize(results, scale)))
    engine.store.flush_index()
    TRACE_CACHE.clear()
    (building / "expected.json").write_text(json.dumps(expected))
    try:
        building.rename(root)
    except OSError:
        # A concurrent run finished the same build first; use its copy.
        shutil.rmtree(building)
    return root


def figure_sizes(scale_wire: Dict[str, int]) -> Dict[str, Tuple[int, int]]:
    """Per figure: (grid jobs, simulated accesses covered by its jobs)."""
    from repro.experiments import EXPERIMENTS, Scale
    from simcold import job_accesses

    sizes = {}
    for name in FIGURES:
        jobs = EXPERIMENTS[name].jobs(Scale(**scale_wire))
        sizes[name] = (len(jobs), sum(job_accesses(job) for job in jobs))
    return sizes


# ----------------------------------------------------------------------
# The request mix
# ----------------------------------------------------------------------
def zipf_counts(total: int) -> Dict[str, int]:
    """Exact per-figure request counts (largest remainder), so every run
    of a workload issues the same multiset of requests."""
    weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, len(FIGURES) + 1)]
    norm = sum(weights)
    shares = [total * weight / norm for weight in weights]
    counts = [int(share) for share in shares]
    order = sorted(range(len(FIGURES)), key=lambda i: counts[i] - shares[i])
    for index in order[:total - sum(counts)]:
        counts[index] += 1
    return dict(zip(FIGURES, counts))


def adhoc_pool(size: int, seed: int, scale_wire: Dict[str, int]
               ) -> List[Dict[str, Any]]:
    """Single-core wire job specs on trace seeds no store has seen."""
    from repro.workloads import HIGHLIGHTED_APPLICATIONS

    apps = list(HIGHLIGHTED_APPLICATIONS)
    return [{"kind": "single", "workload": apps[index % len(apps)],
             "predictor": ADHOC_PREDICTORS[index % len(ADHOC_PREDICTORS)],
             "num_accesses": scale_wire["accesses"],
             "warmup_accesses": scale_wire["warmup"],
             "seed": ADHOC_SEED_BASE + seed * 10_000 + index}
            for index in range(size)]


def request_mix(workload: str, seed: int, total: int,
                scale_wire: Dict[str, int]) -> Tuple[List[Dict[str, Any]],
                                                     List[Dict[str, Any]]]:
    """The seeded request sequence and the ad-hoc job pool.

    Each ad-hoc job pair is requested twice, back to back, once in each
    order: the two lists lead with different job keys, so the fleet client
    may route them to different members (which then contend for the same
    claims) or to one member (which coalesces them).
    """
    adhoc = int(total * ADHOC_SHARE) // 2 * 2 \
        if workload == "serve-mixed" else 0
    pool = adhoc_pool(adhoc, seed, scale_wire)
    units: List[List[Dict[str, Any]]] = [
        [{"figure": name}]
        for name, count in zipf_counts(total - adhoc).items()
        for _ in range(count)]
    units += [[{"adhoc": (first, first + 1)}, {"adhoc": (first + 1, first)}]
              for first in range(0, adhoc, 2)]
    random.Random(f"perfbench:{workload}:{seed}").shuffle(units)
    return [request for unit in units for request in unit], pool


# ----------------------------------------------------------------------
# Hosting: subprocess daemon / fleet, or in-process services
# ----------------------------------------------------------------------
class Host:
    """A running daemon or fleet and the client that talks to it."""

    def __init__(self, workload: str, store: Path, run_dir: Path,
                 index: int, in_process: bool) -> None:
        from repro.service import FleetClient, ServiceClient

        self.store = store
        self.processes: List[subprocess.Popen] = []
        self.servers: List[Tuple[Any, Any, threading.Thread]] = []
        self.pids: List[int] = []
        members = 2 if workload == "serve-mixed" else 1
        jobs = 1 if members > 1 else 2
        try:
            if in_process:
                addresses = self._start_in_process(members, jobs)
            elif members > 1:
                addresses = self._start_fleet(run_dir, index, members, jobs)
            else:
                addresses = [self._start_daemon(run_dir, index, jobs)]
            if members > 1:
                self.client: Any = FleetClient(addresses, timeout=120)
            else:
                self.client = ServiceClient(addresses[0], timeout=120)
            health = self.client.wait_healthy(timeout=60)
        except BaseException:
            self.close()
            raise
        self.pids = [member["pid"] for member in health.get(
            "members", [health])]

    def _start_daemon(self, run_dir: Path, index: int, jobs: int) -> str:
        ready = run_dir / f"daemon-{index}.addr"
        log = open(run_dir / f"daemon-{index}.log", "wb")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--jobs", str(jobs),
             "--port", "0", "--ready-file", str(ready),
             "--store", str(self.store)],
            env=child_environment(), stdout=log, stderr=log)
        log.close()
        self.processes.append(process)
        return wait_for_file(ready, process)

    def _start_fleet(self, run_dir: Path, index: int, members: int,
                     jobs: int) -> List[str]:
        ready = run_dir / f"fleet-{index}.addr"
        log = open(run_dir / f"fleet-{index}.log", "wb")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "--members",
             str(members), "--jobs", str(jobs), "--ready-file", str(ready),
             "--store", str(self.store)],
            env=child_environment(), stdout=log, stderr=log)
        log.close()
        self.processes.append(process)
        return wait_for_file(ready, process).split(",")

    def _start_in_process(self, members: int, jobs: int) -> List[str]:
        from repro.service import SimulationService, create_server

        addresses = []
        for _ in range(members):
            service = SimulationService(self.store, jobs=jobs, pool="thread",
                                        fleet=members > 1)
            server, address = create_server(service, port=0)
            thread = threading.Thread(target=server.serve_forever,
                                      kwargs={"poll_interval": 0.05},
                                      daemon=True)
            thread.start()
            self.servers.append((service, server, thread))
            addresses.append(address)
        return addresses

    def counters(self) -> Dict[str, Any]:
        """Service counters, summed over fleet members (plus the store
        counters of in-process services)."""
        counters = {name: value for name, value
                    in self.client.stats()["counters"].items()
                    if isinstance(value, (int, float))}
        for service, _, _ in self.servers:
            for name in ("hits", "misses", "puts"):
                counters[f"store.{name}"] = (counters.get(f"store.{name}", 0)
                                             + getattr(service.store, name))
        return counters

    def pool_children(self) -> List[int]:
        payload = self.client.stats()
        members = payload.get("members", [payload])
        return [pid for member in members
                for pid in member.get("pool", {}).get("children", [])]

    def rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids)

    def close(self) -> List[int]:
        """Stop everything; returns pids still running afterwards."""
        watched = list(self.pids)
        watched += [process.pid for process in self.processes]
        if self.processes and self.pids:
            try:
                watched += self.pool_children()
            except Exception:  # noqa: BLE001 - already dying; still stop
                pass
        for service, server, thread in self.servers:
            server.shutdown()
            server.server_close()
            service.close()
            thread.join(timeout=30)
        for process in self.processes:
            stop_process(process)
        self.watched = watched
        return wait_gone(watched) if self.processes else []


def prepare(workload: str, populated: Path, run_dir: Path, index: int,
            in_process: bool) -> Host:
    """Copy the populated store and bring a daemon or fleet up on it."""
    store = run_dir / f"store-{index}"
    shutil.copytree(populated / "store", store)
    return Host(workload, store, run_dir, index, in_process)


# ----------------------------------------------------------------------
# The load loop
# ----------------------------------------------------------------------
def drive(host: Host, requests: List[Dict[str, Any]],
          pool: List[Dict[str, Any]], expected: Dict[str, Any],
          sizes: Dict[str, Tuple[int, int]],
          scale_wire: Dict[str, int]) -> Dict[str, Any]:
    """Run the closed loop; returns timings, outcomes and served data."""
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    latencies: List[Optional[float]] = [None] * len(requests)
    responses: List[Any] = [None] * len(requests)

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            request = requests[index]
            began = time.perf_counter()
            try:
                if "figure" in request:
                    response = host.client.submit(
                        experiment=request["figure"], scale=scale_wire,
                        wait=True)
                else:
                    response = host.client.submit(
                        jobs=[pool[i] for i in request["adhoc"]], wait=True)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                response = exc
            latencies[index] = time.perf_counter() - began
            responses[index] = response

    threads = [threading.Thread(target=client, name=f"perfbench-client-{i}")
               for i in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    outcome = verify(requests, responses, expected, sizes, scale_wire)
    outcome.update(wall=wall, latencies=latencies)
    return outcome


def verify(requests: List[Dict[str, Any]], responses: List[Any],
           expected: Dict[str, Any], sizes: Dict[str, Tuple[int, int]],
           scale_wire: Dict[str, int]) -> Dict[str, Any]:
    """Check every response (after the timed loop, so checking costs no
    request time) and tally the jobs served, per fleet member."""
    expected_bytes = {name: canonical(stats)
                      for name, stats in expected.items()}
    adhoc_accesses = scale_wire["accesses"] + scale_wire["warmup"]
    errors: List[Tuple[int, str]] = []
    served: Dict[int, List[str]] = {}
    members: Dict[str, int] = {}
    jobs = accesses = 0
    for index, (request, response) in enumerate(zip(requests, responses)):
        if isinstance(response, Exception):
            errors.append((index, f"{type(response).__name__}: {response}"))
            continue
        if response.get("state") != "done":
            errors.append((index, f"request ended {response.get('state')}: "
                                  f"{response.get('error')}"))
            continue
        if "figure" in request:
            name = request["figure"]
            if canonical(response["stats"]) != expected_bytes[name]:
                errors.append((index, f"{name}: served stats differ from "
                                      f"the expected payload"))
            count, covered = sizes[name]
        else:
            ids = request["adhoc"]
            for job_id, result in zip(ids, response["results"]):
                served.setdefault(job_id, []).append(canonical(result))
            count, covered = len(ids), len(ids) * adhoc_accesses
        jobs += count
        accesses += covered
        member = response.get("member", "daemon")
        members[member] = members.get(member, 0) + count
    return {"errors": errors, "served": served, "members": members,
            "jobs": jobs, "accesses": accesses}


def check_adhoc(served: Dict[int, List[str]], pool: List[Dict[str, Any]]
                ) -> List[str]:
    """Ad-hoc results: consistent across requests, and a sample exact
    against an in-process simulation."""
    from repro.service import job_from_wire
    from repro.sim.engine import TraceCache, execute_job
    from repro.sim.store import serialize_result

    problems = []
    for job_id, copies in sorted(served.items()):
        if len(set(copies)) != 1:
            problems.append(f"ad-hoc job {job_id} served differently to "
                            f"two requests")
        if job_id % ADHOC_VERIFY == 0:
            local = execute_job(job_from_wire(pool[job_id]),
                                TraceCache(spill_dir=None))
            if canonical(serialize_result(local)) != copies[0]:
                problems.append(f"ad-hoc job {job_id} differs from an "
                                f"in-process simulation")
    return problems


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: int, trace: bool, run_dir: Path,
        tiny: bool = False) -> Dict[str, Any]:
    scale_wire = TINY_SCALE if tiny else SCALE
    populated = populated_store(tiny)
    expected = json.loads((populated / "expected.json").read_text())
    sizes = figure_sizes(scale_wire)
    total = 40 if tiny else RATE[workload] * seconds
    requests, pool = request_mix(workload, seed, total, scale_wire)
    failures: List[str] = []
    report: Dict[str, Any] = {"requests": len(requests),
                              "adhoc_requests": sum("adhoc" in request
                                                    for request in requests),
                              "adhoc_jobs": len(pool),
                              "repeats": 1}
    if trace:
        report.update(_traced(workload, populated, run_dir, requests, pool,
                              expected, sizes, scale_wire, failures))
    else:
        report.update(_untraced(workload, populated, run_dir, requests,
                                pool, expected, sizes, scale_wire,
                                failures))
    # Each load pass also sends every figure once as its warm-up round.
    report["attempted"] = (len(requests) + len(FIGURES)) * (2 if trace
                                                            else 1)
    report["failures"] = failures
    return report


def load_pass(host: Host, requests: List[Dict[str, Any]],
              pool: List[Dict[str, Any]], expected: Dict[str, Any],
              sizes: Dict[str, Tuple[int, int]], scale_wire: Dict[str, int],
              tracer: Any = None) -> Dict[str, Any]:
    """A warm-up round (each figure once, untimed), then the measured
    requests; ``counters`` holds the service counters of the measured
    part alone."""
    from repro.sim.engine import TRACE_CACHE

    warm = drive(host, [{"figure": name} for name in FIGURES], pool,
                 expected, sizes, scale_wire)
    TRACE_CACHE.clear()
    before = host.counters()
    if tracer is not None:
        tracer.install()
    try:
        outcome = drive(host, requests, pool, expected, sizes, scale_wire)
    finally:
        if tracer is not None:
            tracer.uninstall()
    after = host.counters()
    outcome["errors"] += [(-1, error) for _, error in warm["errors"]]
    outcome["counters"] = {name: value - before.get(name, 0)
                           for name, value in after.items()}
    return outcome


def _check_load(workload: str, outcome: Dict[str, Any],
                stats: Dict[str, Any], pool: List[Dict[str, Any]],
                store: Path, failures: List[str]) -> int:
    """Fold one load pass's checks into ``failures``; returns the number
    of failed requests.

    A second simulation of an ad-hoc job is not a failure: fleet claims
    are a dedup optimisation, and a duplicate's put is an idempotent
    no-op.  It is counted (``fleet.duplicate_simulations``) instead.
    """
    from repro.sim.store import ResultStore

    failed = len(outcome["errors"])
    failures.extend(f"request {index}: {error}"
                    for index, error in outcome["errors"][:5])
    simulations = stats["simulations"]
    if workload == "serve-warm" and simulations:
        failures.append(f"serve-warm simulated {simulations} jobs")
    if simulations < len(pool):
        failures.append(f"{simulations} simulations for {len(pool)} "
                        f"distinct ad-hoc jobs")
    claims = ResultStore(store).active_claims()
    if claims:
        failures.append(f"{len(claims)} fleet claims left behind")
    problems = check_adhoc(outcome["served"], pool)
    failures.extend(problems)
    return failed + len(problems)


def _untraced(workload: str, populated: Path, run_dir: Path,
              requests: List[Dict[str, Any]], pool: List[Dict[str, Any]],
              expected: Dict[str, Any], sizes: Dict[str, Tuple[int, int]],
              scale_wire: Dict[str, int], failures: List[str]
              ) -> Dict[str, Any]:
    setup: List[float] = []
    host = None
    leftovers: List[int] = []
    stopped: List[int] = []
    for index in range(SETUP_PROBES):
        if host is not None:
            leftovers += host.close()
            stopped += host.watched
        began = time.perf_counter()
        host = prepare(workload, populated, run_dir, index, False)
        setup.append(time.perf_counter() - began)
    try:
        outcome = load_pass(host, requests, pool, expected, sizes,
                            scale_wire)
        stats = outcome["counters"]
        rss = host.rss_mb()
    finally:
        leftovers += host.close()
        stopped += host.watched
    if leftovers:
        failures.append(f"processes still running after teardown: "
                        f"{leftovers}")
    failed = _check_load(workload, outcome, stats, pool, host.store,
                         failures)
    latencies = [value for value in outcome["latencies"] if value is not None]
    metrics = {
        "setup_s": summary(setup),
        "jobs_per_s": summary([outcome["jobs"] / outcome["wall"]]),
        "accesses_per_s": summary([outcome["accesses"] / outcome["wall"]]),
        "req_p50_ms": {"median": percentile(latencies, 0.5) * 1000.0,
                       "samples": len(latencies)},
        "req_p90_ms": {"median": percentile(latencies, 0.9) * 1000.0,
                       "samples": len(latencies)},
        "peak_rss_mb": summary([rss]),
        "lp_speedup_geomean": summary(
            [expected["fig11"]["geomean"]["lp"]]),
    }
    return {"metrics": metrics, "failed": failed, "service": stats,
            "duplicate_simulations": stats["simulations"] - len(pool),
            "stopped_pids": stopped,
            "member_jobs": outcome["members"],
            "latency_quartiles": summary(
                [value * 1000.0 for value in latencies])}


def _traced(workload: str, populated: Path, run_dir: Path,
            requests: List[Dict[str, Any]], pool: List[Dict[str, Any]],
            expected: Dict[str, Any], sizes: Dict[str, Tuple[int, int]],
            scale_wire: Dict[str, int], failures: List[str]
            ) -> Dict[str, Any]:
    """In-process hosting: an untraced then a traced load pass."""
    from spans import Tracer

    from repro.sim.engine import TRACE_CACHE

    walls = []
    failed = 0
    for index, tracer in enumerate((None, Tracer())):
        host = prepare(workload, populated, run_dir, 10 + index, True)
        try:
            outcome = load_pass(host, requests, pool, expected, sizes,
                                scale_wire, tracer)
        finally:
            host.close()
        stats = outcome["counters"]
        walls.append(outcome["wall"])
        failed += _check_load(workload, outcome, stats, pool, host.store,
                              failures)
    total_jobs = sum(outcome["members"].values())
    counts = {
        "trace.hits": TRACE_CACHE.hits,
        "trace.disk_hits": TRACE_CACHE.disk_hits,
        "store.hits": stats["store.hits"],
        "store.misses": stats["store.misses"],
        "store.puts": stats["store.puts"],
        "service.coalesced": stats["coalesced"],
        "service.simulations": stats["simulations"],
        "service.shed": stats["shed"],
        "service.retries": stats["retries"],
        "fleet.claims_won": stats["claims_won"],
        "fleet.claims_lost": stats["claims_lost"],
        "fleet.claim_waits": stats["claim_waits"],
        "fleet.claims_broken": stats["claims_broken"],
        "fleet.duplicate_simulations": stats["simulations"] - len(pool),
        "fleet.member_share_max": (max(outcome["members"].values())
                                   / total_jobs if total_jobs else 0.0),
        "trace_overhead": walls[1] / walls[0],
    }
    return {"tracer": tracer, "counts": counts, "failed": failed,
            "nesting_problems": tracer.check_nesting()}
