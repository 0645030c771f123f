"""``python -m repro`` — run, inspect and clean experiment grids.

Subcommands
===========

``run <experiment>... [all]``
    Execute one or more figure/table grids from the registry in
    :mod:`repro.experiments`.  ``all`` (or no names) expands to every
    figure experiment except the opt-in ``sweep`` grid — several times
    the paper's largest — which must be named explicitly.  Jobs already present in the results store
    are served from disk — re-running a figure performs **zero**
    simulations, and an interrupted grid resumes from the jobs it already
    persisted.  ``--force`` recomputes (and refreshes) every job; ``--jobs``
    fans simulation out over worker processes (same as ``REPRO_JOBS``).
    Grids run through the daemon core in-process, which claims cold keys:
    runs racing on one store simulate each key once between them.
    Metrics are written to ``<store>/stats/<experiment>.json``.  A bare
    ``--check`` evaluates the paper's claims about an experiment that
    has them (``fig05``, ``fig07``-``fig15``) and fails naming each one
    that does not hold; otherwise ``--check [FILE]`` compares the metrics
    against a committed stats file (``GOLDEN_stats.json`` by default) and
    fails on any difference.

    Traces are generated in memory by each process that needs them; a
    run writes nothing but the store's shards, claims and stats.

``trace <workload>``
    Inspect a registered workload's generated trace: footprint, unique
    blocks/pages, read/write mix and the packed buffer size.  ``--save``
    writes the buffer to an ``.npz`` file.

``status``
    For every experiment: how many of its jobs the store already holds.

``figures``
    List the available experiments.

``store info|fsck|compact``
    Maintain the sharded results store: ``info`` summarises shard/entry
    counts, ``fsck`` salvages torn/corrupt/foreign lines in place (usable
    even when the store is too damaged to load), and ``compact`` drops
    superseded duplicate entries.

``serve [--port N | --socket PATH] [--jobs N]``
    Run the persistent simulation daemon (see :mod:`repro.service`): a
    long-lived process owning the store, the trace cache and a worker
    pool, answering figure requests over a JSON socket protocol.  Warm
    requests are served with zero simulation; concurrent identical
    requests coalesce onto one running simulation per job key.  Every
    daemon claims the cold keys it simulates through per-job-key claim
    records in the store, so daemons sharing one store simulate each
    cold key exactly once between them.

``fleet --members N``
    Launch N ``serve`` daemons over one shared store (each on its own
    ephemeral port), print the combined comma-separated address list
    (and write it to ``--ready-file``), forward SIGTERM/SIGINT to the
    members, and stop the whole fleet if any member dies unexpectedly.
    The members are forked from the launcher after its one import of
    ``repro``, so they show the launcher's command line in ``ps``;
    ``serve`` still starts a member by hand.

``run/status/figures/stats --remote ADDR``
    Point the experiment commands at a running daemon instead of
    simulating locally.  ``ADDR`` is ``PORT``, ``HOST:PORT`` or a unix
    socket path (as printed by ``serve``), or a comma-separated list
    of those.  Every address goes through
    :class:`repro.service.FleetClient` (job-key-hash routing plus
    failover on connection / timeout / overloaded errors); one address
    is a fleet of one.  ``stats`` prints each member's pool, store and
    fault counters and the counters summed over the members.

``clean``
    Delete the store shards and the stats directory under the store root.

The store root defaults to ``results/`` (git-ignored) and can be moved with
``--store`` or the ``REPRO_STORE`` environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from contextlib import contextmanager

from .experiments import EXPERIMENTS, Scale, canonical_json, failed_claims
from .faults import REPRO_FAULTS_ENV, FaultSpecError, install as install_faults
from .service import FleetClient, ServiceError, SimulationService, \
    main_serve
from .sim.options import POOL_KINDS, EngineOptions
from .sim.store import (
    REPRO_STORE_ENV,
    ResultStore,
    fsck_store,
    try_job_key,
)

#: Default store directory (relative to the working directory).
DEFAULT_STORE = "results"

#: Default reference file for ``run golden --check``.
GOLDEN_STATS_FILENAME = "GOLDEN_stats.json"

#: TCP port ``serve`` binds when neither ``--port`` nor ``--socket`` is
#: given (localhost only; ``--port 0`` picks a free ephemeral port).
DEFAULT_SERVICE_PORT = 7341


# ======================================================================
# run
# ======================================================================
@dataclasses.dataclass
class RunReport:
    """Outcome of one ``repro run`` experiment (also the test-facing API).

    ``stats_path`` is ``None`` when the stats file could not be written
    (a daemon on unwritable media still answers with the stats payload).
    """

    name: str
    total_jobs: int
    stored: int
    simulated: int
    seconds: float
    stats: Dict[str, Any]
    stats_path: Optional[Path]

    @classmethod
    def from_payload(cls, name: str, payload: Dict[str, Any]) -> "RunReport":
        """The report of a finished ``submit`` payload (local or remote)."""
        stats_path = payload.get("stats_path")
        return cls(name, payload["total_jobs"], payload["stored"],
                   payload["simulated"], payload["seconds"],
                   payload["stats"], Path(stats_path) if stats_path else None)


def _submit(executor: Any, name: str, scale: Scale,
            force: bool) -> Dict[str, Any]:
    """Run one figure grid on a daemon client or an in-process service."""
    return executor.submit(experiment=name, scale=dataclasses.asdict(scale),
                           force=force, wait=True)


def _run_local(name: str, store: ResultStore, scale: Scale,
               jobs: Optional[int], force: bool,
               hierarchy: Any, pool: Optional[str] = None) -> Dict[str, Any]:
    """One figure on a fresh daemon core without a socket: one worker
    runs in-process, more use ``pool`` (default: the daemon's choice).
    Fresh per figure, because the daemon's degraded mode lasts its life:
    a store that stops taking writes costs a local run cache entries,
    never the figures after it."""
    workers = EngineOptions.from_env(jobs=jobs).jobs
    service = SimulationService(store, jobs=workers,
                                pool=pool if workers > 1 else "thread",
                                hierarchy=hierarchy)
    try:
        return _submit(service, name, scale, force)
    finally:
        service.close()


def run_experiment(name: str, store: ResultStore, scale: Scale,
                   jobs: Optional[int] = None,
                   force: bool = False,
                   hierarchy: Any = None,
                   pool: Optional[str] = None) -> RunReport:
    """Run one experiment through an in-process daemon core (see
    :func:`_run_local`); raises :class:`ServiceError` if a job fails.

    ``hierarchy`` names a declarative hierarchy spec file (JSON, see
    :mod:`repro.memory.spec`) — or is a :class:`HierarchySpec` passed
    programmatically via :func:`repro.api.run_figure` — applied to every
    job of the experiment; the system name becomes the file's stem (or
    ``"custom"``), so the rewritten jobs get their own store keys and
    never collide with the paper systems.  ``pool`` picks the worker
    pool kind when more than one worker runs (see
    :class:`~repro.sim.options.EngineOptions`).
    """
    payload = _run_local(name, store, scale, jobs, force, hierarchy, pool)
    if payload.get("state") != "done":
        raise ServiceError(f"{name} failed: "
                           f"{payload.get('error', 'unknown error')}",
                           code="job_failed")
    return RunReport.from_payload(name, payload)


def _check_claims(report: RunReport) -> int:
    """Evaluate the paper's claims about an experiment on its metrics."""
    experiment = EXPERIMENTS[report.name]
    failed = failed_claims(experiment, report.stats)
    for claim in failed:
        print(f"repro: check failed: {report.name} claim {claim} does not "
              "hold", file=sys.stderr)
    if not failed:
        print(f"  check: {report.name} holds all "
              f"{len(experiment.claims)} paper claims")
    return 1 if failed else 0


def _check_stats(report: RunReport, reference_path: Path) -> int:
    """Diff an experiment's metrics against a committed reference file."""
    if not reference_path.is_file():
        print(f"repro: check failed: reference file {reference_path} "
              "does not exist", file=sys.stderr)
        return 1
    reference = json.loads(reference_path.read_text(encoding="utf-8"))
    if reference == report.stats:
        print(f"  check: {report.name} matches {reference_path}")
        return 0
    print(f"repro: check failed: {report.name} stats differ from "
          f"{reference_path}", file=sys.stderr)
    _print_diff(reference, report.stats)
    return 1


def _print_diff(reference: Any, computed: Any, path: str = "",
                limit: Optional[List[int]] = None) -> None:
    """Print the first few leaf-level differences between two stats trees."""
    if limit is None:
        limit = [10]
    if limit[0] <= 0:
        return
    if isinstance(reference, dict) and isinstance(computed, dict):
        for key in sorted(set(reference) | set(computed)):
            _print_diff(reference.get(key), computed.get(key),
                        f"{path}/{key}", limit)
        return
    if reference != computed:
        limit[0] -= 1
        print(f"  {path}: reference={reference!r} computed={computed!r}",
              file=sys.stderr)


@contextmanager
def _faults_env(args: argparse.Namespace):
    """Arm ``--faults`` for a run's or a daemon's life.

    The schedule is installed in-process *and* exported through
    ``REPRO_FAULTS`` so pool worker processes inherit it; both are
    undone afterwards so in-process callers (tests) see no lasting
    fault plane.
    """
    spec = getattr(args, "faults", None)
    if not spec:
        yield
        return
    from . import faults as faults_module
    previous = os.environ.get(REPRO_FAULTS_ENV)
    install_faults(spec)
    os.environ[REPRO_FAULTS_ENV] = spec
    print(f"repro: fault injection armed: {spec}", file=sys.stderr)
    try:
        yield
    finally:
        faults_module.uninstall()
        if previous is None:
            os.environ.pop(REPRO_FAULTS_ENV, None)
        else:
            os.environ[REPRO_FAULTS_ENV] = previous


def _scale(args: argparse.Namespace) -> Scale:
    return Scale(accesses=args.accesses, warmup=args.warmup,
                 mix_accesses=args.mix_accesses)


def _report_outputs(report: RunReport, args: argparse.Namespace) -> int:
    """The ``--check`` / ``--stats-out`` tail shared by the local and
    remote run paths."""
    exit_code = 0
    if args.check == "" and EXPERIMENTS[report.name].claims:
        exit_code |= _check_claims(report)
    elif args.check is not None:
        reference = Path(args.check or GOLDEN_STATS_FILENAME)
        exit_code |= _check_stats(report, reference)
    if args.stats_out:
        out = Path(args.stats_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(canonical_json(report.stats), encoding="utf-8")
        print(f"  stats written to {out}")
    return exit_code


def _run_all(args: argparse.Namespace, names: List[str],
             run: Callable[[str], Dict[str, Any]]) -> int:
    """Run each experiment with ``run(name)``, then print and check its
    payload: one loop for a daemon and a local run."""
    exit_code = 0
    for name in names:
        payload = run(name)
        if payload.get("state") != "done":
            print(f"repro: run of {name} failed: "
                  f"{payload.get('error', 'unknown error')}",
                  file=sys.stderr)
            for failure in payload.get("failed_jobs", []):
                print(f"  job {failure.get('index')} "
                      f"[{failure.get('code')}]: {failure.get('error')}",
                      file=sys.stderr)
            return 1
        report = RunReport.from_payload(name, payload)
        where = f"@ {payload['member']}" if "member" in payload \
            else f"-> {report.stats_path}"
        print(f"{name}: {report.total_jobs} jobs — {report.stored} from "
              f"store, {report.simulated} simulated, "
              f"{payload['coalesced']} coalesced "
              f"({report.seconds:.2f}s) {where}")
        exit_code |= _report_outputs(report, args)
    return exit_code


def cmd_run(args: argparse.Namespace) -> int:
    names = _resolve_targets(args.experiments)
    if names is None:
        return 2
    if len(names) > 1:
        if args.stats_out:
            print("repro: --stats-out targets a single file; run one "
                  "experiment at a time with it (per-experiment stats are "
                  "always written under <store>/stats/)", file=sys.stderr)
            return 2
        if args.check is not None:
            print("repro: --check checks one experiment at a time; run "
                  "each on its own (e.g. 'run golden --check')",
                  file=sys.stderr)
            return 2
    if args.remote:
        if getattr(args, "hierarchy", None):
            print("repro: --hierarchy does not travel over the wire; "
                  "start the daemon with 'serve --hierarchy FILE' instead",
                  file=sys.stderr)
            return 2
        try:
            with _faults_env(args), FleetClient(args.remote) as client:
                return _run_all(args, names, lambda name: _submit(
                    client, name, _scale(args), args.force))
        except (OSError, ServiceError) as exc:
            print(f"repro: cannot run against daemon at {args.remote}: "
                  f"{exc}", file=sys.stderr)
            return 1
    store = ResultStore(args.store)
    with _faults_env(args):
        try:
            return _run_all(args, names, lambda name: _run_local(
                name, store, _scale(args), args.jobs, args.force,
                args.hierarchy))
        except ServiceError as exc:  # a refused submit
            print(f"repro: {exc}", file=sys.stderr)
            return 1


#: Experiments excluded from the implicit "all" expansion: the sweep and
#: hierarchy-sweep grids are several times the paper's largest and must
#: be asked for by name.
OPT_IN_EXPERIMENTS = ("sweep", "hierarchy-sweep")


def _resolve_targets(requested: Sequence[str]) -> Optional[List[str]]:
    if not requested or "all" in requested:
        names = [name for name in EXPERIMENTS
                 if name not in OPT_IN_EXPERIMENTS]
        names.extend(name for name in OPT_IN_EXPERIMENTS
                     if name in requested)
        return names
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        print(f"repro: unknown experiment(s) {', '.join(unknown)}; "
              f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return None
    return list(requested)


# ======================================================================
# trace
# ======================================================================
def cmd_trace(args: argparse.Namespace) -> int:
    """Inspect one registered workload's generated trace buffer."""
    from .workloads import APPLICATIONS, build_workload

    name = args.workload
    if name not in APPLICATIONS:
        print(f"repro: unknown workload {name!r}; known: "
              f"{', '.join(sorted(APPLICATIONS))}", file=sys.stderr)
        return 2
    workload = build_workload(name)
    start = time.perf_counter()
    buffer = workload.generate_buffer(args.accesses, seed=args.seed)
    seconds = time.perf_counter() - start
    summary = buffer.summary()
    spec = APPLICATIONS[name]
    print(f"{name}  ({spec.suite}, expected benefit: "
          f"{spec.expected_benefit})")
    print(f"  accesses          : {summary['accesses']:>12,}  "
          f"(generated in {seconds:.2f}s)")
    print(f"  loads / stores    : {summary['loads']:>12,}  / "
          f"{summary['stores']:,}  "
          f"(store fraction {summary['store_fraction']:.3f})")
    print(f"  dependent loads   : {summary['dependent_fraction']:>12.3f}  "
          "(fraction serialised by pointer chasing)")
    print(f"  unique blocks     : {summary['unique_blocks']:>12,}")
    print(f"  unique pages      : {summary['unique_pages']:>12,}")
    print(f"  footprint         : {summary['footprint_bytes']:>12,} bytes")
    print(f"  buffer size       : {summary['buffer_bytes']:>12,} bytes  "
          f"({summary['buffer_bytes'] / summary['accesses']:.1f} B/access)")
    if args.save:
        path = buffer.save(args.save)
        print(f"  buffer written to : {path}")
    return 0


# ======================================================================
# status / figures / clean
# ======================================================================
def _coverage_marker(cached: int, total: int) -> str:
    return "complete" if cached == total else ("partial" if cached
                                               else "empty")


def cmd_status(args: argparse.Namespace) -> int:
    scale = _scale(args)
    if args.remote:
        try:
            with FleetClient(args.remote) as client:
                payload = client.status(scale=dataclasses.asdict(scale))
        except (OSError, ServiceError) as exc:
            print(f"repro: cannot query daemon at {args.remote}: {exc}",
                  file=sys.stderr)
            return 1
        coverage = payload["experiments"]
        print(f"daemon @ {payload.get('member', client.address)}: "
              f"store {payload['store']} "
              f"({payload['entries']} stored results)")
    else:
        store = ResultStore(args.store)
        print(f"store: {store.shards_dir} ({len(store)} stored results)")
        coverage = {}
        for name, experiment in EXPERIMENTS.items():
            job_list = experiment.jobs(scale)
            coverage[name] = {"total": len(job_list), "stored": sum(
                try_job_key(job) in store for job in job_list)}
    width = max(len(name) for name in coverage)
    for name, row in coverage.items():
        marker = _coverage_marker(row["stored"], row["total"])
        print(f"  {name:<{width}}  {row['stored']:>4}/"
              f"{row['total']:<4} jobs stored  [{marker}]")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    if args.remote:
        try:
            with FleetClient(args.remote) as client:
                titles = client.figures()["experiments"]
        except (OSError, ServiceError) as exc:
            print(f"repro: cannot query daemon at {args.remote}: {exc}",
                  file=sys.stderr)
            return 1
    else:
        titles = {name: experiment.title
                  for name, experiment in EXPERIMENTS.items()}
    width = max(len(name) for name in titles)
    for name, title in titles.items():
        print(f"  {name:<{width}}  {title}")
    return 0


# ======================================================================
# serve
# ======================================================================
def _serve(args: argparse.Namespace, port: Optional[int],
           socket_path: Optional[str], ready_file: Optional[str]) -> int:
    """Run the daemon behind ``serve`` and behind every ``fleet`` member.

    ``args`` carries the store, pool and job options.  A bad fault
    schedule or hierarchy spec exits 2; an address that cannot be bound
    exits 1.
    """
    try:
        with _faults_env(args):
            return main_serve(args.store, port=port,
                              socket_path=socket_path, jobs=args.jobs,
                              ready_file=ready_file,
                              job_retries=args.job_retries,
                              job_timeout=args.job_timeout,
                              max_queue=args.max_queue,
                              pool=args.pool,
                              hierarchy=args.hierarchy)
    except FaultSpecError as exc:
        print(f"repro: bad --faults schedule: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro: bad --hierarchy spec: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro: cannot start the daemon: {exc}", file=sys.stderr)
        return 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the persistent simulation daemon (see :mod:`repro.service`)."""
    if args.port is not None and args.socket is not None:
        print("repro: serve takes --port or --socket, not both",
              file=sys.stderr)
        return 2
    port = args.port
    if port is None and args.socket is None:
        port = DEFAULT_SERVICE_PORT
    return _serve(args, port, args.socket, args.ready_file)


# ======================================================================
# fleet
# ======================================================================
#: How often the launcher looks for its members' ready files.
FLEET_STARTUP_POLL_S = 0.005


def _fleet_member(args: argparse.Namespace, port: int,
                  ready_file: str) -> None:
    """Body of a forked ``fleet`` member: the ``serve`` daemon on ``port``."""
    import signal

    # Like an exec'd ``serve``, die of a SIGINT that lands before the
    # daemon's own handlers are up (exit code -SIGINT, not a traceback).
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    sys.exit(_serve(args, port, None, ready_file))


def _stop_fleet_members(children: List[Any], grace: float = 5.0) -> None:
    """Terminate fleet members, escalating to SIGKILL after ``grace``."""
    for child in children:
        if child.exitcode is None:
            child.terminate()
    deadline = time.monotonic() + grace
    while any(child.exitcode is None for child in children) and \
            time.monotonic() < deadline:
        time.sleep(0.05)
    for child in children:
        if child.exitcode is None:
            child.kill()
            child.join()


def cmd_fleet(args: argparse.Namespace) -> int:
    """Launch N daemons over one shared store and babysit them.

    Each member is forked from this process, which has already imported
    ``repro``, and runs the ``serve`` daemon on its own ephemeral port
    (or ``--base-port + index``).  Once every member has written its
    ready file the combined comma-separated address list is printed (and
    written to ``--ready-file``) — paste it straight into ``--remote``.
    SIGTERM/SIGINT are forwarded to the members; an unexpected member
    death brings the fleet down.
    """
    import multiprocessing
    import shutil
    import signal
    import tempfile
    import threading

    members = args.members
    if members < 1:
        print("repro: fleet needs at least one member", file=sys.stderr)
        return 2
    # A forked child inherits only the forking thread: a lock another
    # thread held at the fork would stay held in every member for good.
    assert threading.active_count() == 1, \
        "fleet members must be forked before the launcher starts a thread"
    fork = multiprocessing.get_context("fork")
    ready_dir = Path(tempfile.mkdtemp(prefix="repro-fleet-"))
    children = []
    ready_files = []
    try:
        for index in range(members):
            ready = ready_dir / f"member-{index}.addr"
            port = args.base_port + index if args.base_port else 0
            # Not daemonic: a member owns a process pool of its own.
            child = fork.Process(target=_fleet_member,
                                 args=(args, port, str(ready)))
            child.start()
            children.append(child)
            ready_files.append(ready)
    except OSError as exc:
        print(f"repro: cannot fork fleet member: {exc}", file=sys.stderr)
        _stop_fleet_members(children)
        return 1

    addresses = []
    deadline = time.monotonic() + args.startup_timeout
    for child, ready in zip(children, ready_files):
        while not ready.is_file():
            if child.exitcode is not None:
                print(f"repro: fleet member exited with code "
                      f"{child.exitcode} during startup",
                      file=sys.stderr)
                _stop_fleet_members(children)
                return 1
            if time.monotonic() >= deadline:
                print(f"repro: fleet startup timed out after "
                      f"{args.startup_timeout:.0f}s", file=sys.stderr)
                _stop_fleet_members(children)
                return 1
            time.sleep(FLEET_STARTUP_POLL_S)
        addresses.append(ready.read_text(encoding="utf-8").strip())
    shutil.rmtree(ready_dir, ignore_errors=True)

    fleet_address = ",".join(addresses)
    print(f"repro.fleet: {members} members sharing store {args.store}: "
          f"{fleet_address}", flush=True)
    if args.ready_file:
        target = Path(args.ready_file)
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(fleet_address + "\n", encoding="utf-8")
        os.replace(tmp, target)

    stopping = {"signalled": False}

    def _forward(signum: int, frame: Any) -> None:
        del frame
        stopping["signalled"] = True
        for child in children:
            if child.exitcode is None:
                child.terminate()

    previous = {sig: signal.signal(sig, _forward)
                for sig in (signal.SIGTERM, signal.SIGINT)}
    exit_code = 0
    try:
        while any(child.exitcode is None for child in children):
            if not stopping["signalled"]:
                dead = [child.exitcode for child in children
                        if child.exitcode not in (None, 0)]
                if dead:
                    print(f"repro: fleet member died (exit {dead[0]}); "
                          f"stopping the fleet", file=sys.stderr)
                    exit_code = 1
                    _forward(signal.SIGTERM, None)
            time.sleep(0.2)
    except KeyboardInterrupt:  # pragma: no cover - belt and braces
        _forward(signal.SIGTERM, None)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        _stop_fleet_members(children)
    if not exit_code and any(child.exitcode
                             not in (0, -signal.SIGTERM, -signal.SIGINT)
                             for child in children):
        exit_code = 1
    return exit_code


# ======================================================================
# stats
# ======================================================================
def _print_stats(client: FleetClient, payload: dict) -> int:
    """Render the aggregate stats payload: one block per member, then
    the counters summed over every reachable member."""
    info = payload["fleet"]
    counters = payload["counters"]
    print(f"fleet @ {client.address}: {info['reachable']}/{info['size']} "
          f"members reachable, {payload['store']['entries']:,} stored "
          f"results")
    for member in payload["members"]:
        if "error" in member:
            print(f"  member {member['address']}: UNREACHABLE "
                  f"({member['error']})")
            continue
        member_counters = member["counters"]
        pool = member["pool"]
        print(f"  member {member['address']}: {member['workers']} "
              f"{pool['type']} workers, up {member['uptime_seconds']:.0f}s, "
              f"{member_counters['jobs']:,} jobs — "
              f"{member_counters['store_hits']:,} store / "
              f"{member_counters['simulations']:,} simulated / "
              f"{member_counters['coalesced']:,} coalesced"
              + (", DEGRADED" if member["degraded"] else ""))
        children = pool["children"]
        detail = f"{len(children)} children" if children else "in-process"
        if pool["fallback_reason"]:
            detail += f"; fell back: {pool['fallback_reason']}"
        if pool["failovers"]:
            detail += f"; {pool['failovers']:,} pool failovers"
        print(f"    pool            : {pool['type']:>10} ({detail})")
        print(f"    store writes    : {member_counters['put_retries']:>10,} "
              f"put retries, {member_counters['put_failures']:,} put "
              f"failures")
        store = member["store"]
        print(f"    store           : {store['entries']:>10,} entries "
              f"({store['hits']:,} hits / {store['misses']:,} misses / "
              f"{store['puts']:,} puts)")
        for rule, counts in member["faults"].items():
            print(f"    fault {rule:<18}: fired {counts['fired']:,} of "
                  f"{counts['evaluated']:,} evaluations")
    print(f"  requests          : {counters.get('requests', 0):>10,} "
          f"({counters.get('submissions', 0):,} grids, "
          f"{counters.get('jobs', 0):,} jobs) over "
          f"{counters.get('connections', 0):,} connections")
    print(f"  job sources       : "
          f"{counters.get('store_hits', 0):>10,} store / "
          f"{counters.get('simulations', 0):,} simulated / "
          f"{counters.get('coalesced', 0):,} coalesced")
    print(f"  claims            : "
          f"{counters.get('claims_won', 0):>10,} won, "
          f"{counters.get('claims_lost', 0):,} lost, "
          f"{counters.get('claim_waits', 0):,} served after a wait, "
          f"{counters.get('claims_broken', 0):,} stale claims broken")
    print(f"  recovery          : {counters.get('retries', 0):>10,} "
          f"retries, {counters.get('job_failures', 0):,} failures, "
          f"{counters.get('quarantined', 0):,} quarantined, "
          f"{counters.get('shed', 0):,} shed")
    return 0 if info["reachable"] == info["size"] else 1


def cmd_stats(args: argparse.Namespace) -> int:
    """Query the counters of a daemon or fleet (recovery, dedup, store,
    faults), aggregated over every member."""
    try:
        with FleetClient(args.remote) as client:
            payload = client.stats()
    except (OSError, ServiceError) as exc:
        print(f"repro: cannot query daemon at {args.remote}: {exc}",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    return _print_stats(client, payload)


def cmd_clean(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    removed = len(store)
    store.clear()
    stats_dir = store.root / "stats"
    if stats_dir.is_dir():
        for path in sorted(stats_dir.glob("*.json")):
            path.unlink()
        try:
            stats_dir.rmdir()
        except OSError:
            pass
    print(f"removed {removed} stored results under {store.root}")
    return 0


# ======================================================================
# store maintenance
# ======================================================================
def cmd_store(args: argparse.Namespace) -> int:
    """Inspect/repair the sharded store: info, fsck, compact."""
    root = Path(args.store)
    if args.action == "fsck":
        # fsck works at the file-system level so it can salvage stores too
        # corrupt for ResultStore to open at all.
        report = fsck_store(root)
        dropped = report["torn"] + report["corrupt"] + report["foreign"]
        print(f"fsck {root}: {report['kept']} entries kept in place, "
              f"{report['moved']} relocated to their correct shard, "
              f"{dropped} unsalvageable lines dropped "
              f"({report['torn']} torn, {report['corrupt']} corrupt, "
              f"{report['foreign']} foreign); "
              f"{report['rewritten_shards']} shards rewritten; "
              f"{report['claims_reaped']} claims on stored keys removed")
        # A leftover claim is not damage to the results: it does not
        # count as a change.
        changed = dropped or report["moved"] or report["rewritten_shards"]
        return 1 if changed else 0
    store = ResultStore(root)
    if args.action == "compact":
        report = store.compact()
        print(f"compacted {store.root}: {report['entries']} entries kept, "
              f"{report['removed_lines']} superseded lines removed, "
              f"{report['rewritten_shards']} shards rewritten")
        return 0
    shard_files = sorted(store.shards_dir.glob("*.jsonl")) \
        if store.shards_dir.is_dir() else []
    total_bytes = sum(path.stat().st_size for path in shard_files)
    superseded = store.total_lines() - len(store)
    print(f"store: {store.root}")
    print(f"  shards            : {len(shard_files):>12,}  "
          f"('<xx>.jsonl' by leading key bytes)")
    print(f"  entries           : {len(store):>12,}  "
          f"({superseded:,} superseded lines; "
          f"'store compact' removes them)")
    print(f"  bytes             : {total_bytes:>12,}")
    print(f"  index             : "
          f"{'fresh' if store.index_path.is_file() else 'missing':>12}  "
          f"({store.index_path})")
    claims = store.active_claims()
    if claims:
        print(f"  active claims     : {len(claims):>12,}  (daemons "
              f"mid-simulation, or stale after a crash)")
    return 0


# ======================================================================
# Entry point
# ======================================================================
def _add_store_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", default=os.environ.get(REPRO_STORE_ENV) or DEFAULT_STORE,
        help="results-store directory (default: $REPRO_STORE or "
             f"'{DEFAULT_STORE}')")


def _add_store_and_scale(parser: argparse.ArgumentParser) -> None:
    _add_store_arg(parser)
    parser.add_argument("--accesses", type=int, default=Scale.accesses,
                        help="measured accesses per single-core job")
    parser.add_argument("--warmup", type=int, default=Scale.warmup,
                        help="warm-up accesses per single-core job")
    parser.add_argument("--mix-accesses", type=int,
                        default=Scale.mix_accesses,
                        help="accesses per core of each multi-core job")


def _add_remote_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--remote", default=None, metavar="ADDR",
        help="run against a daemon at ADDR (PORT, HOST:PORT, or a unix "
             "socket path — see 'serve'), or a fleet at a comma-separated "
             "list of them, instead of simulating locally")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the paper's figure/table grids through the "
                    "content-addressed results store.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="run experiment grids (store-cached, resumable)")
    run_parser.add_argument("experiments", nargs="*",
                            help="experiment names (see 'figures'), or 'all'")
    run_parser.add_argument("--jobs", type=int, default=None,
                            help="worker processes (default: $REPRO_JOBS)")
    run_parser.add_argument("--force", action="store_true",
                            help="recompute jobs even when already stored")
    run_parser.add_argument("--check", nargs="?", const="", default=None,
                            metavar="FILE",
                            help="without FILE, check the paper's claims "
                                 "about an experiment that has them; else "
                                 "diff computed stats against FILE "
                                 f"(default {GOLDEN_STATS_FILENAME}) and "
                                 "fail on mismatch")
    run_parser.add_argument("--stats-out", default=None, metavar="FILE",
                            help="also write the stats JSON to FILE")
    run_parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="deterministic fault schedule, e.g. "
             "'store.append:eio@p=0.05,seed=7' (same grammar as "
             "$REPRO_FAULTS; see repro.faults)")
    run_parser.add_argument(
        "--hierarchy", default=None, metavar="FILE",
        help="declarative hierarchy spec (JSON, see repro.memory.spec) "
             "applied to every job (default: $REPRO_HIERARCHY)")
    _add_store_and_scale(run_parser)
    _add_remote_arg(run_parser)
    run_parser.set_defaults(func=cmd_run)

    serve_parser = subparsers.add_parser(
        "serve", help="run the persistent simulation daemon")
    serve_parser.add_argument(
        "--port", type=int, default=None, metavar="N",
        help="listen on localhost TCP port N (0 picks a free port; "
             f"default {DEFAULT_SERVICE_PORT} when --socket is not given)")
    serve_parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="listen on a unix socket at PATH instead of TCP")
    serve_parser.add_argument(
        "--jobs", type=int, default=None,
        help="workers in the simulation pool (default: $REPRO_JOBS)")
    serve_parser.add_argument(
        "--pool", choices=POOL_KINDS, default=None,
        help="worker-pool kind (default: $REPRO_POOL or 'process'; "
             "'process' saturates a many-core host, 'thread' keeps jobs "
             "in-process)")
    serve_parser.add_argument(
        "--ready-file", default=None, metavar="FILE",
        help="write the bound address to FILE once listening (how scripts "
             "using --port 0 learn where the daemon landed)")
    serve_parser.add_argument(
        "--job-retries", type=int, default=None, metavar="N",
        help="attempts per job before quarantine (default: "
             "$REPRO_JOB_RETRIES or 3)")
    serve_parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt job deadline (default: $REPRO_JOB_TIMEOUT; "
             "0 disables)")
    serve_parser.add_argument(
        "--max-queue", type=int, default=None, metavar="N",
        help="shed submits beyond N active jobs (default: "
             "$REPRO_MAX_QUEUE; 0 disables)")
    serve_parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="arm deterministic fault injection, e.g. "
             "'worker.job:crash@p=0.2,seed=3;service.response:drop@times=2' "
             "(same grammar as $REPRO_FAULTS; see repro.faults)")
    serve_parser.add_argument(
        "--hierarchy", default=None, metavar="FILE",
        help="declarative hierarchy spec (JSON, see repro.memory.spec) "
             "applied to every job this daemon runs (default: "
             "$REPRO_HIERARCHY)")
    _add_store_arg(serve_parser)
    serve_parser.set_defaults(func=cmd_serve)

    fleet_parser = subparsers.add_parser(
        "fleet", help="launch N daemons over one shared store")
    fleet_parser.add_argument(
        "--members", type=int, default=2, metavar="N",
        help="number of daemons to launch (default: 2)")
    fleet_parser.add_argument(
        "--base-port", type=int, default=0, metavar="N",
        help="first member listens on N, the next on N+1, ... "
             "(default: each member picks a free ephemeral port)")
    fleet_parser.add_argument(
        "--ready-file", default=None, metavar="FILE",
        help="write the combined comma-separated address list to FILE "
             "once every member is listening")
    fleet_parser.add_argument(
        "--startup-timeout", type=float, default=30.0, metavar="SECONDS",
        help="give up if the members are not all listening within "
             "SECONDS (default: 30)")
    fleet_parser.add_argument(
        "--jobs", type=int, default=None,
        help="workers in each member's simulation pool "
             "(default: $REPRO_JOBS)")
    fleet_parser.add_argument(
        "--pool", choices=POOL_KINDS, default=None,
        help="worker-pool kind for each member (default: $REPRO_POOL "
             "or 'process')")
    fleet_parser.add_argument(
        "--job-retries", type=int, default=None, metavar="N",
        help="attempts per job before quarantine (default: "
             "$REPRO_JOB_RETRIES or 3)")
    fleet_parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt job deadline (default: $REPRO_JOB_TIMEOUT; "
             "0 disables)")
    fleet_parser.add_argument(
        "--max-queue", type=int, default=None, metavar="N",
        help="each member sheds submits beyond N active jobs (default: "
             "$REPRO_MAX_QUEUE; 0 disables)")
    fleet_parser.add_argument(
        "--hierarchy", default=None, metavar="FILE",
        help="declarative hierarchy spec applied by every member "
             "(default: $REPRO_HIERARCHY)")
    _add_store_arg(fleet_parser)
    fleet_parser.set_defaults(func=cmd_fleet)

    stats_parser = subparsers.add_parser(
        "stats", help="query a daemon's or fleet's counters (recovery, "
                      "dedup, store)")
    stats_parser.add_argument(
        "--remote", required=True, metavar="ADDR",
        help="daemon address (PORT, HOST:PORT, or a unix socket path), "
             "or a comma-separated list of fleet member addresses")
    stats_parser.add_argument(
        "--json", action="store_true",
        help="print the raw stats payload as JSON (script-friendly)")
    stats_parser.set_defaults(func=cmd_stats)

    trace_parser = subparsers.add_parser(
        "trace", help="inspect a registered workload's trace buffer")
    trace_parser.add_argument("workload",
                              help="registered application name "
                                   "(e.g. 'gapbs.pr', 'stream')")
    trace_parser.add_argument("--accesses", type=int, default=100_000,
                              help="number of accesses to generate")
    trace_parser.add_argument("--seed", type=int, default=0,
                              help="trace RNG seed")
    trace_parser.add_argument("--save", default=None, metavar="FILE",
                              help="also write the buffer to FILE (.npz)")
    trace_parser.set_defaults(func=cmd_trace)

    status_parser = subparsers.add_parser(
        "status", help="show per-experiment store coverage")
    _add_store_and_scale(status_parser)
    _add_remote_arg(status_parser)
    status_parser.set_defaults(func=cmd_status)

    figures_parser = subparsers.add_parser(
        "figures", help="list the available experiments")
    _add_remote_arg(figures_parser)
    figures_parser.set_defaults(func=cmd_figures)

    store_parser = subparsers.add_parser(
        "store", help="inspect and maintain the sharded results store")
    store_parser.add_argument(
        "action", choices=("info", "fsck", "compact"),
        help="info: shard/entry summary; fsck: salvage corrupt lines in "
             "place; compact: drop superseded entries")
    _add_store_arg(store_parser)
    store_parser.set_defaults(func=cmd_store)

    clean_parser = subparsers.add_parser(
        "clean", help="delete the store file and stats directory")
    _add_store_and_scale(clean_parser)
    clean_parser.set_defaults(func=cmd_clean)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # The library only emits logging records; name the component on
    # stderr (``repro.sim.store: ...``) for the length of the command.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    logger = logging.getLogger("repro")
    logger.addHandler(handler)
    try:
        return args.func(args)
    finally:
        logger.removeHandler(handler)
