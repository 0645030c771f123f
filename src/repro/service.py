"""Persistent simulation service: a daemon serving figure requests.

The results store (PR 4) made concurrent writers safe; this module puts a
long-lived process in front of it.  A :class:`SimulationService` owns one
results store, one trace cache and one worker pool, and answers figure/grid
requests the way a production inference service answers queries: warm
requests are served straight from the store with **zero** simulation, cold
cells are simulated exactly once no matter how many clients ask for them
concurrently, and a killed daemon resumes an interrupted grid from the jobs
it already persisted.

A local ``python -m repro run`` (and :func:`repro.api.run_figure`) is a
daemon of one: an in-process service with no socket, so it claims keys,
writes stats and reports exactly like the daemon.  A parallel
:class:`~repro.sim.engine.SimulationEngine` runs its grid on one too
(:meth:`SimulationService.run_jobs`).  Jobs run on a
:class:`~repro.sim.pool.WorkerPool`, and this module is the only one
that submits them to it.

In-flight deduplication
=======================

The headline semantics.  Every engine job is content-addressed by the
SHA-256 of its canonical spec (:func:`repro.sim.store.job_key`), and the
service keeps a *keyed future table* — ``job key -> Future`` — of the
simulations currently running.  A request's grid runs in two phases.  The
*classify* phase (``_classify``) plans every job under one lock hold:

* already stored -> served from the store (a store *hit*);
* already in flight -> the request attaches to the owner's future
  (*coalesced*: no second simulation is ever started for a key);
* otherwise -> the request becomes the key's owner, registers a future and
  submits the job to the worker pool (a *simulation*).

The *collect* phase (``_collect``) then walks the plan in job order.  An
owner (``_own``, the one owner path, which also serves a claim taken over
from a dead daemon and a stored entry that cannot be read) collects its
result within the retry budget, persists it, releases its claim and
resolves the key's future.  A stored entry that cannot be read is
simulated again and counted as a simulation, not as a store hit.

Owners persist their results **in job order** (compute may finish out of
order; puts do not), so the daemon's shard files are byte-identical to a
serial :class:`~repro.sim.engine.SimulationEngine` run of the same grid —
the property the CI service and determinism jobs check with ``diff -r``.

Protocol
========

Newline-delimited JSON over a stream socket — a localhost TCP port or a
unix socket, both served by a threading :mod:`socketserver`.  One request
line, one response line, and the connection stays open for the next
request; one handler thread serves it until the client closes it::

    -> {"op": "submit", "experiment": "golden", "wait": true}
    <- {"ok": true, "id": "req-1-golden", "state": "done",
        "total_jobs": 30, "stored": 0, "simulated": 30, "coalesced": 0,
        "seconds": 1.9, "stats": {...}, "stats_path": "..."}

Operations: ``submit`` (figure name or an explicit job-spec grid),
``status`` (one request, or per-experiment store coverage), ``result``,
``stats`` (server counters), ``health``, ``figures`` and ``shutdown``.
A ``submit`` whose grid is already done when the response is built —
every warm figure read — carries its payload, so clients skip the
``result`` poll.  Errors come back as ``{"ok": false, "error": "...",
"code": "...", "retryable": ...}`` — ``code`` is the machine-readable
taxonomy clients branch on, ``retryable`` whether resubmitting the same
request is safe and useful (it always is semantically: jobs are
content-addressed and coalesced, so a duplicate submit costs nothing).

The daemon closes a connection itself only after an oversized request
line, a response it could not write, or a ``shutdown``; stopping the
daemon closes every open connection.  :class:`ServiceClient` keeps one
connection per calling thread.  When a kept-alive connection fails
before any response byte arrives (EOF, reset, broken pipe), the daemon
closed it or restarted, so the client resends once on a fresh
connection at once; a client of a daemon that closes after every
response therefore still works.  A one-shot client (connect, send one
line, read one, close) works too.

Failure model
=============

The daemon assumes every layer under it can fail and bounds the damage:

* **per-job isolation** — a job that crashes, exceeds its deadline
  (``REPRO_JOB_TIMEOUT``) or keeps failing is retried with a bounded
  budget (``REPRO_JOB_RETRIES``) and then quarantined by its content
  key; only that job fails, its grid completes the rest and reports a
  structured ``failed_jobs`` list, and later submits of a quarantined
  key fail fast (``force`` clears the quarantine);
* **dying workers** — the worker pool rebuilds itself; a job that kills
  its worker fails its attempt (so the retry budget and quarantine
  above apply) and never runs in the daemon's process, while workers
  that die on every job make the pool fall back to threads;
* **admission control** — beyond ``REPRO_MAX_QUEUE`` active jobs new
  grids are shed with a retryable ``overloaded`` error instead of
  queueing unboundedly;
* **degraded read-only mode** — when the store media goes unwritable
  (every put retry exhausted), warm grids keep being served from the
  store while anything needing a write is refused with code
  ``degraded`` and ``health`` reports it; writes resume after the
  daemon is restarted over healthy media.

Fleet serving
=============

Several daemons may share one store directory and serve as a *fleet*
(plain ``python -m repro serve`` daemons, or the ``python -m repro
fleet`` launcher); a lone daemon is a fleet of one.  Every daemon
extends its in-process dedup across processes via per-job-key claim
records in the store (``<store>/claims/``, published with ``os.link``
— see :meth:`repro.sim.store.ResultStore.claim`): the daemon that wins
a cold key's claim simulates it; a loser polls the shared store
(:meth:`~repro.sim.store.ResultStore.refresh`) and serves the owner's
result the moment its locked append lands.  A claim whose owner died
(same-host pid, start-time and per-process token probe, or a TTL for
foreign hosts) is broken and taken over, so a SIGKILLed member never
wedges its losers — nor itself, restarted under the same pid.  Claims are a
work-dedup optimisation, never a correctness gate — the locked shard
appends stay safe without them, so a claim layer failure at worst
recomputes a deterministic job.  A lone daemon always wins its claims,
at a cost of well under 1% of a cold figure.

:class:`FleetClient` is the client side for one address or many: it
takes an address or a comma-separated address list, routes each
submit by job-key hash so identical grids from many clients land on
the same member (maximising in-process coalescing), and fails over to
the next member on ``connection`` / ``timeout`` / ``overloaded``
errors — resubmission after a member dies mid-grid is free, because
the surviving members serve every already-persisted cell from the
store and take over the dead member's claims.  :class:`ServiceClient`
is the one-member client underneath it.

``python -m repro serve`` runs the daemon; ``--remote ADDR`` on ``run`` /
``status`` / ``figures`` / ``stats`` points the experiment commands at
one daemon or, with a comma-separated ``ADDR`` list, at a fleet.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import random
import socket
import socketserver
import sys
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from pathlib import Path
from typing import (Any, Deque, Dict, List, Optional, Sequence, Set, Tuple,
                    Union)

from .experiments import EXPERIMENTS, Scale, canonical_json
from .faults import fault_point
from .memory.spec import HierarchySpec, load_hierarchy
from .sim.engine import (
    Job,
    MixJob,
    SimulationJob,
    apply_hierarchy,
    execute_job,
)
from .sim.options import EngineOptions
from .sim.pool import WorkerPool
from .sim.store import (
    ResultStore,
    job_spec,
    serialize_result,
    try_job_key,
)

_log = logging.getLogger(__name__)

#: Wire-protocol schema tag; servers reject requests from a different one.
PROTOCOL_SCHEMA = "repro-service/1"

#: Longest accepted request line (a figure submit is well under this).
MAX_REQUEST_BYTES = 4 * 1024 * 1024

#: Finished requests retained for ``status``/``result`` polling; the
#: longest-finished ones are evicted so a long-lived daemon's memory stays
#: bounded.
MAX_FINISHED_REQUESTS = 512

#: Per-job retry budget (attempts, including the first) and env override.
DEFAULT_JOB_RETRIES = 3
REPRO_JOB_RETRIES_ENV = "REPRO_JOB_RETRIES"

#: Per-attempt job deadline in seconds (0/unset disables) and override.
REPRO_JOB_TIMEOUT_ENV = "REPRO_JOB_TIMEOUT"

#: Admission-control bound on active jobs (0/unset disables) and override.
REPRO_MAX_QUEUE_ENV = "REPRO_MAX_QUEUE"

#: Longest the server blocks one handler thread on ``result wait=true``
#: before answering with the current snapshot (clients poll in chunks).
MAX_RESULT_WAIT = 60.0

#: Figure grids (experiment x scale) whose job keys and summarised stats
#: one process memoises: the 13 registry grids at a few scales, so a
#: long-lived daemon's memory stays bounded whatever scales its clients
#: send.
GRID_MEMO_SIZE = 32

#: Machine-readable error codes (the values of ``ServiceError.code``).
ERROR_CODES = (
    "bad_request",        # malformed / unanswerable request
    "unknown_experiment", # experiment name not in the registry
    "unknown_request",    # request id unknown (or evicted)
    "overloaded",         # admission control shed the submit; retry later
    "degraded",           # store media unwritable; only warm reads served
    "timeout",            # client-side deadline expired
    "connection",         # client could not reach / keep the daemon
    "job_failed",         # a grid job exhausted its retry budget
    "quarantined",        # job key poisoned by earlier repeated failure
    "shutting_down",      # daemon is draining; resubmit elsewhere/later
    "internal",           # unexpected server-side failure
)

#: A request's job tallies and the daemon counters they add to.
_DAEMON_COUNTER = {"stored": "store_hits", "simulated": "simulations",
                   "coalesced": "coalesced"}


class ServiceError(Exception):
    """A request the service understood but must refuse.

    Args:
        message: Human-readable explanation.
        code: Machine-readable taxonomy entry (one of :data:`ERROR_CODES`);
            travels on the wire so clients can branch without parsing
            prose.
        retryable: Whether resubmitting the same request is safe *and*
            plausibly useful (submits are always semantically safe — jobs
            are content-addressed and coalesced — so this flags whether a
            retry can succeed, e.g. after load-shedding or a dropped
            connection, versus a deterministic refusal).
    """

    def __init__(self, message: str, code: str = "bad_request",
                 retryable: bool = False) -> None:
        super().__init__(message)
        self.code = code
        self.retryable = retryable


class ServiceConnectionError(ServiceError, ConnectionError):
    """The daemon stayed unreachable (or silent) past the retry budget.

    Also a :class:`ConnectionError`, so pre-taxonomy callers catching
    ``OSError`` for an unreachable daemon keep working unchanged.
    """


# ======================================================================
# Addresses
# ======================================================================
def parse_address(address: str) -> Tuple[str, Union[Tuple[str, int], str]]:
    """Parse a service address into ``("tcp", (host, port))`` or
    ``("unix", path)``.

    Accepted forms: ``"7321"`` (localhost TCP port), ``"host:port"``,
    ``"unix:/path/to.sock"`` and any string containing a ``/`` (a unix
    socket path).
    """
    address = address.strip()
    if not address:
        raise ServiceError("empty service address")
    if address.startswith("unix:"):
        return "unix", address[len("unix:"):]
    if "/" in address:
        return "unix", address
    host, sep, port = address.rpartition(":")
    if not sep:
        host, port = "127.0.0.1", address
    try:
        return "tcp", (host or "127.0.0.1", int(port))
    except ValueError:
        raise ServiceError(
            f"invalid service address {address!r} (expected PORT, "
            f"HOST:PORT, or a unix socket path)") from None


def format_address(family: str,
                   location: Union[Tuple[str, int], str]) -> str:
    """The canonical string form clients pass back to :func:`parse_address`."""
    if family == "unix":
        return f"unix:{location}"
    host, port = location
    return f"{host}:{port}"


# ======================================================================
# Wire job specs
# ======================================================================
def job_from_wire(spec: Dict[str, Any]) -> Job:
    """Build an engine job from an explicit wire spec.

    The wire shape mirrors the store's canonical spec kinds: ``single``
    jobs name a registered workload, ``mix`` jobs a Table II mix.  System
    configs do not travel over the wire — remote grids run the paper
    defaults, exactly like the registry experiments they complement.
    """
    if not isinstance(spec, dict):
        raise ServiceError(f"job spec must be an object, got {spec!r}")
    kind = spec.get("kind", "single")
    try:
        if kind == "single":
            return SimulationJob(
                workload=str(spec["workload"]),
                predictor=str(spec["predictor"]),
                num_accesses=int(spec["num_accesses"]),
                warmup_accesses=int(spec.get("warmup_accesses", 0)),
                seed=int(spec.get("seed", 0)))
        if kind == "mix":
            return MixJob(
                mix=str(spec["mix"]),
                predictor=str(spec["predictor"]),
                accesses_per_core=int(spec["accesses_per_core"]),
                seed=int(spec.get("seed", 0)))
    except KeyError as exc:
        raise ServiceError(
            f"job spec missing required field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"malformed job spec: {exc}") from None
    raise ServiceError(f"unknown job kind {kind!r} (expected "
                       f"'single' or 'mix')")


def scale_from_wire(data: Optional[Dict[str, Any]]) -> Scale:
    """Decode the optional ``scale`` request field (defaults preserved)."""
    if data is None:
        return Scale()
    if not isinstance(data, dict):
        raise ServiceError(f"scale must be an object, got {data!r}")
    unknown = set(data) - {"accesses", "warmup", "mix_accesses"}
    if unknown:
        raise ServiceError(f"unknown scale field(s) "
                           f"{', '.join(sorted(unknown))}")
    try:
        return Scale(
            accesses=int(data.get("accesses", Scale.accesses)),
            warmup=int(data.get("warmup", Scale.warmup)),
            mix_accesses=int(data.get("mix_accesses", Scale.mix_accesses)))
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"malformed scale: {exc}") from None


# ======================================================================
# Request bookkeeping
# ======================================================================
class _RequestState:
    """Mutable progress record of one submitted grid."""

    def __init__(self, request_id: str, name: str, total: int,
                 explicit: bool) -> None:
        self.id = request_id
        self.name = name
        self.total = total
        self.explicit = explicit
        self.state = "running"
        self.completed = 0
        self.stored = 0
        self.simulated = 0
        self.coalesced = 0
        self.seconds = 0.0
        self.stats: Optional[Dict[str, Any]] = None
        self.stats_path: Optional[str] = None
        self.results: Optional[List[Dict[str, Any]]] = None
        self.error: Optional[str] = None
        #: Structured per-job failures: ``[{"index", "key", "code",
        #: "error"}, ...]`` — one entry per grid cell that exhausted its
        #: retry budget (the rest of the grid still completed).
        self.failed_jobs: List[Dict[str, Any]] = []
        self.done = threading.Event()

    def snapshot(self, include_payload: bool = False) -> Dict[str, Any]:
        # Read once: a request finishing on another thread mid-snapshot
        # must not yield a payload beside a "running" state.
        state = self.state
        data: Dict[str, Any] = {
            "id": self.id,
            "experiment": self.name if not self.explicit else None,
            "state": state,
            "total_jobs": self.total,
            "completed": self.completed,
            "stored": self.stored,
            "simulated": self.simulated,
            "coalesced": self.coalesced,
            "seconds": self.seconds,
        }
        if self.error is not None:
            data["error"] = self.error
        if self.failed_jobs:
            data["failed_jobs"] = list(self.failed_jobs)
        if include_payload and state == "done":
            data["stats"] = self.stats
            data["stats_path"] = self.stats_path
            if self.explicit:
                data["results"] = self.results
        return data


def wire_json(value: Any) -> bytes:
    """``value`` as the protocol encodes it: compact, sorted-key JSON."""
    return json.dumps(value, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class _WireStats(dict):
    """A figure's summarised stats, carrying their :func:`wire_json`
    encoding in ``wire``.

    The stats are encoded once, when a request summarises the grid, and
    every response that carries them has those bytes written into its
    line (see :meth:`_ServiceHandler._respond`).  ``wire`` would go stale
    if the dict changed, so nothing may mutate it.
    """

    __slots__ = ("wire",)

    def __init__(self, stats: Dict[str, Any]) -> None:
        super().__init__(stats)
        self.wire = wire_json(self)


def _file_identity(stat: os.stat_result) -> Tuple[int, int, int]:
    """Inode, size and mtime: a file whose identity is unchanged still
    holds the bytes it held when the identity was taken."""
    return stat.st_ino, stat.st_size, stat.st_mtime_ns


class _Grid:
    """One grid's jobs and job keys, plus its stats once summarised.

    ``keyset`` holds the keys as one set (with ``None`` for an
    uncacheable job, which no store holds), so whether the store still
    holds the whole grid is one subset test.  ``summary`` is ``(stats,
    canonical_bytes)``: the figure's :class:`_WireStats` and their
    stats-file encoding, set by the latest request that completed the
    grid with no failed job.  Results are content-addressed and
    deterministic, so once every key is stored the stats depend only on
    the keys, and a later request whose keys are all still in the store
    is answered from ``summary`` without reading a single result.
    """

    __slots__ = ("jobs", "keys", "keyset", "summary")

    def __init__(self, jobs: Tuple[Job, ...],
                 keys: Tuple[Optional[str], ...]) -> None:
        self.jobs = jobs
        self.keys = keys
        self.keyset = frozenset(keys)
        self.summary: Optional[Tuple[_WireStats, bytes]] = None


# ======================================================================
# The service core
# ======================================================================
class SimulationService:
    """One store + one worker pool + the keyed in-flight future table.

    This is the whole daemon minus the socket: requests come in through
    :meth:`dispatch` (or the typed methods below it), so the semantics —
    dedup, coalescing, job-order persistence, resume — are testable
    in-process without binding a port.

    Args:
        store: Results-store root directory (or an opened store).
            ``None`` keys no job, so nothing touches a store: only
            :meth:`run_jobs` may be used then.
        jobs: Worker count; ``None`` reads ``REPRO_JOBS`` from the
            environment, defaulting to 1.
        job_retries: Attempts per job (including the first) before it is
            quarantined; ``None`` reads ``REPRO_JOB_RETRIES``, default 3.
        job_timeout: Per-attempt job deadline in seconds; ``None`` reads
            ``REPRO_JOB_TIMEOUT``, 0/unset disables.  A timed-out attempt
            is abandoned (its thread may finish later — puts are
            idempotent by key, so a late result is harmless) and retried.
        max_queue: Admission-control bound on active jobs; ``None`` reads
            ``REPRO_MAX_QUEUE``, 0/unset disables.  Submits beyond the
            bound are shed with a retryable ``overloaded`` error.
        pool: Worker-pool kind, ``"process"`` (default: saturates a
            many-core host; jobs must pickle) or ``"thread"`` (in-process:
            what tests that monkeypatch ``execute_job`` or install an
            in-process fault plane rely on); ``None`` reads
            ``REPRO_POOL``.  Falls back to threads (see ``stats``) when
            process workers cannot spawn or keep dying.
        hierarchy: A hierarchy spec file (jobs named after its stem) or a
            :class:`HierarchySpec` (named ``"custom"``) applied to every
            job; ``None`` reads ``REPRO_HIERARCHY``.
        fleet: Ignored; kept only because ``perfbench/serve.py`` passes it.
    """

    #: Base per-job retry backoff in seconds (doubled per attempt).
    RETRY_BACKOFF = 0.05
    #: Claim-loser store poll interval bounds in seconds (doubled per
    #: poll from base to max — cheap: the fast path is one stat()).
    CLAIM_POLL_BASE = 0.02
    CLAIM_POLL_MAX = 0.5

    def __init__(self, store: Union[str, Path, ResultStore, None],
                 jobs: Optional[int] = None,
                 job_retries: Optional[int] = None,
                 job_timeout: Optional[float] = None,
                 max_queue: Optional[int] = None,
                 pool: Optional[str] = None,
                 hierarchy: Union[str, Path, HierarchySpec, None] = None,
                 fleet: Optional[bool] = None) -> None:
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store: Optional[ResultStore] = store
        # Load the hierarchy spec once at startup: a bad file must refuse
        # the daemon, not poison every submitted experiment later.
        self.hierarchy_spec: Optional[HierarchySpec] = None
        self.hierarchy_name: Optional[str] = None
        if isinstance(hierarchy, HierarchySpec):
            self.hierarchy_spec, self.hierarchy_name = hierarchy, "custom"
            hierarchy = None
        # Worker count, pool kind and hierarchy resolve through
        # EngineOptions — the one place REPRO_JOBS / REPRO_POOL /
        # REPRO_HIERARCHY are parsed.
        options = EngineOptions.from_env(jobs=jobs, pool=pool,
                                         hierarchy=hierarchy)
        self.num_workers = options.jobs
        if self.hierarchy_spec is None and options.hierarchy:
            self.hierarchy_spec = load_hierarchy(options.hierarchy)
            self.hierarchy_name = Path(options.hierarchy).stem
        if job_retries is None:
            env_value = os.environ.get(REPRO_JOB_RETRIES_ENV, "").strip()
            job_retries = int(env_value) if env_value \
                else DEFAULT_JOB_RETRIES
        self.job_retries = max(1, job_retries)
        if job_timeout is None:
            env_value = os.environ.get(REPRO_JOB_TIMEOUT_ENV, "").strip()
            job_timeout = float(env_value) if env_value else 0.0
        self.job_timeout: Optional[float] = job_timeout or None
        if max_queue is None:
            env_value = os.environ.get(REPRO_MAX_QUEUE_ENV, "").strip()
            max_queue = int(env_value) if env_value else 0
        self.max_queue = max(0, max_queue)
        del fleet
        #: This daemon's claim signature (diagnostics in claim records).
        self._claim_owner = f"repro-serve-{os.getpid()}"
        self._closed = False
        self._pool = WorkerPool(self.num_workers, options.pool)
        #: One lock for the classify phase and every store operation: a
        #: job is classified (stored / in flight / owned) atomically with
        #: respect to other requests' claims and puts.
        self._lock = threading.Lock()
        #: job key -> Future resolving to the finished result object.
        self._inflight: Dict[str, "Future[Any]"] = {}
        self._requests: Dict[str, _RequestState] = {}
        #: Ids of the finished requests in ``_requests``, longest-finished
        #: first: :meth:`submit` evicts from the left beyond
        #: ``MAX_FINISHED_REQUESTS``.  A request submitted early but
        #: finished recently is the one a client most likely still polls,
        #: so eviction follows completion, not submission, order.
        self._finished: Deque[str] = deque()
        self._request_threads: List[threading.Thread] = []
        self._next_request = 0
        self.started_at = time.time()
        self.counters = {
            "connections": 0,    # client connections accepted
            "requests": 0,       # protocol requests dispatched
            "submissions": 0,    # grids submitted
            "jobs": 0,           # grid cells across all submissions
            "simulations": 0,    # jobs this daemon actually simulated
            "store_hits": 0,     # jobs answered straight from the store
            "coalesced": 0,      # jobs attached to an in-flight future
            "retries": 0,        # job attempts retried after a failure
            "job_failures": 0,   # jobs that exhausted their retry budget
            "quarantined": 0,    # job keys moved to the poison quarantine
            "shed": 0,           # submits refused by admission control
            "put_retries": 0,    # store appends retried after a failure
            "put_failures": 0,   # store appends abandoned (degraded mode)
            "claims_won": 0,     # claims this daemon won outright
            "claims_lost": 0,    # claims another daemon held first
            "claim_waits": 0,    # lost claims served from the store
            "claims_broken": 0,  # stale claims (dead owner) taken over
        }
        #: Poison quarantine: job key -> last error message.  A key lands
        #: here after exhausting its retry budget; later submits of the
        #: same key fail fast instead of burning the budget again, until
        #: a ``force`` submit clears it.
        self._quarantine: Dict[str, str] = {}
        #: Jobs admitted but not yet classified: the check-and-reserve in
        #: :meth:`_admit` counts them beside the pool's pending calls, so
        #: concurrent submits cannot all pass the backlog check and
        #: overshoot ``max_queue`` before any of them reaches the pool.
        self._reserved_jobs = 0
        self._admission_lock = threading.Lock()
        #: Degraded read-only mode: set when the store media proved
        #: unwritable (every put retry exhausted); sticky until restart.
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        #: ``(experiment, scale) -> _Grid``, filled on the first request
        #: for each grid: a warm request costs one store membership check
        #: per cell, not SHA-256 over canonicalised configs nor decoding
        #: and summarising stored results.
        self._grid = functools.lru_cache(maxsize=GRID_MEMO_SIZE)(
            self._build_grid)
        #: experiment -> ``(stats path, bytes, identity)``: the file at
        #: that path held those bytes when it had that identity
        #: (:func:`_file_identity`); see :meth:`_write_stats`.
        self._stats_files: Dict[
            str, Tuple[str, bytes, Tuple[int, int, int]]] = {}

    @property
    def pool_kind(self) -> str:
        """``"process"`` or ``"thread"`` — after any fallback."""
        return self._pool.kind

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, experiment: Optional[str] = None,
               jobs: Optional[Sequence[Dict[str, Any]]] = None,
               scale: Optional[Dict[str, Any]] = None,
               force: bool = False, wait: bool = False) -> Dict[str, Any]:
        """Submit a figure grid (by name) or an explicit job-spec grid.

        With ``wait`` the call returns the finished payload; otherwise it
        returns immediately with the request id to poll via ``status`` /
        ``result``.  A figure grid whose memoised stats still hold (see
        :meth:`_serve_summary`) is answered inline either way, with no
        request thread.  The response carries the payload (``stats`` /
        ``results``) whenever the request is already ``done``.  A figure's
        ``stats`` dict is shared by every response served from the same
        summary and carries its own wire encoding (:class:`_WireStats`),
        so in-process callers must not mutate it.
        """
        if self._closed:
            raise ServiceError("service is shutting down",
                               code="shutting_down", retryable=True)
        if (experiment is None) == (jobs is None):
            raise ServiceError(
                "submit needs exactly one of 'experiment' or 'jobs'")
        resolved_scale = scale_from_wire(scale)
        if experiment is not None:
            if experiment not in EXPERIMENTS:
                raise ServiceError(
                    f"unknown experiment {experiment!r}; known: "
                    f"{', '.join(EXPERIMENTS)}",
                    code="unknown_experiment")
            grid = self._grid(experiment, resolved_scale)
            name, explicit = experiment, False
        else:
            if not jobs:
                raise ServiceError("empty job list")
            grid = self._new_grid([job_from_wire(spec) for spec in jobs])
            name, explicit = "adhoc", True
        total = len(grid.jobs)
        reserved = self._admit(total)
        try:
            self._refuse_if_degraded(grid.keys, force)
            with self._lock:
                self._next_request += 1
                request_id = f"req-{self._next_request}-{name}"
                state = _RequestState(request_id, name, total, explicit)
                self._requests[request_id] = state
                while len(self._finished) > MAX_FINISHED_REQUESTS:
                    del self._requests[self._finished.popleft()]
                self.counters["submissions"] += 1
                self.counters["jobs"] += total
            if not force and self._serve_summary(state, grid):
                self._release_reservation(reserved)
                return state.snapshot(include_payload=True)
            if wait:
                self._run_request(state, grid, resolved_scale, force,
                                  reserved)
                return state.snapshot(include_payload=True)
            thread = threading.Thread(
                target=self._run_request,
                args=(state, grid, resolved_scale, force, reserved),
                name=f"repro-service-{request_id}", daemon=True)
            # Prune threads that already finished: a long-lived daemon
            # must not pin one Thread object per request it ever served.
            self._request_threads = [old for old in self._request_threads
                                     if old.is_alive()]
            self._request_threads.append(thread)
            thread.start()
        except BaseException:
            # The reservation now belongs to _run_request; anything that
            # kept it from starting must give the slots back, or shed
            # submits would count phantom backlog forever.
            self._release_reservation(reserved)
            raise
        # A grid that finished between start() and here carries its
        # payload; one still running is polled through ``result``.
        return state.snapshot(include_payload=True)

    def _new_grid(self, job_list: Sequence[Job]) -> _Grid:
        """``job_list`` on this daemon's hierarchy override, if any, with
        each job's store key (``None`` for jobs the store cannot hold,
        and for every job when there is no store)."""
        if self.hierarchy_spec is not None:
            job_list = apply_hierarchy(job_list, self.hierarchy_spec,
                                       self.hierarchy_name)
        return _Grid(tuple(job_list), tuple(
            None if self.store is None else try_job_key(job)
            for job in job_list))

    def run_jobs(self, jobs: Sequence[Job], force: bool = False) -> List[Any]:
        """Run ``jobs`` on this core and return their results in job order.

        :class:`~repro.sim.engine.SimulationEngine`'s parallel path: one
        private request's classify and collect phases, with no request
        record, admission check or stats file.  Raises the first failed
        job's :class:`ServiceError` once every healthy job is persisted.
        """
        grid = self._new_grid(jobs)
        state = _RequestState("run-jobs", "adhoc", len(grid.jobs), True)
        results = self._collect(state, grid,
                                self._classify(state, grid, force, reserved=0))
        if state.failed_jobs:
            failure = state.failed_jobs[0]
            raise ServiceError(failure["error"], code=failure["code"])
        return results

    def _build_grid(self, experiment: str, scale: Scale) -> _Grid:
        """One figure grid's record (see ``self._grid``): its job list,
        its job keys and an empty ``summary`` slot.

        The memo is exact: the registry and the suite do not change within
        a process, the hierarchy override is fixed for the life of the
        service, and :func:`scale_from_wire` coerces every scale field to
        ``int``.  It holds key strings and, once a request has completed
        the grid, the summarised stats — never results.  Every request
        still asks the store whether each key is present, so a store
        cleared or compacted under the memo is re-simulated, not served
        from the memo.  The summary lives and is evicted with its grid.
        """
        return self._new_grid(EXPERIMENTS[experiment].jobs(scale))

    def _admit(self, incoming: int) -> int:
        """Load-shed when the job backlog exceeds the bound, atomically.

        Check-and-reserve under one lock: an admitted grid's ``incoming``
        jobs are counted as reserved backlog until :meth:`_classify` has
        submitted them (from then on the pool counts them as pending), so
        concurrent submits racing the check cannot all pass it and
        collectively overshoot ``max_queue``.  Returns
        the reservation the caller must hand to :meth:`_run_request` (or
        release itself on failure).

        Shedding is honest back-pressure: the refusal is marked
        ``retryable``, so a well-behaved client backs off and resubmits —
        and resubmission is free (store hits / coalescing for everything
        that finished meanwhile).
        """
        if not self.max_queue:
            return 0
        with self._admission_lock:
            backlog = self._pool.pending() + self._reserved_jobs
            if backlog < self.max_queue:
                self._reserved_jobs += incoming
                return incoming
        with self._lock:
            self.counters["shed"] += 1
        raise ServiceError(
            f"service overloaded: {backlog} jobs active or admitted "
            f"(max {self.max_queue}); retry with backoff",
            code="overloaded", retryable=True)

    def _release_reservation(self, reserved: int) -> None:
        if not reserved:
            return
        with self._admission_lock:
            self._reserved_jobs -= reserved

    def _refuse_if_degraded(self, keys: Sequence[Optional[str]],
                            force: bool) -> None:
        """In degraded mode, admit only grids that need no store write.

        Warm answers keep flowing (reads still work); anything that would
        have to append — a cold keyed job, or ``force`` recomputation —
        is refused honestly instead of failing halfway through.
        Uncacheable jobs never write the store, so they stay admissible.
        """
        if not self.degraded:
            return
        reason = self.degraded_reason or "store media unwritable"
        if force:
            raise ServiceError(
                f"store is in degraded read-only mode ({reason}); "
                f"force recomputation needs a writable store",
                code="degraded")
        with self._lock:
            for key in keys:
                if key is not None and key not in self.store:
                    raise ServiceError(
                        f"store is in degraded read-only mode ({reason}) "
                        f"and this grid has unstored jobs; only warm "
                        f"requests are served", code="degraded")

    def _serve_summary(self, state: _RequestState, grid: _Grid) -> bool:
        """Answer ``state`` from ``grid.summary`` if every key is stored.

        Returns ``False``, having changed nothing, when the grid has no
        summary or any key is missing from the store (cleared, say): the
        caller then runs the grid normally.  The check is one subset test
        of ``grid.keyset`` against the store, and the stats are the
        memoised :class:`_WireStats`, so nothing here loops over the
        grid's cells or encodes the stats.  A served request counts as
        a store hit per cell, exactly like a warm grid run the long way,
        and rewrites the stats file only if its bytes differ.  The
        caller skips this for ``force``.
        """
        summary = grid.summary
        if summary is None:
            return False
        start = time.perf_counter()
        with self._lock:
            if not self.store.holds_all(grid.keyset):
                return False
            self._count(state, "stored", state.total)
            # Listed as finished a few lines early, in the lock hold the
            # warm read takes anyway: as the newest entry it is evicted
            # only after MAX_FINISHED_REQUESTS later requests finish.
            self._finished.append(state.id)
        state.completed = state.total
        state.stats, payload = summary
        state.stats_path = self._write_stats(state.name, payload)
        state.seconds = time.perf_counter() - start
        state.state = "done"
        state.done.set()
        return True

    def _run_request(self, state: _RequestState, grid: _Grid,
                     scale: Scale, force: bool, reserved: int = 0) -> None:
        start = time.perf_counter()
        try:
            plan = self._classify(state, grid, force, reserved)
            results = self._collect(state, grid, plan)
            state.seconds = time.perf_counter() - start
            if state.failed_jobs:
                # Per-job isolation: the healthy cells completed (and
                # their puts landed), but a grid with holes has no honest
                # stats — report the structured failure list instead.
                state.error = (
                    f"{len(state.failed_jobs)}/{state.total} jobs failed "
                    f"after {self.job_retries} attempts")
                state.state = "failed"
                return
            if state.explicit:
                state.results = [serialize_result(result)
                                 for result in results]
            else:
                experiment = EXPERIMENTS[state.name]
                state.stats = _WireStats(
                    experiment.summarize(results, scale))
                payload = canonical_json(state.stats).encode("utf-8")
                state.stats_path = self._write_stats(state.name, payload)
                grid.summary = (state.stats, payload)
            try:
                with self._lock:
                    self.store.flush_index()
            except OSError as exc:
                # A stale index is never wrong, only slower — losing the
                # flush must not fail an otherwise complete request.
                _log.warning("could not flush store index (%s)", exc)
            state.state = "done"
        except BaseException as exc:  # noqa: BLE001 - reported to client
            # BaseException on purpose: *anything* escaping the job run —
            # including SystemExit/KeyboardInterrupt raised on a worker
            # thread — must leave the request in a terminal state a
            # ``status`` poll can see, never wedged at "running".
            state.error = f"{type(exc).__name__}: {exc}"
            state.state = "failed"
            if not isinstance(exc, Exception):
                raise
        finally:
            with self._lock:
                self._finished.append(state.id)
            state.done.set()

    def _write_stats(self, name: str, payload: bytes) -> Optional[str]:
        """Atomically persist an experiment's stats file; None on failure.

        ``payload`` is the stats' :func:`canonical_json` encoding.  On
        unwritable media the request still succeeds — the stats are in
        the response payload; only the on-disk copy is lost — and the
        daemon flips to degraded read-only mode.  A file that already
        holds these exact bytes (every warm repeat) is left alone: the
        daemon keeps the ``os.stat`` identity of the file it last wrote
        or read with them, so a repeat costs one ``stat``, and a file
        replaced, edited or deleted since is read (and rewritten) again.
        An in-place edit that keeps the size within one tick of the
        file system's mtime clock goes unseen.
        """
        known = self._stats_files.get(name)
        if known is not None and known[1] == payload:
            try:
                if _file_identity(os.stat(known[0])) == known[2]:
                    return known[0]
            except OSError:
                pass  # deleted: rewrite it below
        stats_path = self.store.root / "stats" / f"{name}.json"
        path = str(stats_path)
        try:
            with open(stats_path, "rb") as handle:
                if handle.read() == payload:
                    identity = _file_identity(os.fstat(handle.fileno()))
                    self._stats_files[name] = (path, payload, identity)
                    return path
        except OSError:
            pass  # missing or unreadable: (re)write it below
        # Temp + rename: concurrent same-experiment requests (or a kill
        # mid-write) must never leave a torn stats file.  The identity is
        # the temp file's own, so a rename racing ours cannot vouch for
        # bytes it does not hold.
        tmp = stats_path.with_name(
            f".{stats_path.name}.{threading.get_ident()}.tmp")
        try:
            stats_path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(payload)
                handle.flush()
                identity = _file_identity(os.fstat(handle.fileno()))
            os.replace(tmp, stats_path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            _log.warning("could not write %s (%s); entering degraded "
                         "read-only mode", stats_path, exc)
            self._enter_degraded(str(exc))
            return None
        self._stats_files[name] = (path, payload, identity)
        return path

    def _enter_degraded(self, reason: str) -> None:
        with self._lock:
            if not self.degraded:
                self.degraded = True
                self.degraded_reason = reason

    def _count(self, state: _RequestState, field: str, jobs: int = 1) -> None:
        """Count ``jobs`` cells as ``"stored"``, ``"simulated"`` or
        ``"coalesced"`` for the request and the daemon alike.  Caller
        holds the lock."""
        setattr(state, field, getattr(state, field) + jobs)
        self.counters[_DAEMON_COUNTER[field]] += jobs

    def _classify(self, state: _RequestState, grid: _Grid, force: bool,
                  reserved: int) -> List[Tuple[Any, ...]]:
        """The grid's plan, made in one lock hold so two requests never
        wait on each other's keys in opposite orders; releases the
        admission ``reserved`` for the grid once every job is classified
        (those submitted are then the pool's pending calls).

        ``plan[i]`` is ``("store", key)``, ``("watch", inflight_future)``,
        ``("own", key, claimed, exec_future)``, ``("direct", exec_future)``
        (unkeyed), ``("poison", key)`` (quarantined) or ``("remote",
        key)`` (another daemon holds the claim).
        """
        plan: List[Tuple[Any, ...]] = []
        try:
            with self._lock:
                for job, key in zip(grid.jobs, grid.keys):
                    if key is None:
                        # Unkeyed (uncacheable) jobs always simulate.
                        plan.append(("direct", self._start(state, job, None)))
                        continue
                    if not force and key in self.store:
                        plan.append(("store", key))
                        continue
                    if key in self._quarantine:
                        if not force:
                            plan.append(("poison", key))
                            continue
                        # A force submit is the operator saying "try
                        # again": clear the poison verdict and re-own.
                        del self._quarantine[key]
                    inflight = self._inflight.get(key)
                    if inflight is not None:
                        plan.append(("watch", inflight))
                        self._count(state, "coalesced")
                        continue
                    claimed = False
                    if not force:
                        verdict = self._claim_key(key)
                        if verdict == "stored":
                            plan.append(("store", key))
                            continue
                        if verdict == "lost":
                            plan.append(("remote", key))
                            self.counters["claims_lost"] += 1
                            continue
                        claimed = verdict == "claimed"
                        self.counters["claims_won"] += claimed
                    # Planned before the submit, so a submit that raises
                    # leaves the claim where _abandon releases it.
                    plan.append(("own", key, claimed, None))
                    plan[-1] = ("own", key, claimed,
                                self._start(state, job, key))
        except BaseException as exc:
            self._abandon(plan, exc)
            raise
        finally:
            self._release_reservation(reserved)
        return plan

    def _collect(self, state: _RequestState, grid: _Grid,
                 plan: List[Tuple[Any, ...]]) -> List[Any]:
        """The collect phase, strictly in job order.

        Owners persist their results as they arrive, so the shard files
        the daemon writes are byte-identical to a serial run of the same
        job list, and an interrupted grid keeps every job persisted
        before the kill.  Per-job isolation: a step that fails for good is
        recorded in ``state.failed_jobs`` and the loop moves on, so every
        healthy sibling still lands in the store in job order.
        """
        results: List[Any] = []
        index = 0
        try:
            for index, (job, step) in enumerate(zip(grid.jobs, plan)):
                try:
                    kind = step[0]
                    if kind == "store":
                        with self._lock:
                            result = self.store.get(step[1])
                            if result is not None:
                                self._count(state, "stored")
                        if result is None:
                            # The entry vanished behind us (fsck/compact)
                            # or could not be read: the store is a cache,
                            # so the key is simulated again.
                            result = self._own(state, job, step[1], False)
                    elif kind == "poison":
                        raise ServiceError(
                            f"job {step[1][:12]}… is quarantined after "
                            f"repeated failures "
                            f"({self._quarantine.get(step[1])}); "
                            f"submit with force to retry it",
                            code="quarantined")
                    elif kind == "watch" or kind == "direct":
                        result = step[1].result()
                    elif kind == "remote":
                        result = self._await_remote(job, step[1], state)
                    else:
                        result = self._own(state, job, *step[1:])
                except Exception as exc:  # noqa: BLE001 - isolated below
                    service_error = isinstance(exc, ServiceError)
                    state.failed_jobs.append({
                        "index": index,
                        "key": grid.keys[index],
                        "code": exc.code if service_error else "job_failed",
                        "error": str(exc) if service_error
                        else f"{type(exc).__name__}: {exc}",
                    })
                    results.append(None)
                    continue
                results.append(result)
                state.completed += 1
            return results
        except BaseException as exc:
            # Step ``index`` settled its own key (see _own).
            self._abandon(plan[index + 1:], exc)
            raise

    def _abandon(self, steps: Sequence[Tuple[Any, ...]],
                 error: BaseException) -> None:
        """Give up the unfinished ``own`` steps of a failing request:
        release their claims, so sibling daemons take the work over, and
        fail their in-flight futures, so the requests coalesced onto them
        fail loudly instead of waiting forever."""
        for step in steps:
            if step[0] != "own":
                continue
            _, key, claimed, _ = step
            if claimed:
                self.store.release_claim(key)
            with self._lock:
                inflight = self._inflight.pop(key, None)
            if inflight is not None:
                inflight.set_exception(error)

    def _start(self, state: _RequestState, job: Job,
               key: Optional[str]) -> "Future[Any]":
        """Submit ``job`` to the pool as one of ``state``'s simulations,
        registering ``key``'s in-flight future (when keyed) for later
        requests to coalesce onto.  Caller holds the lock.

        ``RuntimeError`` from a shut-down pool propagates, with nothing
        registered.
        """
        exec_future = self._pool.submit(execute_job, job)
        if key is not None:
            self._inflight[key] = Future()
        self._count(state, "simulated")
        return exec_future

    def _own(self, state: _RequestState, job: Job, key: str, claimed: bool,
             exec_future: Optional["Future[Any]"] = None) -> Any:
        """The one owner path: ``key``'s result, persisted.

        A grid's own step passes the ``exec_future`` :meth:`_classify`
        started.  Without one (a claim taken over, a stored entry that
        could not be read), the key starts here, or coalesces onto this
        daemon's in-flight future for it, surrendering ``claimed``.  The
        owner collects within the retry budget, persists, releases its
        claim only then (a loser that sees it gone finds the result or
        takes over) and resolves the key's in-flight future.
        """
        if exec_future is None:
            with self._lock:
                inflight = self._inflight.get(key)
                if inflight is None:
                    exec_future = self._start(state, job, key)
                else:
                    self._count(state, "coalesced")
            if exec_future is None:
                if claimed:
                    self.store.release_claim(key)
                return inflight.result()
        error: Optional[BaseException] = None
        try:
            result = self._collect_owned(job, key, exec_future)
            self._persist(key, job, result)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            if claimed:
                self.store.release_claim(key)
            with self._lock:
                inflight = self._inflight.pop(key, None)
            if inflight is not None:
                if error is None:
                    inflight.set_result(result)
                else:
                    inflight.set_exception(error)

    def _claim_key(self, key: str) -> str:
        """Contend for a cold key's claim.  Caller holds the lock.

        Returns ``"claimed"`` (this daemon owns the key and must release
        the claim after persisting), ``"stored"`` (another daemon
        persisted the result between our store check and now — serve
        it), ``"lost"`` (another daemon holds the claim — poll the
        store), or ``"unclaimed"`` (the claim layer is unavailable, e.g.
        read-only media: proceed as owner without a claim; at worst a
        sibling daemon duplicates a deterministic job).
        """
        try:
            won = self.store.claim(key, owner=self._claim_owner)
        except OSError:
            return "unclaimed"
        if won:
            # Re-check the store *after* winning: the previous owner may
            # have persisted and released between our in-memory miss and
            # the claim create.  refresh() is one stat() when nothing
            # changed, so this stays cheap for genuinely cold keys.
            if self.store.refresh(key):
                self.store.release_claim(key)
                return "stored"
            return "claimed"
        return "lost"

    def _await_remote(self, job: Job, key: str,
                      state: _RequestState) -> Any:
        """Wait for another daemon's claimed simulation of ``key``.

        The claim-loser contract: poll the shared store until the
        owner's locked append lands, then serve it as a store hit.  If
        the claim disappears without a result (the owner's attempt
        failed) or goes stale (the owner died), contend to take the work
        over and own it here (:meth:`_own`), still deduplicated against
        this daemon's other requests.
        """
        poll = self.CLAIM_POLL_BASE
        while True:
            with self._lock:
                result = None
                if self.store.refresh(key):
                    result = self.store.get(key)
                    if result is not None:
                        self.counters["claim_waits"] += 1
                        self._count(state, "stored")
                    # Present but unreadable: fall through and poll —
                    # refresh() re-scans the shard on the next pass.
            if result is not None:
                # An owner killed between its put and its release left
                # the claim behind; nothing else would remove it.
                self.store.reap_claim(key)
                return result
            claim = self.store.read_claim(key)
            if claim is None:
                # Owner released without persisting (its attempt failed,
                # or its media went read-only): contend for the claim.
                with self._lock:
                    verdict = self._claim_key(key)
                if verdict == "stored":
                    continue  # the result just appeared; serve it above
                if verdict != "lost":
                    return self._own(state, job, key,
                                     claimed=verdict == "claimed")
            elif self.store.claim_is_stale(claim) and self.store.steal_claim(
                    key, owner=self._claim_owner):
                with self._lock:
                    self.counters["claims_broken"] += 1
                return self._own(state, job, key, claimed=True)
            time.sleep(poll)
            poll = min(poll * 2, self.CLAIM_POLL_MAX)

    def _collect_owned(self, job: Job, key: str,
                       exec_future: "Future[Any]") -> Any:
        """One owned job's result, retried within the bounded budget.

        Each attempt may fail (a crashing worker) or exceed the per-
        attempt deadline (a hung simulation: the attempt is abandoned —
        its thread may still finish, which is harmless because puts are
        idempotent by key — and a fresh attempt starts).  After the
        budget the key is quarantined and the failure propagates to
        :meth:`_own`, which fails the in-flight future so coalesced
        watchers unblock, and on to the per-job isolation in
        :meth:`_collect`.
        """
        last_error = "unknown"
        for attempt in range(1, self.job_retries + 1):
            try:
                return exec_future.result(timeout=self.job_timeout)
            except FutureTimeoutError:
                exec_future.cancel()
                last_error = (f"attempt exceeded the {self.job_timeout}s "
                              f"deadline")
            except Exception as exc:  # noqa: BLE001 - retried
                last_error = f"{type(exc).__name__}: {exc}"
            if attempt < self.job_retries:
                with self._lock:
                    self.counters["retries"] += 1
                time.sleep(self.RETRY_BACKOFF * (2 ** (attempt - 1)))
                exec_future = self._pool.submit(execute_job, job)
        error = ServiceError(
            f"job {key[:12]}… failed after {self.job_retries} attempts: "
            f"{last_error}", code="job_failed", retryable=True)
        with self._lock:
            self.counters["job_failures"] += 1
            self.counters["quarantined"] += 1
            self._quarantine[key] = last_error
        raise error

    def _persist(self, key: str, job: Job, result: Any) -> None:
        """Store one owned result with a bounded retry; never raises.

        The job's spec is built here, only for results that are stored:
        warm requests never canonicalise a config.  Exhausting the retry
        budget flips the daemon into degraded read-only mode but does
        **not** fail the job: only the cache entry is lost.
        """
        retries, error = self.store.put_with_retry(
            key, job_spec(job), result, lock=self._lock)
        with self._lock:
            self.counters["put_retries"] += retries
            self.counters["put_failures"] += error is not None
        if error is not None:
            _log.warning("store unwritable; entering degraded read-only "
                         "mode")
            self._enter_degraded(str(error))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self, request_id: Optional[str] = None,
               scale: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """One request's progress, or per-experiment store coverage."""
        if request_id is not None:
            return self._request_state(request_id).snapshot()
        resolved = scale_from_wire(scale)
        # Memoised keys, fetched outside the lock so a polling client
        # never stalls in-flight claims and puts; only the membership
        # checks need the store's lock.
        grids = {name: self._grid(name, resolved).keys
                 for name in EXPERIMENTS}
        coverage: Dict[str, Dict[str, int]] = {}
        with self._lock:
            entries = len(self.store)
            for name, grid_keys in grids.items():
                stored = sum(1 for key in grid_keys if key in self.store)
                coverage[name] = {"stored": stored, "total": len(grid_keys)}
            quarantine = dict(self._quarantine)
        return {"store": str(self.store.root), "entries": entries,
                "experiments": coverage, "quarantine": quarantine}

    def result(self, request_id: str, wait: bool = False,
               timeout: Optional[float] = None) -> Dict[str, Any]:
        """A request's final payload (stats/results) once it is done."""
        state = self._request_state(request_id)
        if wait:
            # The server-side wait is clamped so one slow grid can never
            # pin a handler thread (and its client socket) indefinitely —
            # clients poll in bounded chunks (see ServiceClient.result).
            if timeout is None:
                timeout = MAX_RESULT_WAIT
            state.done.wait(min(float(timeout), MAX_RESULT_WAIT))
        return state.snapshot(include_payload=True)

    def _request_state(self, request_id: str) -> _RequestState:
        state = self._requests.get(request_id)
        if state is None:
            raise ServiceError(f"unknown request id {request_id!r}",
                               code="unknown_request")
        return state

    def stats(self) -> Dict[str, Any]:
        """Server counters: the store/dedup traffic since startup."""
        from .faults import counters_snapshot
        with self._lock:
            counters = dict(self.counters)
            inflight = len(self._inflight)
            quarantined_keys = len(self._quarantine)
            store = {"entries": len(self.store), "hits": self.store.hits,
                     "misses": self.store.misses, "puts": self.store.puts}
        counters["pool_failovers"] = self._pool.failovers
        return {
            "uptime_seconds": time.time() - self.started_at,
            "workers": self.num_workers,
            "pid": os.getpid(),
            "pool": self._pool.describe(),
            "inflight": inflight,
            "active_jobs": self._pool.pending(),
            "quarantined_keys": quarantined_keys,
            "degraded": self.degraded,
            "counters": counters,
            "store": store,
            "faults": counters_snapshot(),
        }

    def health(self) -> Dict[str, Any]:
        payload = {"status": "degraded" if self.degraded else "ok",
                   "pid": os.getpid(),
                   "schema": PROTOCOL_SCHEMA,
                   "store": str(self.store.root),
                   "workers": self.num_workers,
                   "uptime_seconds": time.time() - self.started_at}
        if self.degraded:
            payload["reason"] = self.degraded_reason
        return payload

    def figures(self) -> Dict[str, Any]:
        return {"experiments": {name: experiment.title
                                for name, experiment in EXPERIMENTS.items()}}

    # ------------------------------------------------------------------
    # Dispatch and lifecycle
    # ------------------------------------------------------------------
    def dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one protocol request, returning the response object."""
        with self._lock:
            self.counters["requests"] += 1
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        op = request.get("op")
        try:
            if op == "submit":
                payload = self.submit(
                    experiment=request.get("experiment"),
                    jobs=request.get("jobs"),
                    scale=request.get("scale"),
                    force=bool(request.get("force", False)),
                    wait=bool(request.get("wait", False)))
            elif op == "status":
                payload = self.status(request.get("id"),
                                      scale=request.get("scale"))
            elif op == "result":
                request_id = request.get("id")
                if not isinstance(request_id, str):
                    raise ServiceError("result needs a request 'id'")
                payload = self.result(request_id,
                                      wait=bool(request.get("wait", False)),
                                      timeout=request.get("timeout"))
            elif op == "stats":
                payload = self.stats()
            elif op == "health":
                payload = self.health()
            elif op == "figures":
                payload = self.figures()
            elif op == "shutdown":
                payload = {"stopping": True}
            else:
                raise ServiceError(f"unknown op {op!r}")
        except ServiceError as exc:
            return {"ok": False, "error": str(exc), "code": exc.code,
                    "retryable": exc.retryable}
        except Exception as exc:  # noqa: BLE001 - daemon must not die
            return {"ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "code": "internal", "retryable": False}
        response = {"ok": True}
        response.update(payload)
        return response

    def close(self, wait: bool = True, timeout: float = 10.0) -> None:
        """Stop accepting work and drain the pool.

        Jobs already executing run to completion (their puts land, so a
        restart resumes past them); queued jobs are cancelled.  Request
        threads are given ``timeout`` seconds to finish their bookkeeping.
        A SIGTERM'd daemon leaves no orphaned worker children: see
        :meth:`repro.sim.pool.WorkerPool.shutdown`.
        """
        self._closed = True
        self._pool.shutdown(wait=wait, timeout=timeout)
        if wait:
            deadline = time.time() + timeout
            for thread in self._request_threads:
                thread.join(max(0.0, deadline - time.time()))


# ======================================================================
# The socket layer
# ======================================================================
class _ServiceHandler(socketserver.StreamRequestHandler):
    """JSON request lines in, one JSON response line out per request.

    One handler thread serves one connection for as long as the client
    keeps it open: it answers request lines until EOF, and closes the
    connection itself only when it cannot answer the next line sensibly
    (an oversized line, a dropped response, a ``shutdown`` op).
    """

    def setup(self) -> None:
        super().setup()
        service: SimulationService = self.server.service  # type: ignore
        with service._lock:
            service.counters["connections"] += 1

    def handle(self) -> None:
        service: SimulationService = self.server.service  # type: ignore
        while True:
            try:
                raw = self.rfile.readline(MAX_REQUEST_BYTES + 1)
            except ConnectionError:
                return  # the client reset the connection
            if not raw:
                return
            if len(raw) > MAX_REQUEST_BYTES:
                # The line's tail is still unread: the stream cannot be
                # resynchronised, so answer and close.
                self._respond({"ok": False, "error": "request too large"})
                return
            try:
                request = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                if not self._respond({"ok": False,
                                      "error": "request is not valid JSON"}):
                    return
                continue
            responded = self._respond(service.dispatch(request))
            if isinstance(request, dict) and request.get("op") == "shutdown":
                self.server.request_shutdown()  # type: ignore[attr-defined]
                return
            if not responded:
                return

    def _respond(self, response: Dict[str, Any]) -> bool:
        """Write one response line; False when the connection died.

        The line is ``wire_json(response)`` plus a newline, byte for
        byte.  Figure stats already hold that encoding (their ``wire``),
        so the rest of the response is encoded and the stats bytes go in
        at their sorted place: just before ``"stats_path"``, which every
        response carrying stats has.
        """
        stats_wire = getattr(response.get("stats"), "wire", None)
        if stats_wire is None:
            payload = wire_json(response) + b"\n"
        else:
            rest = dict(response)
            del rest["stats"]
            # An encoded string never holds ',"' (its quotes are escaped),
            # so this splits at the top-level key.
            head, tail = wire_json(rest).split(b',"stats_path":', 1)
            payload = b"".join((head, b',"stats":', stats_wire,
                                b',"stats_path":', tail, b"\n"))
        try:
            # Fault site: the response connection dying under the daemon.
            # An injected drop raises the same ConnectionResetError a real
            # torn socket would; the handler then closes the connection,
            # so the client sees EOF and drives its reconnect path.
            fault_point("service.response")
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            return False  # client went away; nothing to report to
        return True


class _ServerMixin:
    """Shutdown plumbing shared by the TCP and unix variants.

    The server records every open connection, so :meth:`server_close`
    can cut off kept-alive clients the way a stopped daemon refuses new
    connects: their handler threads see EOF and exit, and the clients
    see a closed connection instead of answers from a stopped daemon.
    """

    service: SimulationService
    daemon_threads = True

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request,  # type: ignore[misc]
                                client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)  # type: ignore[misc]

    def server_close(self) -> None:
        super().server_close()  # type: ignore[misc]
        # Under the lock, every recorded connection is still unclosed:
        # shutdown_request forgets a connection before closing it.
        with self._connections_lock:
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the client already hung up

    def request_shutdown(self) -> None:
        # shutdown() blocks until serve_forever exits, so it must be
        # called off the handler thread (which serve_forever may join).
        threading.Thread(target=self.shutdown,  # type: ignore[attr-defined]
                         name="repro-service-shutdown",
                         daemon=True).start()


class ReproTCPServer(_ServerMixin, socketserver.ThreadingTCPServer):
    allow_reuse_address = True

    def get_request(self) -> Tuple[socket.socket, Any]:
        connection, client_address = super().get_request()
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection, client_address


class ReproUnixServer(_ServerMixin,
                      socketserver.ThreadingUnixStreamServer):
    pass


def _unix_socket_alive(socket_path: str, timeout: float = 0.5) -> bool:
    """Whether anything accepts connections on ``socket_path``.

    ``ConnectionRefusedError`` (and a vanished file) means the socket is
    an orphan from a crashed daemon — safe to replace.  Anything else —
    an accepted connect, or even a timeout (a live but busy listener) —
    is treated as alive: when unsure, refuse to steal.
    """
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(timeout)
        probe.connect(socket_path)
    except (ConnectionRefusedError, FileNotFoundError):
        return False
    except OSError:
        return True
    finally:
        probe.close()
    return True


def create_server(service: SimulationService,
                  port: Optional[int] = None,
                  socket_path: Union[str, Path, None] = None
                  ) -> Tuple[socketserver.BaseServer, str]:
    """Bind a server for ``service``; returns ``(server, address)``.

    Exactly one of ``port`` (localhost TCP; 0 picks a free port) and
    ``socket_path`` (unix socket, replaced if a *stale* one exists) must
    be given.  The returned address string round-trips through
    :func:`parse_address`.

    A socket file left by a crashed daemon is unlinked and replaced, but
    a *live* daemon's socket is probed first (a short connect): if
    anything answers, binding is refused with a ``ServiceError`` instead
    of silently stealing the address out from under the running daemon —
    load-bearing once fleets run many daemons per host.
    """
    if (port is None) == (socket_path is None):
        raise ServiceError("specify exactly one of port / socket_path")
    if socket_path is not None:
        socket_path = str(socket_path)
        stale = Path(socket_path)
        if stale.is_socket():
            if _unix_socket_alive(socket_path):
                raise ServiceError(
                    f"a daemon is already listening on {socket_path}; "
                    f"refusing to replace a live socket (stop it first, "
                    f"or serve on a different path)")
            stale.unlink()
        server: socketserver.BaseServer = ReproUnixServer(
            socket_path, _ServiceHandler)
        address = format_address("unix", socket_path)
    else:
        server = ReproTCPServer(("127.0.0.1", port), _ServiceHandler)
        address = format_address("tcp", server.server_address[:2])
    server.service = service  # type: ignore[attr-defined]
    return server, address


# ======================================================================
# The client
# ======================================================================
def _has_payload(response: Dict[str, Any]) -> bool:
    """Whether a submit response already carries the finished payload.

    Keyed on the payload itself, never on ``state``: a daemon that
    predates inline answers reports a finished grid ``done`` without
    its payload, and the caller must then still poll ``result``.
    """
    return "stats" in response or "results" in response


class ServiceClient:
    """Talk to a running daemon: one JSON line per request.

    Each calling thread keeps one open connection to the daemon and
    sends its requests over it in turn, so a request costs one round
    trip, not a connect and a teardown.  Threads that share a client
    never share a socket.  A connection whose thread has exited is
    closed when the next one opens, so the client holds at most one
    connection per live thread; :meth:`close` (or leaving a ``with``
    block) closes every connection the client opened.

    Every method raises :class:`ServiceError` when the daemon answers
    ``ok: false`` (carrying the server's machine-readable ``code`` and
    ``retryable`` flag) or when it stays unreachable after the retry
    budget (codes ``connection`` / ``timeout``, always retryable).

    Resilience: every request gets a per-op IO deadline (``timeout``),
    reconnects with exponential backoff plus deterministic jitter, and is
    safe to resubmit — jobs are content-addressed and coalesced server-
    side, so a retried ``submit`` whose first response was lost costs
    nothing.  Long waits (``result(wait=True)``, ``submit(wait=True)``)
    poll in bounded chunks, so a daemon dying mid-request surfaces as a
    retryable :class:`ServiceError` instead of a hang.  A kept-alive
    connection the daemon has closed (it restarted, or hung up after a
    lost response) is reopened once, at once, outside the retry budget.

    Args:
        address: Daemon address (see :func:`parse_address`).
        timeout: Per-op socket IO deadline in seconds (None = no limit).
        retries: Connection attempts per request (default 3).
        backoff: Base reconnect backoff in seconds, doubled per attempt,
            plus up to 50% deterministic jitter (seeded by the address).
    """

    #: Defaults for the reconnect budget.
    DEFAULT_RETRIES = 3
    DEFAULT_BACKOFF = 0.1
    #: Server-side wait slice per poll of a running request (seconds).
    WAIT_CHUNK = 2.0
    #: Extra socket allowance on top of a server-side wait slice.
    WAIT_GRACE = 10.0

    def __init__(self, address: str, timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 backoff: Optional[float] = None) -> None:
        self.family, self.location = parse_address(address)
        self.address = format_address(self.family, self.location)
        self.timeout = timeout
        self.retries = self.DEFAULT_RETRIES if retries is None \
            else max(1, retries)
        self.backoff = self.DEFAULT_BACKOFF if backoff is None else backoff
        # Deterministic jitter: seeded by the address, so a test run (or
        # a replayed incident) backs off identically every time, while
        # distinct clients still de-synchronise.
        self._jitter = random.Random(f"repro-client:{self.address}")
        #: The calling thread's open ``(socket, reader)``: threads that
        #: share this client never share a socket, so need no lock.
        self._local = threading.local()
        #: Every open connection, from any thread, and the thread that
        #: owns it: for :meth:`close` and the dead-thread sweep.
        self._connections: Dict[Tuple[socket.socket, Any],
                                threading.Thread] = {}
        self._lock = threading.Lock()

    def request(self, op: str, **params: Any) -> Dict[str, Any]:
        """One op with reconnect-and-retry; see :meth:`request_once`."""
        last_error: Optional[ServiceError] = None
        for attempt in range(1, self.retries + 1):
            try:
                return self.request_once(op, **params)
            except ServiceError as error:
                if not error.retryable or attempt >= self.retries:
                    raise
                last_error = error
            except socket.timeout as error:
                last_error = ServiceConnectionError(
                    f"service at {self.address} did not answer within "
                    f"{self.timeout}s ({error})", code="timeout",
                    retryable=True)
            except OSError as error:
                last_error = ServiceConnectionError(
                    f"could not reach service at {self.address} "
                    f"({error})", code="connection", retryable=True)
            if attempt >= self.retries:
                raise last_error
            self._sleep_backoff(attempt)
        raise last_error  # pragma: no cover - loop always raises/returns

    def _sleep_backoff(self, attempt: int) -> None:
        base = self.backoff * (2 ** (attempt - 1))
        time.sleep(base * (1.0 + 0.5 * self._jitter.random()))

    def request_once(self, op: str, io_timeout: Optional[float] = None,
                     **params: Any) -> Dict[str, Any]:
        """One op over the calling thread's connection, no retry.

        ``io_timeout`` overrides the client's socket deadline for this
        request — used by the chunked-wait polls, whose server side
        legitimately blocks for a bounded slice before answering.

        A kept-alive connection that fails before any response byte
        arrives (EOF, reset, broken pipe) was closed by the daemon or
        its restart: the request is resent once on a fresh connection,
        with no backoff.  Any other failure — a timeout included —
        propagates, and every failure drops the connection.
        """
        payload = {"op": op, **{key: value for key, value in params.items()
                                if value is not None}}
        line = wire_json(payload) + b"\n"
        timeout = self.timeout if io_timeout is None else io_timeout
        connection = getattr(self._local, "connection", None)
        raw = b""
        # fileno() < 0: close() closed it from another thread.
        if connection is not None and connection[0].fileno() >= 0:
            try:
                raw = self._exchange(connection, line, timeout)
            except (ConnectionResetError, BrokenPipeError):
                pass  # the daemon closed it: reopen below
        if not raw:
            connection = self._connect(timeout)
            raw = self._exchange(connection, line, timeout)
            if not raw:
                raise ConnectionError(
                    f"service at {self.address} closed the connection "
                    f"without answering")
        try:
            response = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            # The peer is not a repro daemon (an HTTP server, say).
            self._drop(connection)
            raise ServiceError(
                f"malformed (non-JSON) response from {self.address} — "
                f"is a repro daemon really listening there?") from None
        if not isinstance(response, dict) or "ok" not in response:
            self._drop(connection)
            raise ServiceError(f"malformed response from {self.address}")
        if not response["ok"]:
            raise ServiceError(response.get("error", "unknown error"),
                               code=response.get("code", "internal"),
                               retryable=bool(response.get("retryable")))
        return response

    def _exchange(self, connection: Tuple[socket.socket, Any], line: bytes,
                  timeout: Optional[float]) -> bytes:
        """Send one request line and read one response line.

        A failure, or EOF (``b""``), drops the connection.
        """
        sock, reader = connection
        try:
            sock.settimeout(timeout)
            sock.sendall(line)
            raw = reader.readline()
        except BaseException:
            self._drop(connection)
            raise
        if not raw:
            self._drop(connection)
        return raw

    def _connect(self, timeout: Optional[float]
                 ) -> Tuple[socket.socket, Any]:
        """Open the calling thread's connection and record it.

        Closes the connections of threads that have exited first: no
        thread can use them again, and each pins a daemon handler.
        """
        with self._lock:
            orphans = [connection for connection, owner
                       in self._connections.items() if not owner.is_alive()]
            for connection in orphans:
                del self._connections[connection]
        for connection in orphans:
            self._close_connection(connection)
        # Fault site: the connect handshake (refused / dropped / slow).
        fault_point("client.connect")
        if self.family == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(timeout)
                sock.connect(self.location)
            except BaseException:
                sock.close()
                raise
        else:
            sock = socket.create_connection(self.location, timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        connection = (sock, sock.makefile("rb"))
        with self._lock:
            self._connections[connection] = threading.current_thread()
        self._local.connection = connection
        return connection

    def _drop(self, connection: Tuple[socket.socket, Any]) -> None:
        """Forget and close one connection after a failure."""
        if getattr(self._local, "connection", None) is connection:
            self._local.connection = None
        with self._lock:
            self._connections.pop(connection, None)
        self._close_connection(connection)

    @staticmethod
    def _close_connection(connection: Tuple[socket.socket, Any]) -> None:
        sock, reader = connection
        try:
            # Wakes a thread blocked reading it, so close() from another
            # thread does not wait out that thread's response.
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected
        reader.close()
        sock.close()

    def close(self) -> None:
        """Close every connection this client opened, from any thread.

        The client stays usable: a later request opens a new connection.
        """
        with self._lock:
            connections, self._connections = self._connections, {}
        for connection in connections:
            self._close_connection(connection)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # Typed convenience wrappers -----------------------------------------
    def submit(self, experiment: Optional[str] = None,
               jobs: Optional[Sequence[Dict[str, Any]]] = None,
               scale: Optional[Dict[str, Any]] = None,
               force: bool = False, wait: bool = False) -> Dict[str, Any]:
        """Submit a grid; with ``wait``, return its finished payload.

        A daemon answers a grid that is already done — a warm figure
        read — with its payload in the submit response, which is then
        the whole exchange: one round trip.  Otherwise waiting is
        submit-then-poll rather than one long blocking call: each poll
        is IO-bounded, so a daemon dying mid-grid surfaces as a
        retryable error within a chunk instead of a silent hang.
        """
        response = self.request("submit", experiment=experiment, jobs=jobs,
                                scale=scale, force=force or None)
        if not wait or _has_payload(response):
            return response
        return self.result(response["id"], wait=True)

    def status(self, request_id: Optional[str] = None,
               scale: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        return self.request("status", id=request_id, scale=scale)

    def result(self, request_id: str, wait: bool = False,
               timeout: Optional[float] = None) -> Dict[str, Any]:
        """A request's payload; with ``wait``, poll until terminal.

        ``timeout`` bounds the *overall* wait (None = wait for the grid,
        however long, while staying responsive to daemon death); expiry
        raises a retryable :class:`ServiceError` with code ``timeout``.
        """
        if not wait:
            return self.request("result", id=request_id)
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        while True:
            chunk = self.WAIT_CHUNK
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceError(
                        f"request {request_id} still running after "
                        f"{timeout}s", code="timeout", retryable=True)
                chunk = min(chunk, max(remaining, 0.05))
            response = self.request(
                "result", io_timeout=chunk + self.WAIT_GRACE,
                id=request_id, wait=True, timeout=chunk)
            if response.get("state") != "running":
                return response

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")

    def health(self) -> Dict[str, Any]:
        return self.request("health")

    def figures(self) -> Dict[str, Any]:
        return self.request("figures")

    def shutdown(self) -> Dict[str, Any]:
        return self.request("shutdown")

    def wait_healthy(self, timeout: float = 10.0,
                     interval: float = 0.05) -> Dict[str, Any]:
        """Poll ``health`` until the daemon answers (startup helper).

        The deadline is monotonic — a wall-clock step (NTP, suspend)
        during daemon startup must not stretch or cut short the wait.
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except (OSError, ServiceError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(interval)


# ======================================================================
# The fleet client
# ======================================================================
def _first_job_key(experiment: str, scale: Scale) -> Optional[str]:
    """The key of a figure grid's first job: what :class:`FleetClient`
    routes the grid by."""
    grid = EXPERIMENTS[experiment].jobs(scale)
    return try_job_key(grid[0]) if grid else None


class FleetClient:
    """Talk to a fleet of daemons sharing one store — or to one daemon,
    a fleet of one.

    Routing: each submit hashes its grid's first job key and lands on
    ``members[hash % N]`` — deterministic, so identical grids from many
    clients converge on the same member and coalesce in-process, while
    different figures spread across the fleet.  Failover: a member that
    answers with ``connection`` / ``timeout`` / ``overloaded`` /
    ``shutting_down`` is skipped in ring order, reusing each member
    client's own retry/backoff contract underneath.  A member dying
    mid-grid is survivable for the same reason resubmission is free on
    one daemon: jobs are content-addressed, so the next member serves
    every cell the dead member persisted straight from the shared store
    and simulates only the remainder (breaking the dead member's stale
    claims).

    ``stats()`` / ``health()`` aggregate across members (summed
    counters / fleet-wide status) with the per-member payloads riding
    along under ``"members"``.

    Connections are the member clients': each calling thread keeps one
    open connection per member it has talked to, until :meth:`close`.

    Args:
        addresses: One address or a comma-separated address string, or
            a sequence of addresses (each as accepted by
            :func:`parse_address`).
        timeout / retries / backoff: Forwarded to each member's
            :class:`ServiceClient`.
    """

    #: Error codes that route a submit to the next fleet member.
    FAILOVER_CODES = frozenset(
        {"connection", "timeout", "overloaded", "shutting_down"})

    def __init__(self, addresses: Union[str, Sequence[str]],
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 backoff: Optional[float] = None) -> None:
        if isinstance(addresses, str):
            addresses = addresses.split(",")
        cleaned = [addr.strip() for addr in addresses
                   if addr and addr.strip()]
        if not cleaned:
            raise ServiceError("empty fleet address list")
        self.members = [ServiceClient(addr, timeout=timeout,
                                      retries=retries, backoff=backoff)
                        for addr in cleaned]
        self.address = ",".join(member.address for member in self.members)
        #: Memoised :func:`_first_job_key` — the registry does not change
        #: within a process — so a submit does not rebuild and hash a grid.
        self._grid_route_key = functools.lru_cache(maxsize=GRID_MEMO_SIZE)(
            _first_job_key)

    def _route(self, experiment: Optional[str],
               jobs: Optional[Sequence[Dict[str, Any]]],
               scale: Optional[Dict[str, Any]]) -> int:
        """Deterministic starting member for one submit."""
        if len(self.members) == 1:
            return 0  # a fleet of one: no job key to compute
        key: Optional[str] = None
        try:
            if jobs:
                key = try_job_key(job_from_wire(jobs[0]))
            elif experiment in EXPERIMENTS:
                key = self._grid_route_key(experiment,
                                           scale_from_wire(scale))
        except Exception:  # noqa: BLE001 - fall back to the name hash
            key = None
        if key is None:
            seed = experiment or json.dumps(jobs, sort_keys=True,
                                            default=str)
            key = hashlib.sha256(str(seed).encode("utf-8")).hexdigest()
        return int(key[:8], 16) % len(self.members)

    def _ring(self, start: int) -> List[ServiceClient]:
        count = len(self.members)
        return [self.members[(start + step) % count]
                for step in range(count)]

    def _no_member(self,
                   last_error: Optional[ServiceError]) -> ServiceError:
        return last_error or ServiceConnectionError(
            f"no fleet member reachable at {self.address}",
            code="connection", retryable=True)

    def submit(self, experiment: Optional[str] = None,
               jobs: Optional[Sequence[Dict[str, Any]]] = None,
               scale: Optional[Dict[str, Any]] = None,
               force: bool = False, wait: bool = False) -> Dict[str, Any]:
        """Submit to the routed member, failing over in ring order.

        The response gains a ``"member"`` field naming the address that
        served it.  With ``wait``, a submit response that already carries
        the payload is the answer (one round trip); otherwise the member
        is polled, and a member dying mid-grid resubmits the whole grid
        to the next member — free, because every cell the dead member
        persisted is served from the shared store.
        """
        start = self._route(experiment, jobs, scale)
        last_error: Optional[ServiceError] = None
        for member in self._ring(start):
            try:
                response = member.submit(experiment=experiment, jobs=jobs,
                                         scale=scale, force=force)
            except ServiceError as error:
                if error.code in self.FAILOVER_CODES:
                    last_error = error
                    continue
                raise
            try:
                if wait and not _has_payload(response):
                    response = member.result(response["id"], wait=True)
            except ServiceError as error:
                # The accepting member died (or restarted and forgot the
                # request id) mid-grid: resubmit to the next member.
                if error.code in ("connection", "timeout",
                                  "unknown_request"):
                    last_error = error
                    continue
                raise
            response["member"] = member.address
            return response
        raise self._no_member(last_error)

    def _any_member(self, call: Any,
                    extra_codes: Tuple[str, ...] = ()) -> Dict[str, Any]:
        """Run ``call(member)`` on the first member that can answer."""
        last_error: Optional[ServiceError] = None
        for member in self.members:
            try:
                response = call(member)
            except ServiceError as error:
                if error.code in self.FAILOVER_CODES or \
                        error.code in extra_codes:
                    last_error = error
                    continue
                raise
            response["member"] = member.address
            return response
        raise self._no_member(last_error)

    def status(self, request_id: Optional[str] = None,
               scale: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        # Request ids live on the member that accepted the submit, so a
        # targeted status walks the fleet past "unknown_request".
        return self._any_member(
            lambda member: member.status(request_id, scale=scale),
            extra_codes=("unknown_request",) if request_id else ())

    def result(self, request_id: str, wait: bool = False,
               timeout: Optional[float] = None) -> Dict[str, Any]:
        return self._any_member(
            lambda member: member.result(request_id, wait=wait,
                                         timeout=timeout),
            extra_codes=("unknown_request",))

    def figures(self) -> Dict[str, Any]:
        return self._any_member(lambda member: member.figures())

    def stats(self) -> Dict[str, Any]:
        """Fleet-wide counters: summed across the reachable members."""
        totals: Dict[str, Any] = {}
        members: List[Dict[str, Any]] = []
        reachable = 0
        entries = 0
        for member in self.members:
            try:
                payload = member.stats()
            except (OSError, ServiceError) as error:
                members.append({"address": member.address,
                                "error": str(error)})
                continue
            reachable += 1
            payload["address"] = member.address
            members.append(payload)
            for name, value in (payload.get("counters") or {}).items():
                if isinstance(value, (int, float)):
                    totals[name] = totals.get(name, 0) + value
            store = payload.get("store") or {}
            # Every member views the same store; report the freshest view.
            entries = max(entries, store.get("entries", 0))
        if not reachable:
            raise self._no_member(None)
        return {"fleet": {"size": len(self.members),
                          "reachable": reachable},
                "counters": totals,
                "store": {"entries": entries},
                "members": members}

    def health(self) -> Dict[str, Any]:
        """Per-member health plus a fleet-wide verdict."""
        members: List[Dict[str, Any]] = []
        healthy = 0
        for member in self.members:
            try:
                payload = member.health()
                if payload.get("status") == "ok":
                    healthy += 1
            except (OSError, ServiceError) as error:
                payload = {"status": "unreachable", "error": str(error)}
            payload["address"] = member.address
            members.append(payload)
        if healthy == len(self.members):
            status = "ok"
        elif healthy:
            status = "degraded"
        else:
            status = "unreachable"
        return {"status": status,
                "fleet": {"size": len(self.members), "healthy": healthy},
                "members": members}

    def wait_healthy(self, timeout: float = 10.0,
                     interval: float = 0.05) -> Dict[str, Any]:
        """Block until every member answers ``health`` (startup helper)."""
        deadline = time.monotonic() + timeout
        members = []
        for member in self.members:
            remaining = max(0.05, deadline - time.monotonic())
            payload = member.wait_healthy(timeout=remaining,
                                          interval=interval)
            payload["address"] = member.address
            members.append(payload)
        return {"status": "ok", "members": members}

    def shutdown(self) -> Dict[str, Any]:
        """Ask every reachable member to stop (best-effort)."""
        stopped = 0
        for member in self.members:
            try:
                member.shutdown()
                stopped += 1
            except (OSError, ServiceError):
                pass
        return {"stopping": True, "members": stopped}

    def close(self) -> None:
        """Close every member client's connections."""
        for member in self.members:
            member.close()

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def serve_forever(service: SimulationService,
                  server: socketserver.BaseServer,
                  poll_interval: float = 0.1) -> None:
    """Run the accept loop until :meth:`request_shutdown` (or a signal
    handler calling ``server.shutdown()``) stops it, then drain."""
    try:
        server.serve_forever(poll_interval=poll_interval)
    finally:
        server.server_close()
        service.close()
        if isinstance(server, ReproUnixServer):
            try:
                os.unlink(server.server_address)  # type: ignore[arg-type]
            except OSError:
                pass


def main_serve(store: Union[str, Path], port: Optional[int] = None,
               socket_path: Union[str, Path, None] = None,
               jobs: Optional[int] = None,
               ready_file: Union[str, Path, None] = None,
               job_retries: Optional[int] = None,
               job_timeout: Optional[float] = None,
               max_queue: Optional[int] = None,
               pool: Optional[str] = None,
               hierarchy: Optional[str] = None) -> int:
    """Entry point behind ``python -m repro serve``.

    Binds, announces the address on stdout (and in ``ready_file`` when
    given — the way scripts using an ephemeral ``--port 0`` learn where
    the daemon landed), installs SIGTERM/SIGINT handlers for graceful
    shutdown, and serves until stopped.
    """
    import signal

    service = SimulationService(store, jobs=jobs, job_retries=job_retries,
                                job_timeout=job_timeout,
                                max_queue=max_queue, pool=pool,
                                hierarchy=hierarchy)
    server, address = create_server(service, port=port,
                                    socket_path=socket_path)
    print(f"repro.service: listening on {address} "
          f"(store {service.store.root}, {service.num_workers} "
          f"{service.pool_kind} worker"
          f"{'s' if service.num_workers != 1 else ''})", flush=True)
    if service.hierarchy_spec is not None:
        print(f"repro.service: hierarchy override "
              f"{service.hierarchy_name!r} "
              f"({service.hierarchy_spec.depth}-level)", flush=True)
    if ready_file is not None:
        ready = Path(ready_file)
        ready.parent.mkdir(parents=True, exist_ok=True)
        tmp = ready.with_name(ready.name + ".tmp")
        tmp.write_text(address + "\n", encoding="utf-8")
        os.replace(tmp, ready)

    def _stop(signum: int, frame: Any) -> None:
        del frame
        print(f"repro.service: signal {signum}, shutting down", flush=True,
              file=sys.stderr)
        server.request_shutdown()  # type: ignore[attr-defined]

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _stop)
    try:
        serve_forever(service, server)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0
