"""Batched, parallel simulation engine.

Every figure in the paper is a grid of *independent* (workload, predictor,
config, seed) simulations, so throughput — not single-run latency — is what
limits how much of the design space the reproduction can cover.  This module
provides the shared substrate the drivers and benchmarks run on:

* :class:`SimulationJob` / :class:`MixJob` — picklable descriptions of one
  single-core or one multi-core simulation;
* :func:`expand_grid` — expand (workloads x predictors x seeds) into a job
  list;
* :class:`TraceCache` — a process-local LRU cache of generated workload
  traces, so a six-system comparison generates each (workload, seed, length)
  trace **once** instead of once per system — and walks it through the
  hierarchy once: the cache also holds each trace's
  :class:`~repro.memory.hierarchy.Walk`, which :func:`execute_job` hands
  to every compared system to replay (see :mod:`repro.memory.hierarchy`,
  "Walk and replay");
* :class:`SimulationEngine` — runs a job list, reading through the
  results store: serially in the caller's thread, or on an in-process
  daemon core when it has more than one worker.

Parallelism
===========

The worker count comes from, in order: the ``jobs=`` constructor argument,
the ``REPRO_JOBS`` environment variable, and finally 1 (serial).  One
worker runs the jobs one by one in the caller's thread, loading neither
the daemon nor a worker pool.  More hand the grid to a fresh in-process
:class:`~repro.service.SimulationService`
(:meth:`~repro.service.SimulationService.run_jobs`), the one code that
submits jobs to a worker pool (:mod:`repro.sim.pool`); there a failing
job gets the daemon's retry budget, and keyed jobs take the store's
claims.  Results are returned in job order regardless of completion
order, and every job builds its own fresh system state, so
**serial and parallel execution produce bit-identical results**: workload
traces are derived deterministically from (workload name, seed) — see
:meth:`repro.workloads.base.Workload.generate_buffer` — and no mutable state
is shared between jobs.

Example::

    engine = SimulationEngine()          # REPRO_JOBS env knob, default serial
    jobs = expand_grid(HIGHLIGHTED_APPLICATIONS, PREDICTOR_NAMES,
                       num_accesses=10_000, warmup_accesses=2_000)
    results = engine.run(jobs)           # List[SimulationResult], job order

Trace cache
===========

:data:`TRACE_CACHE` is the module-level cache used by the drivers.  Traces
are held as columnar :class:`~repro.trace.TraceBuffer` objects, sliced
zero-copy by the warm-up/measure split.  Workloads named by their suite
application name (``"gapbs.bfs"``) are cached under that name, so any
caller asking for the same (name, accesses, seed, base address, thread)
tuple receives the *identical* buffer.  Workload
objects are cached by object identity (the cache keeps the object alive
while its traces are cached), which makes the cache safe for ad-hoc
workloads whose parameters are not captured by their name.

Traces live only in memory.  A miss generates the trace in the process
that needs it (about 15 ms for a default-scale trace of 5,200 accesses);
nothing is written to disk.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..faults import fault_point
from ..trace import TraceBuffer
from ..workloads.base import Workload
from ..workloads.mixes import get_mix, mix_core_plan
from ..workloads.suite import build_workload
from .config import SystemConfig
from .options import EngineOptions
from .store import (
    ResultStore,
    UncacheableJobError,
    job_spec,
    open_store,
    spec_key,
)

WorkloadSpec = Union[str, Workload]

#: Walks a :class:`TraceCache` holds at once.  Most grids run the systems
#: of one trace back to back, so one walk in use at a time is the common
#: case; fig15 runs its eight applications once per system variant, and
#: the variants share one walk per application (only replay-only fields
#: tell them apart, see :func:`repro.sim.system.walk_config`), so the
#: bound keeps eight without letting walks (typed columns of 65-135
#: bytes per default-scale access, about 0.5 MB per 5,200-access walk)
#: pile up.
MAX_WALKS = 8


# ======================================================================
# Trace cache
# ======================================================================
class TraceCache:
    """Process-local LRU cache of generated traces.

    In-memory keys are (workload identity, num_accesses, seed, base_address,
    thread_id).  Suite applications passed by name share one identity per
    name; :class:`~repro.workloads.base.Workload` objects are keyed by
    ``id()`` and kept referenced by the cache entry, so an identity is never
    reused while its traces are cached.

    Repeated lookups return the **same**
    :class:`~repro.trace.TraceBuffer` object — callers must treat cached
    buffers as immutable.

    Next to the traces the cache holds up to :data:`MAX_WALKS` hierarchy
    walks of them (:meth:`walk`, least recently used out first), which
    :func:`execute_job` hands to the systems it builds.  A walk leaves
    with any trace it walked, and :meth:`clear` drops them all.

    Args:
        max_traces: LRU capacity.
        spill_dir: Accepted and ignored.
    """

    # ``spill_dir`` and ``disk_hits`` (always 0) are read by perfbench
    # until ROADMAP item 6.
    def __init__(self, max_traces: int = 128, spill_dir: object = None
                 ) -> None:
        if max_traces <= 0:
            raise ValueError("max_traces must be positive")
        self.max_traces = max_traces
        # key -> (workload-or-None, buffer); OrderedDict gives LRU order.
        self._traces: "OrderedDict[Tuple, Tuple[Optional[Workload], TraceBuffer]]" = OrderedDict()
        self._named_workloads: Dict[str, Workload] = {}
        # The daemon's worker threads share one process-global cache, so
        # the LRU bookkeeping (move_to_end/popitem) and the counters must
        # be guarded; generation itself happens outside the lock.
        self._lock = threading.RLock()
        # (buffer keys, walk key) -> walk, in LRU order; id(buffer) -> key
        # of every cached buffer (each is kept alive by its entry).
        self._walks: "OrderedDict[Tuple, object]" = OrderedDict()
        self._buffer_keys: Dict[int, Tuple] = {}
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.walk_hits = 0
        self.walk_misses = 0

    # ------------------------------------------------------------------
    def resolve(self, workload: WorkloadSpec) -> Workload:
        """Return the Workload object for a spec (name or instance)."""
        if isinstance(workload, str):
            with self._lock:
                resolved = self._named_workloads.get(workload)
                if resolved is None:
                    resolved = build_workload(workload)
                    self._named_workloads[workload] = resolved
            return resolved
        return workload

    def _key(self, workload: WorkloadSpec, num_accesses: int, seed: int,
             base_address: int, thread_id: int) -> Tuple:
        if isinstance(workload, str):
            identity: Tuple = ("app", workload)
        else:
            identity = ("obj", id(workload))
        return identity + (num_accesses, seed, base_address, thread_id)

    def get(self, workload: WorkloadSpec, num_accesses: int, seed: int = 0,
            base_address: int = 0, thread_id: int = 0) -> TraceBuffer:
        """Return the (cached) trace buffer for the generation parameters,
        generating it on a miss."""
        key = self._key(workload, num_accesses, seed, base_address, thread_id)
        with self._lock:
            entry = self._traces.get(key)
            if entry is not None:
                self.hits += 1
                self._traces.move_to_end(key)
                return entry[1]
            self.misses += 1
        resolved = self.resolve(workload)
        buffer = resolved.generate_buffer(num_accesses, seed=seed,
                                          base_address=base_address,
                                          thread_id=thread_id)
        with self._lock:
            # Another thread may have cached the same key while this one
            # generated: keep the first buffer, so every caller of a
            # key receives the identical (immutable) object.
            entry = self._traces.get(key)
            if entry is not None:
                self._traces.move_to_end(key)
                return entry[1]
            # Keep the workload object referenced so an id()-based key can
            # never be recycled while its trace is cached.
            self._traces[key] = (
                None if isinstance(workload, str) else resolved, buffer)
            self._buffer_keys[id(buffer)] = key
            if len(self._traces) > self.max_traces:
                evicted, (_, old) = self._traces.popitem(last=False)
                del self._buffer_keys[id(old)]
                for walk_key in [walk_key for walk_key in self._walks
                                 if evicted in walk_key[0]]:
                    del self._walks[walk_key]
        return buffer

    def walk(self, traces: Tuple[TraceBuffer, ...], key, build):
        """The shared hierarchy walk of cached ``traces`` under ``key``.

        ``key`` names everything the walk depends on besides the traces
        (see :func:`repro.sim.system.walk_config`); ``build()`` makes the
        walk on a miss.  When a buffer in ``traces`` is not one this cache
        holds, the walk ``build()`` makes is returned without being kept
        or counted.
        """
        with self._lock:
            buffer_keys = tuple(self._buffer_keys.get(id(buffer))
                                for buffer in traces)
            held = None not in buffer_keys
            if held:
                entry_key = (buffer_keys, key)
                walk = self._walks.get(entry_key)
                if walk is not None:
                    self.walk_hits += 1
                    self._walks.move_to_end(entry_key)
                    return walk
                self.walk_misses += 1
        walk = build()
        if not held:
            return walk
        with self._lock:
            if any(self._buffer_keys.get(id(buffer)) != buffer_key
                   for buffer, buffer_key in zip(traces, buffer_keys)):
                return walk  # a trace left the cache meanwhile
            # Another thread may have walked the same key meanwhile: keep
            # the first, like get() keeps the first buffer.
            walk = self._walks.setdefault(entry_key, walk)
            self._walks.move_to_end(entry_key)
            if len(self._walks) > MAX_WALKS:
                self._walks.popitem(last=False)
        return walk

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
            self._buffer_keys.clear()
            self._walks.clear()
            self._named_workloads.clear()
            self.hits = 0
            self.misses = 0
            self.walk_hits = 0
            self.walk_misses = 0


#: The module-level cache shared by the drivers (one per worker process).
TRACE_CACHE = TraceCache()


# ======================================================================
# Jobs
# ======================================================================
@dataclass(frozen=True)
class SimulationJob:
    """One single-core simulation: a workload on one system configuration.

    ``workload`` may be a suite application name (preferred: cheap to pickle
    and cacheable across jobs) or a Workload object.
    """

    workload: WorkloadSpec
    predictor: str
    num_accesses: int
    warmup_accesses: int = 0
    seed: int = 0
    config: Optional[SystemConfig] = None


@dataclass(frozen=True)
class MixJob:
    """One multi-core simulation: a Table II mix under one predictor."""

    mix: str
    predictor: str
    accesses_per_core: int
    seed: int = 0
    config: Optional[SystemConfig] = None


Job = Union[SimulationJob, MixJob]


def apply_hierarchy(jobs: Sequence[Job], spec, name: str) -> List[Job]:
    """Rewrite every job's system config to run on ``spec``.

    ``spec`` is a :class:`~repro.memory.spec.HierarchySpec`; ``name``
    becomes the rewritten configs' system name (the CLI passes the spec
    file's stem) so stored results and reports say which hierarchy they
    ran on.  Jobs that carried no explicit config get the paper default
    for their kind first, mirroring :func:`execute_job`'s own fallback —
    the substitution must not change anything *except* the hierarchy.
    """
    import dataclasses

    rewritten: List[Job] = []
    for job in jobs:
        if job.config is not None:
            base = job.config
        elif isinstance(job, MixJob):
            base = SystemConfig.paper_multi_core()
        else:
            base = SystemConfig.paper_single_core()
        config = dataclasses.replace(base, name=name, hierarchy=spec)
        rewritten.append(dataclasses.replace(job, config=config))
    return rewritten


def expand_grid(workloads: Sequence[WorkloadSpec],
                predictors: Sequence[str],
                num_accesses: int,
                warmup_accesses: int = 0,
                seeds: Sequence[int] = (0,),
                config: Optional[SystemConfig] = None) -> List[SimulationJob]:
    """Expand (workloads x predictors x seeds) into a flat job list.

    Jobs are ordered workload-major, then seed, then predictor, which keeps
    all systems of one comparison adjacent (maximising trace-cache locality
    inside each worker process).
    """
    return [
        SimulationJob(workload=workload, predictor=predictor,
                      num_accesses=num_accesses,
                      warmup_accesses=warmup_accesses, seed=seed,
                      config=config)
        for workload in workloads
        for seed in seeds
        for predictor in predictors
    ]


# ======================================================================
# Job execution (module-level so a process pool can pickle it)
# ======================================================================
def mix_traces(mix_name: str, accesses_per_core: int, seed: int = 0,
               trace_cache: Optional[TraceCache] = None
               ) -> Tuple[List[TraceBuffer], List[str]]:
    """Per-core trace buffers (and workload names) for a Table II mix,
    served through the trace cache (placement and seeds:
    :func:`repro.workloads.mixes.mix_core_plan`)."""
    # Explicit None check: an empty TraceCache has len() == 0 and is falsy.
    cache = TRACE_CACHE if trace_cache is None else trace_cache
    mix = get_mix(mix_name)
    traces: List[TraceBuffer] = []
    for core, app_name, base, core_seed in mix_core_plan(mix, seed):
        traces.append(cache.get(app_name, accesses_per_core, seed=core_seed,
                                base_address=base, thread_id=core))
    return traces, list(mix.applications)


def execute_job(job: Job, trace_cache: Optional[TraceCache] = None):
    """Run one job to completion in the current process.

    This is the single entry point of the engine's serial loop and the
    daemon's pool workers; it builds a fresh system, pulls the trace(s)
    through ``trace_cache`` (the process-local :data:`TRACE_CACHE` by
    default), looks up their shared hierarchy walk in the same cache (the
    only place that does), hands it to the system to replay, and returns
    the picklable result.
    """
    # Fault site: a worker crashing (or being killed) while holding a job.
    # Sits before any system state is built, so a retried job replays from
    # scratch and stays bit-identical.
    fault_point("worker.job")

    # Imported here, not at module scope: system.py/multicore.py import this
    # module for their comparison drivers.
    from .multicore import MultiCoreSystem
    from .system import SimulatedSystem, walk_config

    # Explicit None check: an empty TraceCache has len() == 0 and is falsy.
    cache = TRACE_CACHE if trace_cache is None else trace_cache
    if isinstance(job, MixJob):
        base_config = job.config or SystemConfig.paper_multi_core()
        system = MultiCoreSystem(base_config.with_predictor(job.predictor))
        traces, names = mix_traces(job.mix, job.accesses_per_core,
                                   seed=job.seed, trace_cache=cache)
        walker, key = walk_config(system.config)
        walks = cache.walk(tuple(traces), ("mix",) + key,
                           lambda: MultiCoreSystem(walker).walk(traces))
        return system.run_traces(traces, names, job.mix, walks=walks)

    base_config = job.config or SystemConfig.paper_single_core()
    system = SimulatedSystem(base_config.with_predictor(job.predictor))
    workload = cache.resolve(job.workload)
    total = job.num_accesses + job.warmup_accesses
    buffer = cache.get(job.workload, total, seed=job.seed)
    walker, key = walk_config(system.config)
    walk = cache.walk((buffer,), ("core",) + key,
                      lambda: SimulatedSystem(walker).hierarchy.walk(buffer))
    # Zero-copy split: both halves are views into the cached buffer.
    warmup = job.warmup_accesses
    if warmup:
        system.hierarchy.run_buffer(buffer[:warmup], walk)
        system.reset_statistics()
    return system.run_trace(buffer[warmup:], workload.name, walk)


# ======================================================================
# Engine
# ======================================================================
class SimulationEngine:
    """Runs simulation jobs in the caller's thread or on a daemon core.

    Args:
        jobs: Worker count.  ``None`` reads ``REPRO_JOBS`` from the
            environment, defaulting to 1 (serial).  Any value <= 1 selects
            the deterministic in-process loop; more hands the grid to an
            in-process :class:`~repro.service.SimulationService` with
            workers of the options' ``pool`` kind, with bit-identical
            results.
        store: Content-addressed results store the engine reads through
            (see :mod:`repro.sim.store`).  ``None`` or ``True`` (the
            default) consults the ``REPRO_STORE`` environment variable;
            ``False`` disables the store even when the environment names
            one; a string/Path opens a :class:`~repro.sim.store.ResultStore`
            there, and :meth:`run` then serves previously computed jobs
            from disk and persists fresh ones: simulations happen only
            for jobs the store has never seen.
        options: A pre-built :class:`~repro.sim.options.EngineOptions`;
            when given, the environment is not consulted again and an
            explicit ``jobs`` argument acts as an override.
    """

    def __init__(self, jobs: Optional[int] = None,
                 store: Union[None, bool, str, Path, ResultStore] = None,
                 options: Optional[EngineOptions] = None) -> None:
        # All environment resolution (REPRO_JOBS, REPRO_POOL, REPRO_STORE)
        # happens in EngineOptions — explicit arguments win.
        if options is None:
            options = EngineOptions.from_env(jobs=jobs)
        else:
            options = options.with_overrides(jobs=jobs)
        self.options = options
        self.num_workers = options.jobs
        if store is None or store is True:
            store = open_store(options.store)
        elif store is False:
            store = None
        elif isinstance(store, (str, Path)):
            store = ResultStore(store)
        self.store: Optional[ResultStore] = store

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[Job], force: bool = False) -> List:
        """Execute every job, returning results in job order.

        With a store attached, jobs whose key is already stored are served
        from disk and only the missing ones are simulated.  Fresh results
        are persisted in job order, so the store file is deterministic
        regardless of worker parallelism, and an interrupted grid keeps
        everything that finished before the interruption and resumes from
        there.  ``force=True`` recomputes every job and refreshes its
        store entry.

        One worker (or one job) runs the jobs one by one in this thread.
        More run on a fresh :class:`~repro.service.SimulationService`,
        which claims keyed jobs, retries a failing job within its budget
        and raises :class:`~repro.service.ServiceError` for the first job
        that still fails once its healthy siblings are persisted.
        """
        jobs = list(jobs)
        if self.num_workers > 1 and len(jobs) > 1:
            # Imported here: a serial run never loads the daemon core, its
            # worker pool or multiprocessing.
            from ..service import SimulationService
            service = SimulationService(
                self.store, jobs=min(self.num_workers, len(jobs)),
                pool=self.options.pool, hierarchy="")
            try:
                return service.run_jobs(jobs, force)
            finally:
                service.close()
        store = self.store
        results: List = []
        for job in jobs:
            key = spec = None
            if store is not None:
                try:
                    spec = job_spec(job)
                    key = spec_key(spec)
                except UncacheableJobError:
                    pass
                if force:
                    # get() is skipped; keep the counters meaningful anyway
                    # (unkeyed jobs are tallied apart from true misses).
                    if key is None:
                        store.unkeyed += 1
                    else:
                        store.misses += 1
                else:
                    cached = store.get(key)
                    if cached is not None:
                        results.append(cached)
                        continue
            result = execute_job(job)
            if key is not None:
                store.put_with_retry(key, spec, result)
            results.append(result)
        return results
