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
  trace **once** instead of once per system;
* :class:`SimulationEngine` — runs a job list serially or over a worker
  pool, reading through the results store.

Parallelism
===========

The worker count comes from, in order: the ``jobs=`` constructor argument,
the ``REPRO_JOBS`` environment variable, and finally 1 (serial).  More
workers submit each job on its own to a :class:`~repro.sim.pool.WorkerPool`,
the daemon's pool.  Results are returned in job order regardless of
completion order, and every job builds its own fresh system state, so
**serial and parallel execution produce bit-identical results**: workload
traces are derived deterministically from (workload name, seed) — see
:meth:`repro.workloads.base.Workload.generate` — and no mutable state is
shared between jobs.

Example::

    engine = SimulationEngine()          # REPRO_JOBS env knob, default serial
    jobs = expand_grid(HIGHLIGHTED_APPLICATIONS, PREDICTOR_NAMES,
                       num_accesses=10_000, warmup_accesses=2_000)
    results = engine.run(jobs)           # List[SimulationResult], job order

Trace cache
===========

:data:`TRACE_CACHE` is the module-level cache used by the drivers.  Traces
are held as columnar :class:`~repro.trace.TraceBuffer` objects — an order of
magnitude smaller than the legacy record lists, sliced zero-copy by the
warm-up/measure split, and cheap to ship across process boundaries.
Workloads named by their suite application name (``"gapbs.bfs"``) are cached
under that name, so any caller asking for the same (name, accesses, seed,
base address, thread) tuple receives the *identical* buffer.  Workload
objects are cached by object identity (the cache keeps the object alive
while its traces are cached), which makes the cache safe for ad-hoc
workloads whose parameters are not captured by their name.

On top of the in-memory LRU the cache maintains an on-disk ``.npz`` spill
directory (``<store>/traces/`` by convention) keyed exactly like the results
store — the SHA-256 of the fully resolved generator state plus the
generation parameters (:func:`repro.sim.store.trace_key`).  A trace is
generated at most once per *machine*: the first worker process to need it
spills it atomically, every later process (or run) loads the packed columns
straight from disk.  The directory comes from the ``REPRO_TRACE_DIR``
environment variable, falling back to ``$REPRO_STORE/traces`` when a store
is named; an empty ``REPRO_TRACE_DIR`` disables spilling.
"""

from __future__ import annotations

import logging
import os
import threading
import zipfile
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
from .pool import WorkerPool
from .store import (
    REPRO_STORE_ENV,
    REPRO_TRACE_DIR_ENV,
    ResultStore,
    UncacheableJobError,
    job_spec,
    open_store,
    spec_key,
    try_trace_key,
)

_log = logging.getLogger(__name__)

WorkloadSpec = Union[str, Workload]

#: Sentinel: resolve the spill directory from the environment at use time.
_SPILL_AUTO = "auto"


# ======================================================================
# Trace cache
# ======================================================================
class TraceCache:
    """Process-local LRU cache of generated traces, with an on-disk spill.

    In-memory keys are (workload identity, num_accesses, seed, base_address,
    thread_id).  Suite applications passed by name share one identity per
    name; :class:`~repro.workloads.base.Workload` objects are keyed by
    ``id()`` and kept referenced by the cache entry, so an identity is never
    reused while its traces are cached.

    Repeated lookups return the **same**
    :class:`~repro.trace.TraceBuffer` object — callers must treat cached
    buffers as immutable.

    Args:
        max_traces: In-memory LRU capacity.
        spill_dir: On-disk ``.npz`` cache directory.  The default (the
            string ``"auto"``) resolves it from the environment on every
            miss — ``REPRO_TRACE_DIR`` if set (empty disables), else
            ``$REPRO_STORE/traces`` when a store is named, else no spill.
            Pass a path to pin it, or ``None``/``False`` to disable.
    """

    def __init__(self, max_traces: int = 128,
                 spill_dir: Union[str, Path, None, bool] = _SPILL_AUTO
                 ) -> None:
        if max_traces <= 0:
            raise ValueError("max_traces must be positive")
        self.max_traces = max_traces
        self.spill_dir = spill_dir
        # key -> (workload-or-None, buffer); OrderedDict gives LRU order.
        self._traces: "OrderedDict[Tuple, Tuple[Optional[Workload], TraceBuffer]]" = OrderedDict()
        self._named_workloads: Dict[str, Workload] = {}
        # The daemon's worker threads share one process-global cache, so
        # the LRU bookkeeping (move_to_end/popitem) and the counters must
        # be guarded; generation itself happens outside the lock.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_spills = 0

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

    def _resolved_spill_dir(self) -> Optional[Path]:
        """The effective on-disk cache directory (or None)."""
        spill = self.spill_dir
        if spill == _SPILL_AUTO:
            env = os.environ.get(REPRO_TRACE_DIR_ENV)
            if env is not None:
                env = env.strip()
                return Path(env) if env else None
            store_root = os.environ.get(REPRO_STORE_ENV, "").strip()
            return Path(store_root) / "traces" if store_root else None
        if not spill:
            return None
        return Path(spill)

    def get(self, workload: WorkloadSpec, num_accesses: int, seed: int = 0,
            base_address: int = 0, thread_id: int = 0) -> TraceBuffer:
        """Return the (cached) trace buffer for the generation parameters.

        Lookup order: in-memory LRU, then the on-disk ``.npz`` spill (keyed
        like the results store), then generation — which also spills the
        fresh buffer so no other process ever regenerates it.
        """
        key = self._key(workload, num_accesses, seed, base_address, thread_id)
        with self._lock:
            entry = self._traces.get(key)
            if entry is not None:
                self.hits += 1
                self._traces.move_to_end(key)
                return entry[1]
            self.misses += 1
        resolved = self.resolve(workload)
        buffer = None
        spill_path = None
        spill_dir = self._resolved_spill_dir()
        if spill_dir is not None:
            disk_key = try_trace_key(workload, num_accesses, seed=seed,
                                     base_address=base_address,
                                     thread_id=thread_id)
            if disk_key is not None:
                spill_path = spill_dir / f"{disk_key}.npz"
                if spill_path.is_file():
                    try:
                        buffer = TraceBuffer.load(spill_path)
                        with self._lock:
                            self.disk_hits += 1
                        spill_path = None  # already on disk
                    except (OSError, ValueError, KeyError, EOFError,
                            zipfile.BadZipFile) as exc:
                        # A stale/corrupt spill is regenerated, not fatal.
                        # Truncated files raise BadZipFile, foreign .npz
                        # archives KeyError, torn writes EOFError/OSError.
                        _log.warning("ignoring unreadable trace spill %s "
                                     "(%s)", spill_path, exc)
                        buffer = None
        if buffer is None:
            buffer = resolved.generate_buffer(num_accesses, seed=seed,
                                              base_address=base_address,
                                              thread_id=thread_id)
            if spill_path is not None:
                try:
                    buffer.save(spill_path)
                    with self._lock:
                        self.disk_spills += 1
                except OSError as exc:  # pragma: no cover - disk-full etc.
                    _log.warning("could not spill trace to %s (%s)",
                                 spill_path, exc)
        with self._lock:
            # Another thread may have cached the same key while this one
            # generated/loaded: keep the first buffer, so every caller of a
            # key receives the identical (immutable) object.
            entry = self._traces.get(key)
            if entry is not None:
                self._traces.move_to_end(key)
                return entry[1]
            # Keep the workload object referenced so an id()-based key can
            # never be recycled while its trace is cached.
            self._traces[key] = (
                None if isinstance(workload, str) else resolved, buffer)
            if len(self._traces) > self.max_traces:
                self._traces.popitem(last=False)
        return buffer

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
            self._named_workloads.clear()
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0
            self.disk_spills = 0


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
    """Per-core trace buffers (and workload names) for a Table II mix.

    Mirrors :func:`repro.workloads.mixes.generate_mix_traces` exactly
    (identical access streams), but serves each per-core trace as a
    columnar buffer through the trace cache.
    """
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

    This is the single entry point used by both the serial fallback and the
    pool workers; it builds a fresh system, pulls the trace(s) through
    ``trace_cache`` (the process-local :data:`TRACE_CACHE` by default), and
    returns the picklable result.
    """
    # Fault site: a worker crashing (or being killed) while holding a job.
    # Sits before any system state is built, so a retried job replays from
    # scratch and stays bit-identical.
    fault_point("worker.job")

    # Imported here, not at module scope: system.py/multicore.py import this
    # module for their comparison drivers.
    from .multicore import MultiCoreSystem
    from .system import SimulatedSystem

    # Explicit None check: an empty TraceCache has len() == 0 and is falsy.
    cache = TRACE_CACHE if trace_cache is None else trace_cache
    if isinstance(job, MixJob):
        base_config = job.config or SystemConfig.paper_multi_core()
        system = MultiCoreSystem(base_config.with_predictor(job.predictor))
        traces, names = mix_traces(job.mix, job.accesses_per_core,
                                   seed=job.seed, trace_cache=cache)
        return system.run_traces(traces, workload_names=names,
                                 mix_name=job.mix)

    base_config = job.config or SystemConfig.paper_single_core()
    system = SimulatedSystem(base_config.with_predictor(job.predictor))
    workload = cache.resolve(job.workload)
    total = job.num_accesses + job.warmup_accesses
    buffer = cache.get(job.workload, total, seed=job.seed)
    if job.warmup_accesses:
        # Zero-copy split: both halves are views into the cached buffer.
        system.hierarchy.run_buffer(buffer[:job.warmup_accesses])
        system.reset_statistics()
    return system.run_trace(buffer[job.warmup_accesses:], workload.name)


# ======================================================================
# Engine
# ======================================================================
class SimulationEngine:
    """Runs simulation jobs serially or across a worker pool.

    Args:
        jobs: Worker count.  ``None`` reads ``REPRO_JOBS`` from the
            environment, defaulting to 1 (serial).  Any value <= 1 selects
            the deterministic in-process path; more uses a worker pool of
            the options' ``pool`` kind, with bit-identical results.  A job
            that kills its worker process makes :meth:`run` raise (see
            :mod:`repro.sim.pool`).
        trace_cache: Cache used by the serial path (pool workers always
            use their process's :data:`TRACE_CACHE`).
        store: Content-addressed results store the engine reads through
            (see :mod:`repro.sim.store`).  ``None`` or ``True`` (the
            default) consults the ``REPRO_STORE`` environment variable;
            ``False`` disables the store even when the environment names
            one; a string/Path opens a
            :class:`~repro.sim.store.ResultStore` at that directory.  With a store attached, :meth:`run` serves
            previously computed jobs from disk and persists fresh ones —
            simulations only happen for jobs the store has never seen.
        options: A pre-built :class:`~repro.sim.options.EngineOptions`;
            when given, the environment is not consulted again and an
            explicit ``jobs`` argument acts as an override.
    """

    def __init__(self, jobs: Optional[int] = None,
                 trace_cache: Optional[TraceCache] = None,
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
        # Explicit None check: an empty TraceCache has len() == 0, is falsy.
        self.trace_cache = TRACE_CACHE if trace_cache is None else trace_cache
        if store is None or store is True:
            store = open_store(options.store)
        elif store is False:
            store = None
        elif isinstance(store, (str, Path)):
            store = ResultStore(store)
        self.store: Optional[ResultStore] = store
        #: Store appends retried after a transient failure.
        self.put_retries = 0
        #: Store appends abandoned after the retry budget (results were
        #: still returned — the store is a cache, not the ground truth).
        self.put_failures = 0
        #: Broken worker pools replaced mid-run (see WorkerPool).
        self.pool_failovers = 0

    @property
    def parallel(self) -> bool:
        return self.num_workers > 1

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[Job], force: bool = False) -> List:
        """Execute every job, returning results in job order.

        With a store attached, jobs whose key is already stored are served
        from disk and only the missing ones are simulated.  Fresh results
        are persisted as they arrive — still in job order, so the store
        file is deterministic regardless of worker parallelism, but an
        interrupted grid keeps everything that finished before the
        interruption and resumes from there.  ``force=True`` recomputes
        every job and refreshes its store entry.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        if self.store is None:
            return list(self._execute(jobs))

        specs: List[Optional[dict]] = []
        keys: List[Optional[str]] = []
        for job in jobs:
            try:
                spec = job_spec(job)
            except UncacheableJobError:
                spec = None
            specs.append(spec)
            keys.append(None if spec is None else spec_key(spec))
        results: List = [None] * len(jobs)
        missing: List[int] = []
        for index, key in enumerate(keys):
            cached = None if force else self.store.get(key)
            if cached is None:
                missing.append(index)
            else:
                results[index] = cached
        if missing:
            if force:
                # get() was skipped; keep the counters meaningful anyway
                # (unkeyed jobs are tallied apart from true misses).
                keyed = sum(1 for index in missing
                            if keys[index] is not None)
                self.store.misses += keyed
                self.store.unkeyed += len(missing) - keyed
            fresh = self._execute([jobs[i] for i in missing])
            # Persist each fresh result as it arrives (still in job order),
            # so an interrupted grid keeps its completed jobs on disk.
            for index, result in zip(missing, fresh):
                results[index] = result
                if keys[index] is not None:
                    retries, error = self.store.put_with_retry(
                        keys[index], specs[index], result)
                    self.put_retries += retries
                    self.put_failures += error is not None
        return results

    def _execute(self, jobs: List[Job]):
        """Yield results for ``jobs`` in order: in-process, or one pool
        submission per job."""
        if self.num_workers <= 1 or len(jobs) == 1:
            yield from (execute_job(job, self.trace_cache) for job in jobs)
            return
        pool = WorkerPool(min(self.num_workers, len(jobs)),
                          self.options.pool)
        try:
            futures = [pool.submit(execute_job, job) for job in jobs]
            for future in futures:
                yield future.result()
        finally:
            pool.shutdown()
            self.pool_failovers += pool.failovers

    # ------------------------------------------------------------------
    def run_grid(self, workloads: Sequence[WorkloadSpec],
                 predictors: Sequence[str],
                 num_accesses: int,
                 warmup_accesses: int = 0,
                 seed: int = 0,
                 config: Optional[SystemConfig] = None
                 ) -> Dict[str, Dict[str, object]]:
        """Run a (workload x predictor) grid, returning nested dicts.

        The outer key is the workload's display name (the application name
        for suite workloads), the inner key the predictor name — the shape
        every figure benchmark consumes.
        """
        jobs = expand_grid(workloads, predictors, num_accesses,
                           warmup_accesses=warmup_accesses, seeds=(seed,),
                           config=config)
        names = [workload if isinstance(workload, str) else workload.name
                 for workload in workloads]
        return self._nest(names, predictors, jobs)

    def run_mix_grid(self, mixes: Sequence[str],
                     predictors: Sequence[str],
                     accesses_per_core: int,
                     seed: int = 0,
                     config: Optional[SystemConfig] = None
                     ) -> Dict[str, Dict[str, object]]:
        """Run a (mix x predictor) grid of multi-core simulations."""
        jobs = [MixJob(mix=mix, predictor=predictor,
                       accesses_per_core=accesses_per_core, seed=seed,
                       config=config)
                for mix in mixes for predictor in predictors]
        return self._nest(mixes, predictors, jobs)

    def _nest(self, names: Sequence[str], predictors: Sequence[str],
              jobs: List[Job]) -> Dict[str, Dict[str, object]]:
        """Run a name-major grid as ``{name: {predictor: result}}``."""
        results = iter(self.run(jobs))
        return {name: {predictor: next(results) for predictor in predictors}
                for name in names}
