"""Content-addressed experiment results store.

Every figure in the paper is a grid of deterministic simulations, so a
(workload spec, system config, predictor, seed, access counts) tuple fully
determines its :class:`~repro.sim.system.SimulationResult`.  This module
turns that determinism into persistence:

* :func:`job_spec` — a canonical, JSON-able description of one engine job
  (:class:`~repro.sim.engine.SimulationJob` or
  :class:`~repro.sim.engine.MixJob`), including the fully resolved system
  configuration and, for mixes, the resolved per-core application list;
* :func:`job_key` — the SHA-256 of that canonical description.  Keys are
  stable across processes and interpreter runs (no ``hash()``, no ``id()``),
  so a store written by one run is readable by every later one;
* :func:`serialize_result` / :func:`deserialize_result` — exact round-trip
  encoding of simulation results (JSON ``repr`` round-trips floats
  bit-for-bit, so a deserialized result compares equal to the original);
* :class:`ResultStore` — crash- and concurrency-safe sharded JSON-lines
  persistence: entries land in ``<root>/shards/<xx>.jsonl`` keyed by the
  leading byte of the SHA-256 job key, every append is a single
  ``os.write`` of one full line on an ``O_APPEND`` descriptor under an
  advisory ``fcntl`` lock, and a lightweight on-disk index
  (``<root>/shards/index.json``) makes re-opening a large store
  O(changed shards) instead of O(all lines).

Concurrency and crash safety
============================

Multiple processes (CI plus a user sweep, two ``python -m repro run``
invocations, ...) may write one store simultaneously.  The discipline:

* every append is one ``write(2)`` of a complete ``line + "\n"`` on an
  ``O_APPEND`` descriptor, so concurrent appends never interleave within
  a line;
* the per-store advisory lock (``<root>/shards/.lock``) is held around
  append *and* repair, and repair only ever truncates a torn trailing
  line in place — it never rewrites a file, so entries appended by other
  processes are never clobbered;
* a torn trailing line (a run killed mid-append) is skipped with a
  warning on load and truncated under the lock before the next append to
  that shard; mid-file corruption is a contextual :class:`ValueError`
  naming ``path:line`` and is salvageable with ``python -m repro store
  fsck`` (see :func:`fsck_store`).

Daemons sharing one store coordinate through per-job-key
*claim records* (``<root>/claims/<key>.json``, published complete with
``os.link`` so the filesystem arbitrates races) plus
:meth:`ResultStore.refresh`, which re-checks the disk for a key another
process may have appended.  See :meth:`ResultStore.claim`.

Jobs whose workload cannot be fingerprinted deterministically (an ad-hoc
:class:`~repro.workloads.base.Workload` carrying state the canonicalizer
does not understand) raise :class:`UncacheableJobError`; the engine runs
such jobs directly, bypassing the store.  Lookups with ``key=None`` are
counted in :attr:`ResultStore.unkeyed`, not as misses, so the hit/miss
counters measure only content-addressable traffic.

The engine consults a store when given one explicitly or when the
``REPRO_STORE`` environment variable names a store directory (see
:func:`default_store`); ``python -m repro`` defaults to ``results/``.
"""

from __future__ import annotations

import dataclasses
import enum
import errno
import hashlib
import json
import logging
import os
import socket
import tempfile
import time
import uuid
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

# POSIX-only on purpose: the store's concurrency guarantees rest on
# fcntl.flock and os.pread, so a platform without them must fail loudly
# at import rather than silently run unlocked.
import fcntl

from ..core.base import PredictionOutcome, PredictorStats
from ..faults import fault_point
from ..core.recovery import RecoverySummary
from ..cpu.ooo_core import ExecutionResult
from ..memory.block import Level
from ..memory.hierarchy import HierarchyStats
from ..workloads.base import Workload
from ..workloads.mixes import get_mix
from .config import SystemConfig
from .multicore import MultiCoreResult
from .system import SimulationResult

_log = logging.getLogger(__name__)

#: Environment variable naming the default store directory ("" disables).
REPRO_STORE_ENV = "REPRO_STORE"

#: Environment variable naming the on-disk trace-cache directory.  Unset
#: falls back to ``<$REPRO_STORE>/traces`` when a store is named; an empty
#: value disables trace spilling entirely.
REPRO_TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: Bumped whenever the canonical job spec or result encoding changes shape;
#: part of every job key, so incompatible stores never serve stale results.
STORE_SCHEMA = "repro-store/1"

#: Bumped whenever trace generation semantics or the buffer layout change;
#: part of every trace key, so stale on-disk traces are never replayed.
TRACE_SCHEMA = "repro-trace/1"


class UncacheableJobError(ValueError):
    """The job's workload cannot be fingerprinted deterministically."""


# ======================================================================
# Canonical job specs and keys
# ======================================================================
def _canonical(value: Any) -> Any:
    """Reduce a config/workload value to deterministic JSON-able data.

    Handles the types the configuration tree is built from: primitives,
    enums, dataclasses, lists/tuples and string-keyed dicts.  Anything else
    raises :class:`UncacheableJobError` — silently guessing would risk two
    different experiments sharing one key.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, Workload):
        return {
            "__workload__": type(value).__name__,
            "state": {name: _canonical(attr)
                      for name, attr in sorted(vars(value).items())},
        }
    canonical_hook = getattr(value, "__canonical__", None)
    if canonical_hook is not None:
        # Objects may supply their own canonical form — e.g. a
        # HierarchySpec that is an exact image of the legacy config
        # canonicalises *as* that config, keeping job keys stable across
        # the representation change.  Returning NotImplemented falls
        # through to the generic rules below.
        result = canonical_hook(_canonical)
        if result is not NotImplemented:
            return result
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": {f.name: _canonical(getattr(value, f.name))
                       for f in dataclasses.fields(value)},
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise UncacheableJobError(
                f"cannot fingerprint dict with non-string keys: {value!r}")
        return {key: _canonical(value[key]) for key in sorted(value)}
    raise UncacheableJobError(
        f"cannot fingerprint {type(value).__name__!r} value {value!r}")


#: Memoized name-spec fingerprints: the suite registry is immutable within
#: a process, and grids fingerprint the same ~21 applications per job.
_NAME_FINGERPRINTS: Dict[str, Any] = {}


def _workload_fingerprint(workload: Union[str, Workload]) -> Any:
    """Hash a workload spec by the full state of its trace generator.

    Name specs are resolved through the suite registry first, so
    ``"gapbs.pr"`` and ``build_workload("gapbs.pr")`` address the same
    store entry — and retuning an application's registry parameters
    automatically invalidates its cached results.
    """
    if isinstance(workload, str):
        fingerprint = _NAME_FINGERPRINTS.get(workload)
        if fingerprint is None:
            from ..workloads.suite import build_workload
            fingerprint = _canonical(build_workload(workload))
            _NAME_FINGERPRINTS[workload] = fingerprint
        return fingerprint
    return _canonical(workload)


def job_spec(job: Any) -> Dict[str, Any]:
    """The canonical description of one engine job.

    The spec captures everything :func:`repro.sim.engine.execute_job` reads:
    the workload (or resolved mix composition), the predictor, the access
    counts, the seed and the fully resolved system configuration —
    ``config=None`` resolves to the same paper default the executor uses, so
    it hashes identically to an explicitly passed default.
    """
    # Imported here to avoid a cycle (engine imports this module's store).
    from .engine import MixJob, SimulationJob

    if isinstance(job, SimulationJob):
        config = job.config or SystemConfig.paper_single_core()
        return {
            "schema": STORE_SCHEMA,
            "kind": "single",
            "workload": _workload_fingerprint(job.workload),
            "predictor": job.predictor,
            "num_accesses": job.num_accesses,
            "warmup_accesses": job.warmup_accesses,
            "seed": job.seed,
            "config": _canonical(config),
        }
    if isinstance(job, MixJob):
        config = job.config or SystemConfig.paper_multi_core()
        mix = get_mix(job.mix)
        return {
            "schema": STORE_SCHEMA,
            "kind": "mix",
            "mix": job.mix,
            # Full per-core generator state, not just names: retuning a
            # registry application must invalidate the mixes containing it
            # exactly like it invalidates its single-core cells.
            "applications": [_workload_fingerprint(app)
                             for app in mix.applications],
            "multithreaded": mix.multithreaded,
            "predictor": job.predictor,
            "accesses_per_core": job.accesses_per_core,
            "seed": job.seed,
            "config": _canonical(config),
        }
    raise UncacheableJobError(f"unknown job type {type(job).__name__!r}")


def spec_key(spec: Dict[str, Any]) -> str:
    """SHA-256 of an already-built canonical spec (hex)."""
    payload = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def job_key(job: Any) -> str:
    """SHA-256 of the canonical job spec (hex, stable across processes)."""
    return spec_key(job_spec(job))


def try_job_key(job: Any) -> Optional[str]:
    """:func:`job_key`, or ``None`` for jobs the store cannot address."""
    try:
        return job_key(job)
    except UncacheableJobError:
        return None


def trace_spec(workload: Union[str, Workload], num_accesses: int,
               seed: int = 0, base_address: int = 0,
               thread_id: int = 0) -> Dict[str, Any]:
    """Canonical description of one generated trace.

    Mirrors :func:`job_spec` for the trace cache: the key covers the full
    resolved generator state plus every generation parameter, so retuning a
    registry application invalidates its spilled traces exactly like it
    invalidates its stored results.
    """
    return {
        "schema": TRACE_SCHEMA,
        "workload": _workload_fingerprint(workload),
        "num_accesses": num_accesses,
        "seed": seed,
        "base_address": base_address,
        "thread_id": thread_id,
    }


def trace_key(workload: Union[str, Workload], num_accesses: int,
              seed: int = 0, base_address: int = 0,
              thread_id: int = 0) -> str:
    """SHA-256 key of one trace (stable across processes and runs)."""
    return spec_key(trace_spec(workload, num_accesses, seed=seed,
                               base_address=base_address,
                               thread_id=thread_id))


def try_trace_key(workload: Union[str, Workload], num_accesses: int,
                  seed: int = 0, base_address: int = 0,
                  thread_id: int = 0) -> Optional[str]:
    """:func:`trace_key`, or ``None`` for unfingerprintable workloads."""
    try:
        return trace_key(workload, num_accesses, seed=seed,
                         base_address=base_address, thread_id=thread_id)
    except UncacheableJobError:
        return None


# ======================================================================
# Result serialization (exact round-trip)
# ======================================================================
def _execution_to_dict(execution: ExecutionResult) -> Dict[str, Any]:
    return {
        "cycles": execution.cycles,
        "instructions": execution.instructions,
        "memory_accesses": execution.memory_accesses,
        "stall_cycles": execution.stall_cycles,
    }


def _execution_from_dict(data: Dict[str, Any]) -> ExecutionResult:
    return ExecutionResult(**data)


def _hierarchy_stats_to_dict(stats: HierarchyStats) -> Dict[str, Any]:
    return {f.name: getattr(stats, f.name)
            for f in dataclasses.fields(HierarchyStats)}


def _predictor_stats_to_dict(stats: PredictorStats) -> Dict[str, Any]:
    return {
        "predictions": stats.predictions,
        "outcomes": {outcome.name: count
                     for outcome, count in stats.outcomes.items()},
        "multi_way_predictions": stats.multi_way_predictions,
        "pld_predictions": stats.pld_predictions,
        "pld_mispredictions": stats.pld_mispredictions,
        "metadata_hits": stats.metadata_hits,
        "metadata_misses": stats.metadata_misses,
        "level_histogram": {
            "+".join(level.name for level in levels): count
            for levels, count in stats.level_histogram.items()
        },
        "updates": stats.updates,
    }


def _predictor_stats_from_dict(data: Dict[str, Any]) -> PredictorStats:
    stats = PredictorStats()
    stats.predictions = data["predictions"]
    stats.outcomes = {outcome: data["outcomes"].get(outcome.name, 0)
                      for outcome in PredictionOutcome}
    stats.multi_way_predictions = data["multi_way_predictions"]
    stats.pld_predictions = data["pld_predictions"]
    stats.pld_mispredictions = data["pld_mispredictions"]
    stats.metadata_hits = data["metadata_hits"]
    stats.metadata_misses = data["metadata_misses"]
    stats.level_histogram = {
        tuple(Level[name] for name in key.split("+")): count
        for key, count in data["level_histogram"].items()
    }
    stats.updates = data["updates"]
    return stats


def _recovery_to_dict(recovery: RecoverySummary) -> Dict[str, Any]:
    return {f.name: getattr(recovery, f.name)
            for f in dataclasses.fields(RecoverySummary)}


def serialize_result(result: Union[SimulationResult, MultiCoreResult]
                     ) -> Dict[str, Any]:
    """Encode a simulation result as JSON-able data.

    The encoding is exact: floats survive JSON unchanged (shortest-repr
    round-trip), so ``deserialize_result(serialize_result(r)) == r``.
    """
    if isinstance(result, SimulationResult):
        return {
            "kind": "single",
            "workload": result.workload,
            "system": result.system,
            "predictor": result.predictor,
            "execution": _execution_to_dict(result.execution),
            "hierarchy_stats": _hierarchy_stats_to_dict(
                result.hierarchy_stats),
            "predictor_stats": _predictor_stats_to_dict(
                result.predictor_stats),
            "energy_breakdown": dict(result.energy_breakdown),
            "cache_hierarchy_energy_nj": result.cache_hierarchy_energy_nj,
            "recovery": _recovery_to_dict(result.recovery),
            "metadata_miss_ratio": result.metadata_miss_ratio,
            "pld_misprediction_ratio": result.pld_misprediction_ratio,
        }
    if isinstance(result, MultiCoreResult):
        return {
            "kind": "mix",
            "mix": result.mix,
            "predictor": result.predictor,
            "per_core_execution": [_execution_to_dict(execution)
                                   for execution in result.per_core_execution],
            "per_core_workloads": list(result.per_core_workloads),
            "accuracy_breakdown": dict(result.accuracy_breakdown),
            "cache_hierarchy_energy_nj": result.cache_hierarchy_energy_nj,
            "total_predictions": result.total_predictions,
            "total_recoveries": result.total_recoveries,
        }
    raise TypeError(f"cannot serialize {type(result).__name__!r}")


def deserialize_result(data: Dict[str, Any]
                       ) -> Union[SimulationResult, MultiCoreResult]:
    """Rebuild the result object encoded by :func:`serialize_result`."""
    kind = data["kind"]
    if kind == "single":
        return SimulationResult(
            workload=data["workload"],
            system=data["system"],
            predictor=data["predictor"],
            execution=_execution_from_dict(data["execution"]),
            hierarchy_stats=HierarchyStats(**data["hierarchy_stats"]),
            predictor_stats=_predictor_stats_from_dict(
                data["predictor_stats"]),
            energy_breakdown=dict(data["energy_breakdown"]),
            cache_hierarchy_energy_nj=data["cache_hierarchy_energy_nj"],
            recovery=RecoverySummary(**data["recovery"]),
            metadata_miss_ratio=data["metadata_miss_ratio"],
            pld_misprediction_ratio=data["pld_misprediction_ratio"],
        )
    if kind == "mix":
        return MultiCoreResult(
            mix=data["mix"],
            predictor=data["predictor"],
            per_core_execution=[_execution_from_dict(execution)
                                for execution in data["per_core_execution"]],
            per_core_workloads=list(data["per_core_workloads"]),
            accuracy_breakdown=dict(data["accuracy_breakdown"]),
            cache_hierarchy_energy_nj=data["cache_hierarchy_energy_nj"],
            total_predictions=data["total_predictions"],
            total_recoveries=data["total_recoveries"],
        )
    raise ValueError(f"unknown result kind {kind!r}")


# ======================================================================
# Sharded on-disk layout: naming, locking, appending, line parsing
# ======================================================================
#: Directory under the store root holding the shard files.
SHARDS_DIRNAME = "shards"

#: Name of the on-disk shard index (inside the shards directory).
INDEX_FILENAME = "index.json"

#: Name of the advisory lock file (inside the shards directory).
LOCK_FILENAME = ".lock"

#: Bumped whenever the index layout changes; unknown indexes are rescanned.
INDEX_SCHEMA = "repro-store-index/1"

#: Directory under the store root holding fleet claim records.
CLAIMS_DIRNAME = "claims"

#: Age (seconds) after which a claim held by an *unreachable* host is
#: presumed abandoned.  Same-host claims are probed by pid instead and
#: never expire while their owner is alive, so a legitimately long
#: simulation is never stolen out from under a live daemon.
CLAIM_TTL = 600.0

#: :meth:`ResultStore.put_with_retry`: attempts, and the base backoff in
#: seconds (doubled per attempt).
PUT_ATTEMPTS = 3
PUT_BACKOFF = 0.05

_CLAIM_HOST = socket.gethostname()

#: pid -> (token, start time) of this process; keyed by pid so a forked
#: child mints its own identity instead of inheriting its parent's.
_PROCESS_IDENTITY: Dict[int, Tuple[str, Optional[str]]] = {}


def _start_time(pid: int) -> Optional[str]:
    """Kernel start time of ``pid`` (``/proc/<pid>/stat`` field 22).

    ``None`` where ``/proc`` is unavailable or the process is gone.  A
    pid is only ever recycled by a process with a later start time, so
    (pid, start time) names one process incarnation.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    # The command name (field 2) may hold spaces and parentheses; the
    # fields after its closing parenthesis start at field 3.
    fields = data.rpartition(b")")[2].split()
    return fields[19].decode("ascii") if len(fields) > 19 else None


def _process_identity() -> Tuple[str, Optional[str]]:
    """This process's claim token and start time, minted once per pid."""
    pid = os.getpid()
    identity = _PROCESS_IDENTITY.get(pid)
    if identity is None:
        identity = (uuid.uuid4().hex, _start_time(pid))
        _PROCESS_IDENTITY[pid] = identity
    return identity


#: Hex characters of the key that select a shard (2 -> up to 256 shards).
SHARD_PREFIX_CHARS = 2

_HEX_DIGITS = frozenset("0123456789abcdef")


def shard_for_key(key: str) -> str:
    """The shard prefix (e.g. ``"a3"``) a store key routes to.

    Keys are normally SHA-256 hex digests, so the leading bytes are already
    uniformly distributed; any other key is re-hashed so the mapping stays
    total and stable across processes.
    """
    prefix = key[:SHARD_PREFIX_CHARS].lower()
    if len(prefix) < SHARD_PREFIX_CHARS or not set(prefix) <= _HEX_DIGITS:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        prefix = digest[:SHARD_PREFIX_CHARS]
    return prefix


@contextmanager
def _store_lock(lock_path: Path) -> Iterator[None]:
    """Hold the store's advisory exclusive lock.

    Guards every mutation (append, torn-tail repair, fsck,
    compaction, index writes) across processes.  ``fcntl.flock`` locks are
    per open-file-description, so this must never be nested within one
    process — public methods take the lock once and call unlocked helpers.

    After acquiring, the held inode is re-validated against the path: a
    waiter that wins the lock on an inode ``clear()`` just unlinked would
    otherwise share a critical section with a writer locking the fresh
    file (two locks, two inodes — split brain), so it retries on the
    current file instead.
    """
    fd = -1
    try:
        while True:
            lock_path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                on_disk = os.stat(lock_path).st_ino
            except FileNotFoundError:
                on_disk = -1
            if on_disk == os.fstat(fd).st_ino:
                break
            os.close(fd)
            fd = -1
        yield
    finally:
        if fd != -1:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)


def _last_newline(fd: int, size: int) -> int:
    """Offset just past the last ``\\n`` in the file (0 if none)."""
    chunk = 4096
    end = size
    while end > 0:
        start = max(0, end - chunk)
        data = os.pread(fd, end - start, start)
        found = data.rfind(b"\n")
        if found != -1:
            return start + found + 1
        end = start
    return 0


def _append_payload(path: Path, payload: bytes) -> int:
    """Append ``payload`` (one or more full lines) in a single ``write``.

    The caller must hold the store lock.  If the file ends in a torn
    partial line (a writer killed mid-append), the tail is truncated in
    place first — complete lines written by other processes are never
    touched.  Returns the offset the payload landed at.
    """
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            size = _last_newline(fd, size)
            os.ftruncate(fd, size)
        offset = size
        # Fault site: a failing disk mid-append.  A ``torn`` fault writes
        # only a prefix of the payload (exactly what a killed writer
        # leaves behind) before raising; the next locked append repairs it
        # via the truncation above, so recovery exercises the real path.
        torn = fault_point("store.append", len(payload))
        if torn is not None:
            os.write(fd, payload[:torn])
            raise OSError(errno.EIO,
                          f"injected torn append to {path}")
        written = os.write(fd, payload)
        while written < len(payload):  # pragma: no cover - short write
            written += os.write(fd, payload[written:])
        return offset
    finally:
        os.close(fd)


_LINE_PROBLEMS = {
    "corrupt": "invalid JSON",
    "foreign": "not a store entry (missing 'key'/'result')",
}


def _classify_lines(data: bytes, start: int = 0,
                    salvage_unterminated: bool = False
                    ) -> Iterator[Tuple[str, int, int, Optional[dict]]]:
    """Classify every non-blank line of ``data`` from ``start`` onwards.

    Yields ``(kind, offset, length, entry)`` where ``kind`` is ``"good"``
    (``entry`` is the parsed store entry), ``"torn"`` (an unterminated
    partial final line), ``"corrupt"`` (a terminated line that is not
    JSON) or ``"foreign"`` (valid JSON without the entry shape).
    ``length`` includes the trailing newline when present.

    The appender only ever writes complete ``line + "\\n"`` payloads, so an
    unterminated final line is normally a torn append and unreadable; with
    ``salvage_unterminated`` (fsck), one that parses cleanly is kept.
    """
    end = len(data)
    offset = start
    while offset < end:
        newline = data.find(b"\n", offset)
        if newline == -1:
            raw, length, terminated = data[offset:end], end - offset, False
        else:
            raw = data[offset:newline]
            length, terminated = newline + 1 - offset, True
        line_offset = offset
        offset += length
        stripped = raw.strip()
        if not stripped:
            continue
        entry: Any = None
        try:
            entry = json.loads(stripped.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            yield (("corrupt" if terminated else "torn"),
                   line_offset, length, None)
            continue
        if not terminated and not salvage_unterminated:
            yield "torn", line_offset, length, None
            continue
        if not (isinstance(entry, dict) and isinstance(entry.get("key"), str)
                and "result" in entry):
            yield "foreign", line_offset, length, None
            continue
        yield "good", line_offset, length, entry


def _parse_shard(path: Path, data: bytes, start: int = 0
                 ) -> Tuple[List[List[Any]], int]:
    """Strictly parse one shard file from ``start``.

    Returns ``([[key, offset, length], ...], good_end)`` where ``good_end``
    is the offset just past the last good line.  A torn trailing line is
    skipped with a warning (repaired in place by the next locked append);
    any other malformed line — invalid JSON or well-formed JSON with the
    wrong shape — raises a contextual :class:`ValueError` naming
    ``path:line`` and pointing at ``python -m repro store fsck``.
    """
    entries: List[List[Any]] = []
    good_end = start
    for kind, offset, length, entry in _classify_lines(data, start):
        if kind == "good":
            entries.append([entry["key"], offset, length])
            good_end = offset + length
            continue
        if kind == "torn":
            _log.warning("ignoring torn trailing line of %s (interrupted "
                         "append; repaired in place on next write)", path)
            continue
        line_number = data.count(b"\n", 0, offset) + 1
        raise ValueError(
            f"{path}:{line_number}: corrupt store line "
            f"({_LINE_PROBLEMS[kind]}); run 'python -m repro store fsck' "
            f"to salvage")
    return entries, good_end


def _rebuild_shard(path: Path, lines: List[Tuple[str, bytes]],
                   original: Optional[bytes]
                   ) -> Tuple[bool, Dict[str, Any]]:
    """Atomically replace a shard with ``lines`` if its bytes changed.

    The single rewrite discipline shared by compaction and fsck: compare
    against ``original`` (the bytes read under the lock; ``None`` for a
    shard that did not exist), write via ``.tmp`` + ``os.replace`` only on
    change, and return ``(rewritten, index meta)`` for the new content.
    Caller holds the store lock.
    """
    payload = b"".join(line for _, line in lines)
    rewritten = payload != original
    if rewritten:
        tmp = path.with_suffix(".jsonl.tmp")
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    entries: List[List[Any]] = []
    offset = 0
    for key, line in lines:
        entries.append([key, offset, len(line)])
        offset += len(line)
    return rewritten, {"size": offset, "entries": entries}


def _write_index(shards_dir: Path,
                 meta: Dict[str, Dict[str, Any]]) -> None:
    """Atomically replace the shard index.  Caller holds the store lock."""
    payload = json.dumps({"schema": INDEX_SCHEMA, "shards": meta},
                         sort_keys=True, separators=(",", ":"))
    tmp = shards_dir / (INDEX_FILENAME + ".tmp")
    tmp.write_text(payload, encoding="utf-8")
    os.replace(tmp, shards_dir / INDEX_FILENAME)


# ======================================================================
# The store
# ======================================================================
class ResultStore:
    """Sharded, concurrency-safe JSON-lines results store.

    Layout::

        <root>/shards/<xx>.jsonl   entries whose key starts with hex "xx"
        <root>/shards/index.json   per-shard {size, [key, offset, length]}
        <root>/shards/.lock        advisory fcntl lock (append/repair/fsck)
        <root>/stats/              per-experiment summaries (CLI-written)

    Entries are appended in job order, so two runs over the same job list
    produce byte-identical shard files regardless of worker parallelism —
    the property the CI determinism job checks.  Re-putting a key appends a
    new line; the newest line wins on reload (how ``--force`` refreshes
    results without rewriting history).  Results are read lazily —
    :meth:`get` ``pread``\\ s one line at its indexed offset — so opening a
    large store does not parse every stored result.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.shards_dir = self.root / SHARDS_DIRNAME
        self.index_path = self.shards_dir / INDEX_FILENAME
        self.lock_path = self.shards_dir / LOCK_FILENAME
        self.claims_dir = self.root / CLAIMS_DIRNAME
        #: Staleness bound for foreign-host claims; tests shrink this.
        self.claim_ttl = CLAIM_TTL
        #: key -> (shard prefix, byte offset, line length) for every entry.
        self._entries: Dict[str, Tuple[str, int, int]] = {}
        #: Encoded results touched by this process (put or already read).
        self._mem: Dict[str, Dict[str, Any]] = {}
        #: Per-shard {"size", "entries"} mirror of the on-disk index.
        self._index_meta: Dict[str, Dict[str, Any]] = {}
        #: Shards another process appended to behind us: this process's
        #: entry list has holes for them, so they must never be indexed.
        self._unindexed: set = set()
        #: Whether ``_index_meta`` differs from the last index written (or
        #: read back unchanged): :meth:`flush_index` writes only then.
        self._index_dirty = False
        self.hits = 0
        self.misses = 0
        #: Lookups for ``key=None`` (uncacheable jobs) — not store misses.
        self.unkeyed = 0
        #: Results persisted through this instance (one shard append each);
        #: the daemon's dedup tests assert exactly one put per job key.
        self.puts = 0
        self._load()

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def _shard_path(self, prefix: str) -> Path:
        return self.shards_dir / f"{prefix}.jsonl"

    def _read_index(self) -> Dict[str, Any]:
        try:
            raw = json.loads(self.index_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        if not isinstance(raw, dict) or raw.get("schema") != INDEX_SCHEMA:
            return {}
        shards = raw.get("shards")
        return shards if isinstance(shards, dict) else {}

    def _load(self) -> None:
        """Build the key index, scanning only shards the index missed.

        A shard whose on-disk size matches its index entry is adopted
        without reading it; one that only grew is scanned from the indexed
        offset (appends are the common mutation); anything else is
        rescanned in full.  The refreshed index is written back
        best-effort so the next open stays O(changed shards).
        """
        if not self.shards_dir.is_dir():
            return
        index = self._read_index()
        dirty = False
        for path in sorted(self.shards_dir.glob("*.jsonl")):
            prefix = path.stem
            size = path.stat().st_size
            cached = index.get(prefix)
            if isinstance(cached, dict) and cached.get("size") == size:
                entries = [list(entry)
                           for entry in cached.get("entries", [])]
                self._adopt(prefix, {"size": size, "entries": entries})
                continue
            data = path.read_bytes()
            carried: List[List[Any]] = []
            start = 0
            if isinstance(cached, dict) and \
                    0 < cached.get("size", 0) < size:
                carried = [list(entry)
                           for entry in cached.get("entries", [])]
                start = cached["size"]
            try:
                fresh, good_end = _parse_shard(path, data, start)
            except ValueError:
                if start == 0:
                    raise
                # The shard was rewritten (fsck/compact) behind a stale
                # index, so the indexed offset lands mid-line.  The index
                # is a cache, never authority: rescan the whole shard.
                carried, start = [], 0
                fresh, good_end = _parse_shard(path, data, 0)
            self._adopt(prefix, {"size": max(good_end, start),
                                 "entries": carried + fresh})
            dirty = True
        # An index naming a shard that is gone is stale too: a shard
        # re-created later at the same size would be trusted blindly.
        self._index_dirty = dirty or not set(index) <= set(self._index_meta)
        if self._index_dirty:
            try:
                self.flush_index()
            except OSError:  # pragma: no cover - read-only store dir
                pass

    def _adopt(self, prefix: str, meta: Dict[str, Any]) -> None:
        for key, offset, length in meta["entries"]:
            self._entries[key] = (prefix, offset, length)
        self._index_meta[prefix] = meta
        self._index_dirty = True

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Optional[str]) -> bool:
        return key is not None and key in self._entries

    def keys(self) -> List[str]:
        return list(self._entries)

    def total_lines(self) -> int:
        """Persisted lines across all shards (>= entries: newest wins)."""
        return sum(len(meta["entries"])
                   for meta in self._index_meta.values())

    def get(self, key: Optional[str]
            ) -> Optional[Union[SimulationResult, MultiCoreResult]]:
        """Return the stored result for ``key``, counting hits/misses.

        ``key=None`` (an uncacheable job) is counted in :attr:`unkeyed`,
        not as a miss — the hit/miss counters describe only lookups the
        store could ever have answered.
        """
        if key is None:
            self.unkeyed += 1
            return None
        encoded = self._mem.get(key)
        if encoded is None:
            location = self._entries.get(key)
            if location is not None:
                try:
                    fault_point("store.read")
                    encoded = self._read_entry(key, location)
                except OSError as error:
                    # Unreadable media degrades to a miss: the engine
                    # re-simulates, which is the only honest answer.
                    _log.warning("read of %s… failed (%s); treating as a "
                                 "miss", key[:12], error)
                    encoded = None
        if encoded is not None:
            self.hits += 1
            self._mem[key] = encoded
            return deserialize_result(encoded)
        self.misses += 1
        return None

    def _read_entry(self, key: str, location: Tuple[str, int, int]
                    ) -> Optional[Dict[str, Any]]:
        """``pread`` one entry's line at its indexed offset and decode it."""
        prefix, offset, length = location
        entry = self._pread_entry(prefix, offset, length)
        if entry is not None and entry.get("key") == key:
            return entry["result"]
        # Stale offsets (the shard was fscked/compacted behind us): rescan
        # the one shard and retry once.
        path = self._shard_path(prefix)
        if not path.is_file():
            return None
        entries, good_end = _parse_shard(path, path.read_bytes())
        self._adopt(prefix, {"size": good_end, "entries": entries})
        location = self._entries.get(key, ("", -1, 0))
        if location[0] != prefix:
            return None
        entry = self._pread_entry(prefix, location[1], location[2])
        if entry is not None and entry.get("key") == key:
            return entry["result"]
        return None

    def _pread_entry(self, prefix: str, offset: int, length: int
                     ) -> Optional[Dict[str, Any]]:
        try:
            fd = os.open(self._shard_path(prefix), os.O_RDONLY)
        except OSError:
            return None
        try:
            raw = os.pread(fd, length, offset)
        finally:
            os.close(fd)
        try:
            entry = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return None
        return entry if isinstance(entry, dict) else None

    def refresh(self, key: str) -> bool:
        """Re-check the disk for ``key``; ``True`` when it is now present.

        The cross-process read path: a fleet daemon that lost the claim
        race for ``key`` polls this until the owner's append lands.  The
        fast path is a single ``stat`` of the key's shard — only when the
        shard grew (or was rewritten) is it re-parsed, incrementally from
        the indexed offset where possible.  Read or parse failures are
        reported as "not present"; the caller simply polls again.
        """
        if key in self._entries:
            return True
        prefix = shard_for_key(key)
        path = self._shard_path(prefix)
        try:
            size = path.stat().st_size
        except OSError:
            return False
        cached = self._index_meta.get(prefix)
        indexed = prefix not in self._unindexed and isinstance(cached, dict)
        if indexed and cached.get("size") == size:
            return False
        carried: List[List[Any]] = []
        start = 0
        if indexed and 0 < cached.get("size", 0) <= size:
            carried = [list(entry) for entry in cached.get("entries", [])]
            start = cached["size"]
        try:
            data = path.read_bytes()
            try:
                fresh, good_end = _parse_shard(path, data, start)
            except ValueError:
                if start == 0:
                    raise
                carried, start = [], 0
                fresh, good_end = _parse_shard(path, data, 0)
        except (OSError, ValueError):
            return False
        # A full adoption: the scan saw every line in the shard, so the
        # shard can (re)enter the index even if a foreign put() append had
        # previously forced it out (see put()).
        self._adopt(prefix, {"size": max(good_end, start),
                             "entries": carried + fresh})
        self._unindexed.discard(prefix)
        return key in self._entries

    # ------------------------------------------------------------------
    # Cross-daemon claims (fleet work dedup)
    # ------------------------------------------------------------------
    def _claim_path(self, key: str) -> Path:
        return self.claims_dir / f"{key}.json"

    def claim(self, key: str, owner: Optional[str] = None) -> bool:
        """Atomically claim ``key`` for simulation; ``True`` if we won.

        A claim is a ``claims/<key>.json`` record.  The record is written
        to a unique ``*.tmp`` file first and published with ``os.link``,
        which fails with ``FileExistsError`` if the claim exists — so the
        filesystem arbitrates concurrent claimers, and a sibling never
        observes a claim file without its complete record.  A loser polls
        the store (:meth:`refresh`) instead of recomputing; the winner
        must :meth:`release_claim` once the result is persisted (or its
        attempt failed) so losers can take over.  Claims are a work-dedup
        optimisation, never a correctness gate: the locked shard appends
        stay safe without them.
        """
        self.claims_dir.mkdir(parents=True, exist_ok=True)
        token, start = _process_identity()
        record = json.dumps(
            {"key": key, "pid": os.getpid(), "host": _CLAIM_HOST,
             "start": start, "token": token, "time": time.time(),
             "owner": owner or ""},
            sort_keys=True)
        fd, tmp = tempfile.mkstemp(prefix=f"{key}.", suffix=".tmp",
                                   dir=self.claims_dir)
        try:
            try:
                # mkstemp creates 0600; siblings may run as other users.
                os.fchmod(fd, 0o644)
                os.write(fd, record.encode("utf-8"))
            finally:
                os.close(fd)
            os.link(tmp, self._claim_path(key))
        except FileExistsError:
            return False
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        return True

    def read_claim(self, key: str) -> Optional[Dict[str, Any]]:
        """The claim record for ``key``.

        ``None`` when no claim exists; ``{}`` when a record exists but is
        unreadable (a damaged file — :meth:`claim` only ever publishes
        complete records) — which :meth:`claim_is_stale` treats as stale.
        """
        try:
            raw = self._claim_path(key).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError:
            return {}
        try:
            entry = json.loads(raw)
        except ValueError:
            return {}
        return entry if isinstance(entry, dict) else {}

    def claim_is_stale(self, entry: Dict[str, Any]) -> bool:
        """Whether a claim's owner is presumed dead.

        Same-host owners are probed directly: a claim recorded under
        this process's pid is live only if it carries this process's
        token (a restarted daemon often gets its predecessor's pid — PID
        1 in a container), another pid is stale once ``kill(pid, 0)``
        finds it dead or its start time no longer matches the record (a
        recycled pid).  A live owner is never stale — a long simulation
        must not be stolen from a healthy daemon.  Foreign hosts cannot
        be probed, so their claims expire after :attr:`claim_ttl`
        seconds.  Malformed records are always stale.
        """
        pid = entry.get("pid")
        created = entry.get("time")
        if not isinstance(pid, int) or isinstance(pid, bool) or \
                not isinstance(created, (int, float)):
            return True
        if entry.get("host") != _CLAIM_HOST:
            return (time.time() - created) > self.claim_ttl
        if pid == os.getpid():
            return entry.get("token") != _process_identity()[0]
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except OSError:
            # PermissionError and friends: the pid exists but belongs to
            # someone else — alive as far as we can tell.
            pass
        start = entry.get("start")
        if start is None:
            return False
        current = _start_time(pid)
        return current is not None and current != start

    def steal_claim(self, key: str, owner: Optional[str] = None) -> bool:
        """Break a stale claim on ``key``; ``True`` if we now own it.

        Serialized under the store lock so two pollers cannot both break
        the same claim: staleness is re-checked after acquisition and the
        replacement record is created before the lock drops, so the
        second poller sees a fresh claim and keeps waiting.
        """
        with _store_lock(self.lock_path):
            entry = self.read_claim(key)
            if entry is None or not self.claim_is_stale(entry):
                return False
            try:
                os.unlink(self._claim_path(key))
            except OSError:
                pass
            return self.claim(key, owner=owner)

    def release_claim(self, key: str) -> None:
        """Drop the claim on ``key`` (idempotent; never raises)."""
        try:
            os.unlink(self._claim_path(key))
        except OSError:
            pass

    def active_claims(self) -> List[str]:
        """Keys currently claimed — for ``store info`` and diagnostics."""
        if not self.claims_dir.is_dir():
            return []
        # Only published records count: ``*.tmp`` files are claims still
        # being written (or left by a claimer killed mid-publication).
        return sorted(path.stem for path in self.claims_dir.glob("*.json"))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def put(self, key: str, spec: Dict[str, Any],
            result: Union[SimulationResult, MultiCoreResult]) -> None:
        """Persist one result: a locked single-``write`` shard append."""
        encoded = serialize_result(result)
        line = json.dumps({"key": key, "spec": spec, "result": encoded},
                          sort_keys=True, separators=(",", ":"))
        payload = (line + "\n").encode("utf-8")
        prefix = shard_for_key(key)
        self.shards_dir.mkdir(parents=True, exist_ok=True)
        with _store_lock(self.lock_path):
            offset = _append_payload(self._shard_path(prefix), payload)
        self.puts += 1
        self._entries[key] = (prefix, offset, len(payload))
        self._mem[key] = encoded
        if prefix in self._unindexed:
            return
        meta = self._index_meta.setdefault(
            prefix, {"size": 0, "entries": []})
        if offset != meta["size"]:
            # Another process appended to this shard since we last read
            # it: our entry list has a hole, so indexing it would hide
            # those entries from every later open.  Leave the shard out of
            # the index entirely — the next open full-scans it instead.
            self._index_meta.pop(prefix, None)
            self._unindexed.add(prefix)
            self._index_dirty = True
            return
        meta["entries"].append([key, offset, len(payload)])
        meta["size"] = offset + len(payload)
        self._index_dirty = True

    def put_with_retry(self, key: str, spec: Dict[str, Any],
                       result: Union[SimulationResult, MultiCoreResult],
                       lock: Any = None) -> Tuple[int, Optional[OSError]]:
        """:meth:`put` with a bounded retry, holding ``lock`` around each
        attempt; never raises ``OSError``.

        Returns ``(retries, error)``: the appends retried, and the last
        error if every attempt failed.  A failed append leaves the shard
        repairable in place (:func:`_append_payload`), so a retry is safe.
        """
        retries = 0
        while True:
            try:
                with lock or nullcontext():
                    self.put(key, spec, result)
                return retries, None
            except OSError as error:
                if retries + 1 == PUT_ATTEMPTS:
                    _log.warning("giving up storing %s… after %d attempts "
                                 "(%s)", key[:12], PUT_ATTEMPTS, error)
                    return retries, error
                time.sleep(PUT_BACKOFF * (2 ** retries))
                retries += 1

    def flush_index(self) -> None:
        """Persist the shard index so the next open is O(changed shards).

        Called by the CLI after a run; a stale (or missing) index is never
        wrong, only slower — shard sizes validate every index entry.  A
        no-op while nothing changed since the last write, so the daemon
        can flush after every request without rewriting the index.
        """
        if not self._index_meta or not self._index_dirty:
            return
        self.shards_dir.mkdir(parents=True, exist_ok=True)
        with _store_lock(self.lock_path):
            _write_index(self.shards_dir, self._index_meta)
        self._index_dirty = False

    def clear(self) -> None:
        """Delete every persisted shard and claim, and reset."""
        if self.shards_dir.is_dir():
            with _store_lock(self.lock_path):
                for path in sorted(self.shards_dir.glob("*.jsonl")):
                    path.unlink()
                index = self.shards_dir / INDEX_FILENAME
                if index.is_file():
                    index.unlink()
                # The lock file goes last, while its flock is still held:
                # a concurrent writer keeps excluding against this inode
                # until the deliberate clean is complete.
                if self.lock_path.is_file():
                    os.unlink(self.lock_path)
            try:
                self.shards_dir.rmdir()
            except OSError:  # pragma: no cover - foreign files left behind
                pass
        if self.claims_dir.is_dir():
            for path in self.claims_dir.iterdir():
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - racing release
                    pass
            try:
                self.claims_dir.rmdir()
            except OSError:  # pragma: no cover - foreign files left behind
                pass
        self._entries.clear()
        self._mem.clear()
        self._index_meta.clear()
        self._unindexed.clear()
        self._index_dirty = False
        self.hits = 0
        self.misses = 0
        self.unkeyed = 0
        self.puts = 0

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def fsck(self) -> Dict[str, int]:
        """Salvage the on-disk store in place, then reload this view.

        See :func:`fsck_store` (which also works when the store is too
        corrupt for ``__init__`` to load).
        """
        report = fsck_store(self.root)
        self._entries.clear()
        self._mem.clear()
        self._index_meta.clear()
        self._unindexed.clear()
        self._load()
        return report

    def compact(self) -> Dict[str, int]:
        """Drop superseded lines: keep only each key's newest entry.

        Shards are rewritten atomically under the store lock, preserving
        the file order of the surviving lines, so compaction is
        idempotent — a second run changes nothing.
        """
        report = {"entries": 0, "removed_lines": 0, "rewritten_shards": 0}
        if not self.shards_dir.is_dir():
            return report
        # Built locally and adopted only on success: a corrupt shard's
        # ValueError must leave this instance's view intact.
        new_entries: Dict[str, Tuple[str, int, int]] = {}
        new_meta: Dict[str, Dict[str, Any]] = {}
        with _store_lock(self.lock_path):
            for path in sorted(self.shards_dir.glob("*.jsonl")):
                prefix = path.stem
                data = path.read_bytes()
                parsed, _ = _parse_shard(path, data)
                newest = {key: position
                          for position, (key, _, _) in enumerate(parsed)}
                kept = [(key, data[offset:offset + length])
                        for position, (key, offset, length)
                        in enumerate(parsed) if newest[key] == position]
                rewritten, meta = _rebuild_shard(path, kept, data)
                if rewritten:
                    report["rewritten_shards"] += 1
                    report["removed_lines"] += len(parsed) - len(kept)
                for key, offset, length in meta["entries"]:
                    new_entries[key] = (prefix, offset, length)
                new_meta[prefix] = meta
                report["entries"] += len(kept)
            _write_index(self.shards_dir, new_meta)
        self._entries = new_entries
        self._index_meta = new_meta
        self._unindexed = set()
        self._index_dirty = False
        return report


def fsck_store(root: Union[str, Path]) -> Dict[str, int]:
    """Salvage a store directory in place (file-system level, lock held).

    Usable even when the store is too corrupt for :class:`ResultStore` to
    open: every shard is scanned tolerantly, good entries are kept —
    relocated to their correct shard if misplaced, newline-terminated if
    a crash left a readable but unterminated tail — and
    torn/corrupt/foreign lines are dropped.
    Touched shards are rewritten atomically; clean shards keep their exact
    bytes.  The index is rebuilt from scratch.
    """
    root = Path(root)
    shards_dir = root / SHARDS_DIRNAME
    report = {"kept": 0, "moved": 0, "torn": 0,
              "corrupt": 0, "foreign": 0, "rewritten_shards": 0}
    if not shards_dir.is_dir():
        return report

    def salvage(data: bytes) -> Iterator[Tuple[str, bytes]]:
        for kind, offset, length, entry in _classify_lines(
                data, salvage_unterminated=True):
            if kind != "good":
                report[kind] += 1
                continue
            line = data[offset:offset + length]
            if not line.endswith(b"\n"):
                line += b"\n"
            yield entry["key"], line

    with _store_lock(shards_dir / LOCK_FILENAME):
        # Entries that must move: misplaced keys.
        incoming: Dict[str, List[Tuple[str, bytes]]] = {}
        contents: Dict[str, List[Tuple[str, bytes]]] = {}
        originals: Dict[str, bytes] = {}
        for path in sorted(shards_dir.glob("*.jsonl")):
            prefix = path.stem
            data = path.read_bytes()
            originals[prefix] = data
            kept: List[Tuple[str, bytes]] = []
            for key, line in salvage(data):
                target = shard_for_key(key)
                if target != prefix:
                    incoming.setdefault(target, []).append((key, line))
                else:
                    kept.append((key, line))
                    report["kept"] += 1
            contents[prefix] = kept
        for prefix, items in incoming.items():
            kept = contents.setdefault(prefix, [])
            present = {key for key, _ in kept}
            # Within the incoming lines the last occurrence supersedes
            # earlier ones (file order == put order)...
            chosen = dict(items)
            for key, line in chosen.items():
                # ...but an entry already in its home shard wins outright:
                # the store only ever appends a key to its home shard.
                if key in present:
                    continue
                kept.append((key, line))
                present.add(key)
                report["moved"] += 1
        index_meta: Dict[str, Dict[str, Any]] = {}
        for prefix in sorted(contents):
            rewritten, meta = _rebuild_shard(
                shards_dir / f"{prefix}.jsonl", contents[prefix],
                originals.get(prefix))
            if rewritten:
                report["rewritten_shards"] += 1
            index_meta[prefix] = meta
        _write_index(shards_dir, index_meta)
    return report


#: Process-wide cache of environment-default stores, keyed by resolved
#: path: drivers construct one SimulationEngine per comparison, and each
#: engine must not re-read the whole store file.
_DEFAULT_STORES: Dict[str, ResultStore] = {}


def default_store() -> Optional[ResultStore]:
    """The store named by ``REPRO_STORE``, or ``None`` when unset/empty.

    This is the opt-in hook the drivers and benchmark fixtures read
    through: exporting ``REPRO_STORE=results`` makes every
    :class:`~repro.sim.engine.SimulationEngine` (and therefore
    ``run_predictor_comparison`` / ``run_mix_comparison`` and the figure
    benchmarks) serve repeated grids from disk instead of recomputing.

    The returned store is memoized per resolved path, so the many engines
    one benchmark session constructs share a single loaded index instead
    of re-parsing ``store.jsonl`` each time.
    """
    return open_store(None)


def open_store(root: Union[None, str, Path] = None) -> Optional[ResultStore]:
    """Open (or reuse) the results store at ``root``.

    ``None``/empty consults ``REPRO_STORE`` and returns ``None`` when that
    is unset too.  Stores are memoized per resolved path — repeated opens
    (one per engine, one per figure benchmark) share a single loaded index
    instead of re-parsing ``store.jsonl`` each time.  This is the blessed
    public entry point re-exported by :mod:`repro.api`.
    """
    if root is None or not str(root).strip():
        root = os.environ.get(REPRO_STORE_ENV, "").strip()
        if not root:
            return None
    resolved = str(Path(root).resolve())
    store = _DEFAULT_STORES.get(resolved)
    if store is None:
        store = ResultStore(root)
        _DEFAULT_STORES[resolved] = store
    return store
