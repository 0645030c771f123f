"""``EngineOptions``: one resolution point for the execution knobs.

Before this module existed the execution knobs travelled three different
ways — ``REPRO_*`` environment variables parsed ad hoc at each consumer
(engine, daemon, trace cache), constructor kwargs, and argparse
namespaces — and a knob like the worker count was resolved in two places
with slightly different error behaviour.  :class:`EngineOptions` is the
single place environment resolution happens: the CLI, the
:class:`~repro.sim.engine.SimulationEngine` and the
:class:`~repro.service.SimulationService` all build one (explicit
arguments win over the environment, the environment wins over defaults)
and read plain attributes afterwards.

The knobs and their environment variables:

============  ==================  ==========================================
attribute     environment          meaning
============  ==================  ==========================================
``jobs``      ``REPRO_JOBS``      worker process/thread count (1 = serial)
``pool``      ``REPRO_POOL``      worker pool kind (daemon, engine, local
                                  runs): ``process`` (default) or ``thread``
``store``     ``REPRO_STORE``     results-store root, ``None`` = no store
``trace_dir`` ``REPRO_TRACE_DIR`` trace-cache spill dir (``""`` disables;
                                  ``None`` = derive from the store)
``faults``    ``REPRO_FAULTS``    fault-injection schedule spec
``hierarchy`` ``REPRO_HIERARCHY`` path to a declarative hierarchy spec
                                  (JSON, see :mod:`repro.memory.spec`);
                                  ``None`` = the experiment's own configs
============  ==================  ==========================================

``trace_dir`` and ``faults`` still *propagate* to worker processes through
the environment (workers resolve them lazily in their own process), but
the parsing/precedence logic lives only here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional

from ..faults import REPRO_FAULTS_ENV
from .store import REPRO_STORE_ENV, REPRO_TRACE_DIR_ENV

#: Environment variable selecting the worker count (engine processes /
#: daemon workers).  Unset or empty means 1 (deterministic serial path).
REPRO_JOBS_ENV = "REPRO_JOBS"

#: Environment variable selecting the worker-pool kind.
REPRO_POOL_ENV = "REPRO_POOL"

#: Environment variable naming a declarative hierarchy spec file applied
#: to every job (``run --hierarchy`` / ``serve --hierarchy``).
REPRO_HIERARCHY_ENV = "REPRO_HIERARCHY"

#: Worker-pool kinds.  ``process`` saturates a many-core host;
#: ``thread`` keeps jobs in-process (what tests that monkeypatch
#: ``execute_job`` or install an in-process fault plane rely on).
POOL_KINDS = ("process", "thread")


def _resolve_jobs(jobs: Optional[int]) -> int:
    """Explicit worker count, else ``REPRO_JOBS``, else 1."""
    if jobs is not None:
        return int(jobs)
    env_value = os.environ.get(REPRO_JOBS_ENV, "").strip()
    if not env_value:
        return 1
    try:
        return int(env_value)
    except ValueError as exc:
        raise ValueError(
            f"{REPRO_JOBS_ENV} must be an integer, got "
            f"{env_value!r}") from exc


def _resolve_pool(pool: Optional[str]) -> str:
    """Explicit pool kind, else ``REPRO_POOL``, else ``process``."""
    if pool is None:
        pool = os.environ.get(REPRO_POOL_ENV, "").strip() or "process"
    pool = str(pool).strip().lower()
    if pool not in POOL_KINDS:
        raise ValueError(
            f"pool kind must be one of {', '.join(POOL_KINDS)}, "
            f"got {pool!r}")
    return pool


@dataclass(frozen=True)
class EngineOptions:
    """Resolved execution knobs (workers, pool, store, traces, faults,
    hierarchy).

    Instances are immutable; build one with :meth:`from_env` (the normal
    path — applies the explicit-over-environment-over-default precedence)
    or directly when a test wants full control.  ``store``/``trace_dir``/
    ``faults`` are kept as raw strings (paths / spec), not opened objects:
    the options must stay cheap to construct and pickle.
    """

    jobs: int = 1
    pool: str = "process"
    store: Optional[str] = None
    trace_dir: Optional[str] = None
    faults: Optional[str] = None
    hierarchy: Optional[str] = None

    @classmethod
    def from_env(cls, jobs: Optional[int] = None,
                 pool: Optional[str] = None,
                 store: Optional[str] = None,
                 trace_dir: Optional[str] = None,
                 faults: Optional[str] = None,
                 hierarchy: Optional[str] = None) -> "EngineOptions":
        """Build options: explicit arguments win, then environment, then
        defaults.

        ``store`` and ``faults`` treat an empty string like ``None``
        (disabled).  ``trace_dir`` preserves the empty string — an empty
        ``REPRO_TRACE_DIR`` explicitly disables trace spilling, while
        ``None`` means "derive from the store location".
        """
        if store is None:
            store = os.environ.get(REPRO_STORE_ENV, "").strip() or None
        elif not str(store).strip():
            store = None
        else:
            store = str(store)
        if trace_dir is None:
            trace_dir = os.environ.get(REPRO_TRACE_DIR_ENV)
        else:
            trace_dir = str(trace_dir)
        if faults is None:
            faults = os.environ.get(REPRO_FAULTS_ENV, "").strip() or None
        if hierarchy is None:
            hierarchy = os.environ.get(REPRO_HIERARCHY_ENV, "").strip() \
                or None
        elif not str(hierarchy).strip():
            hierarchy = None
        else:
            hierarchy = str(hierarchy)
        return cls(jobs=max(1, _resolve_jobs(jobs)),
                   pool=_resolve_pool(pool),
                   store=store, trace_dir=trace_dir, faults=faults,
                   hierarchy=hierarchy)

    def with_overrides(self, jobs: Optional[int] = None,
                       pool: Optional[str] = None) -> "EngineOptions":
        """A copy with non-``None`` overrides applied (no env consulted)."""
        updated = self
        if jobs is not None:
            updated = replace(updated, jobs=max(1, int(jobs)))
        if pool is not None:
            updated = replace(updated, pool=_resolve_pool(pool))
        return updated
