"""The stable public facade: the blessed entry points, in one module.

External callers used to reach directly into ``repro.sim.engine``,
``repro.sim.store`` and ``repro.service`` internals, which pinned those
modules' layouts forever.  ``repro.api`` re-exports (and thinly wraps)
the supported surface; everything else under ``repro.sim``/
``repro.service`` is internal and may move without notice.  The
migration map:

======================================  ===============================
old import                               blessed replacement
======================================  ===============================
``repro.sim.engine.SimulationEngine``   :func:`run_job` / :func:`run_figure`
                                        (or ``repro.api.SimulationEngine``)
``repro.sim.engine.SimulationJob``      ``repro.api.SimulationJob``
``repro.sim.engine.MixJob``             ``repro.api.MixJob``
``repro.sim.store.ResultStore(path)``   :func:`open_store`
``repro.sim.store.default_store``       :func:`open_store` (no argument)
``repro.service.ServiceClient``         :func:`connect` (a ``FleetClient``;
                                        one address is a fleet of one)
``repro.cli.run_experiment``            :func:`run_figure` (both run in
                                        an in-process daemon core)
======================================  ===============================

Execution knobs travel as an :class:`EngineOptions` (or its ``jobs``
shorthand argument); environment variables are resolved in exactly one
place, :meth:`EngineOptions.from_env`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional, Union

from .experiments import EXPERIMENTS, Scale
from .memory.spec import (
    HierarchySpec,
    InterconnectSpec,
    LevelSpec,
    MemorySpec,
    TLBSpec,
    load_hierarchy,
)
from .service import FleetClient, ServiceClient
from .sim.engine import MixJob, SimulationEngine, SimulationJob, \
    apply_hierarchy
from .sim.options import EngineOptions
from .sim.store import ResultStore, open_store

__all__ = [
    "EngineOptions",
    "FleetClient",
    "HierarchySpec",
    "InterconnectSpec",
    "LevelSpec",
    "MemorySpec",
    "MixJob",
    "ResultStore",
    "Scale",
    "ServiceClient",
    "SimulationEngine",
    "SimulationJob",
    "TLBSpec",
    "apply_hierarchy",
    "connect",
    "load_hierarchy",
    "open_store",
    "run_figure",
    "run_job",
]


def run_job(job: Union[SimulationJob, MixJob],
            options: Optional[EngineOptions] = None,
            store: Union[None, bool, str, Path, ResultStore] = None,
            force: bool = False) -> Any:
    """Run one simulation job and return its result object.

    Reads through the results store when one is configured (``store``
    argument, ``options.store``, or ``REPRO_STORE``): previously computed
    jobs are served from disk, fresh ones are simulated and persisted.
    Pass ``store=False`` to force a from-scratch in-process simulation.
    """
    engine = SimulationEngine(store=store, options=options)
    return engine.run([job], force=force)[0]


def run_figure(name: str,
               scale: Optional[Scale] = None,
               store: Union[str, Path, ResultStore, None] = None,
               options: Optional[EngineOptions] = None,
               jobs: Optional[int] = None,
               hierarchy: Union[str, Path, HierarchySpec, None] = None,
               force: bool = False):
    """Run one named figure/table experiment grid; returns its RunReport.

    ``name`` is a key of :data:`repro.experiments.EXPERIMENTS` (e.g.
    ``"fig11"``, ``"golden"``).  ``store`` defaults to the configured
    results store (``REPRO_STORE``) or ``./results``; stats are written
    under ``<store>/stats/<name>.json`` exactly like ``repro run``.
    ``hierarchy`` substitutes a declarative hierarchy spec (a
    :class:`HierarchySpec`, named ``"custom"``, or a path to its JSON
    file) into every job of the grid, like ``repro run --hierarchy``;
    the grid runs, and claims its keys, like a local ``repro run``.
    """
    # Imported lazily: the CLI imports this module's siblings freely and
    # the facade must stay importable without argparse side effects.
    from .cli import run_experiment

    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {name!r}; known: {known}")
    if options is None:
        options = EngineOptions.from_env(jobs=jobs)
    else:
        options = options.with_overrides(jobs=jobs)
    if hierarchy is None:
        hierarchy = options.hierarchy
    if store is None:
        store = open_store(options.store) or ResultStore("results")
    elif not isinstance(store, ResultStore):
        store = ResultStore(store)
    return run_experiment(name, store, scale or Scale(),
                          jobs=options.jobs, force=force,
                          hierarchy=hierarchy, pool=options.pool)


def connect(address: Union[str, int]) -> FleetClient:
    """Connect to running simulation daemons (see ``repro serve``).

    ``address`` is a TCP port, ``host:port``, or a unix socket path —
    the same forms the CLI's ``--remote`` flag accepts — or a
    comma-separated list of those.  The :class:`FleetClient` routes
    requests across the members by job-key hash and fails over on
    connection/timeout/overloaded errors; one address is a fleet of
    one.  The client keeps its connections open between requests;
    close it with ``close()`` or use it in a ``with`` block.
    """
    return FleetClient(str(address))
