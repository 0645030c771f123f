"""System assembly, configuration and simulation drivers.

The package's execution substrate is :mod:`repro.sim.engine`: a batched
simulation driver that expands (workload, predictor, config, seed) grids
into picklable jobs, reuses generated traces through a process-local
:class:`~repro.sim.engine.TraceCache`, and runs the jobs inline in the
caller's thread.  When the ``REPRO_JOBS`` environment variable (or an
explicit ``SimulationEngine(jobs=N)``) asks for parallelism, it hands the
grid to an in-process daemon core (:class:`~repro.service.SimulationService`),
which fans the jobs out over worker processes.  Serial and parallel
execution are bit-identical; see the engine module docstring.

Results persist through :mod:`repro.sim.store`, a content-addressed store
the engine reads through when constructed with one (or when the
``REPRO_STORE`` environment variable names a store directory): stored jobs
are served from disk, fresh ones are simulated and persisted.  The
``python -m repro`` CLI (:mod:`repro.cli`) runs whole figure grids on top
of it.
"""

from .config import PREDICTOR_NAMES, SystemConfig, table1_description
from .engine import (
    MixJob,
    SimulationEngine,
    SimulationJob,
    TRACE_CACHE,
    TraceCache,
    expand_grid,
    execute_job,
)
from .multicore import MultiCoreResult, MultiCoreSystem, run_mix_comparison
from .store import (
    ResultStore,
    UncacheableJobError,
    default_store,
    deserialize_result,
    fsck_store,
    job_key,
    job_spec,
    serialize_result,
    shard_for_key,
)
from .stats import (
    MissFilteringRatios,
    MissTraceWindow,
    WindowedMissTracker,
    miss_filtering_ratios,
    run_with_windows,
)
from .system import (
    SimulatedSystem,
    SimulationResult,
    build_system,
    make_llc_prefetcher,
    make_predictor,
    run_predictor_comparison,
)

__all__ = [
    "MissFilteringRatios",
    "MissTraceWindow",
    "MixJob",
    "MultiCoreResult",
    "MultiCoreSystem",
    "PREDICTOR_NAMES",
    "ResultStore",
    "SimulatedSystem",
    "SimulationEngine",
    "SimulationJob",
    "SimulationResult",
    "SystemConfig",
    "TRACE_CACHE",
    "TraceCache",
    "UncacheableJobError",
    "WindowedMissTracker",
    "default_store",
    "deserialize_result",
    "execute_job",
    "expand_grid",
    "fsck_store",
    "job_key",
    "job_spec",
    "serialize_result",
    "shard_for_key",
    "build_system",
    "make_llc_prefetcher",
    "make_predictor",
    "miss_filtering_ratios",
    "run_mix_comparison",
    "run_predictor_comparison",
    "run_with_windows",
    "table1_description",
]
