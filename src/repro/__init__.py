"""repro: reproduction of "Reducing Load Latency with Cache Level Prediction".

The package is organised as:

* :mod:`repro.core` — the paper's contribution: the LocMap + Popular-Levels-
  Detector level predictor and the TAGE / D2D / Ideal comparison points.
* :mod:`repro.memory` — the memory-hierarchy substrate: caches, TLBs, the
  sharer directory, DRAM and the level-predicted lookup path.
* :mod:`repro.prefetch` — the baseline prefetch scheme and the Figure-3 sweep.
* :mod:`repro.cpu` — the out-of-order core timing model.
* :mod:`repro.energy` — per-access energy accounting.
* :mod:`repro.trace` — the columnar trace substrate on stdlib ``array``
  columns (:class:`~repro.trace.TraceBuffer`) every layer above generates
  into and replays from, in memory.
* :mod:`repro.workloads` — synthetic traces for every evaluated application.
* :mod:`repro.sim` — system assembly, single/multi-core drivers, the
  batched/parallel :mod:`simulation engine <repro.sim.engine>` (trace cache +
  ``REPRO_JOBS`` worker fan-out) the drivers run on, and the
  content-addressed :mod:`results store <repro.sim.store>` it reads through.
* :mod:`repro.analysis` — Figure-1 classification and report formatting.
* :mod:`repro.faults` — the deterministic fault-injection plane
  (``REPRO_FAULTS`` / ``--faults``) exercising every recovery path above.
* :mod:`repro.experiments` / :mod:`repro.cli` — the declarative figure/table
  registry and the ``python -m repro`` CLI that runs it through the store.

Quick start::

    from repro.sim import SystemConfig, run_predictor_comparison
    from repro.workloads import build_workload

    results = run_predictor_comparison(
        build_workload("gapbs.pr"), num_accesses=50_000,
        predictors=("baseline", "lp"))
    print(results["lp"].speedup_over(results["baseline"]))
"""

from .faults import FaultPlane, FaultRule, FaultSpecError, fault_point

from .core import (
    CacheLevelPredictor,
    DirectToDataPredictor,
    LevelPredictor,
    LevelPredictorConfig,
    Prediction,
    PredictionOutcome,
    SequentialPredictor,
    TAGELevelPredictor,
)
from .memory import (
    CoreMemoryHierarchy,
    Level,
    MemoryAccess,
    SharedMemorySystem,
)
from .sim import (
    MultiCoreSystem,
    SimulatedSystem,
    SimulationEngine,
    SimulationJob,
    SimulationResult,
    SystemConfig,
    TraceCache,
    build_system,
    run_predictor_comparison,
)
from .trace import TraceBuffer
from .workloads import HIGHLIGHTED_APPLICATIONS, build_workload

__version__ = "1.0.0"

__all__ = [
    "CacheLevelPredictor",
    "CoreMemoryHierarchy",
    "DirectToDataPredictor",
    "FaultPlane",
    "FaultRule",
    "FaultSpecError",
    "HIGHLIGHTED_APPLICATIONS",
    "Level",
    "LevelPredictor",
    "LevelPredictorConfig",
    "MemoryAccess",
    "MultiCoreSystem",
    "Prediction",
    "PredictionOutcome",
    "SequentialPredictor",
    "SharedMemorySystem",
    "SimulatedSystem",
    "SimulationEngine",
    "SimulationJob",
    "SimulationResult",
    "SystemConfig",
    "TraceBuffer",
    "TraceCache",
    "TAGELevelPredictor",
    "build_system",
    "build_workload",
    "fault_point",
    "run_predictor_comparison",
    "__version__",
]
