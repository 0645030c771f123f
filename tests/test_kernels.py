"""Grid replay equivalence: the engine against the record path.

:meth:`~repro.memory.hierarchy.CoreMemoryHierarchy.run_buffer` is the
simulator's only replay loop.  Its reference is the record path that
ships beside it — :meth:`~repro.memory.hierarchy.CoreMemoryHierarchy.access`
over ``buffer.to_accesses()`` — and the two must agree exactly, here for
every registered application under every compared system, comparing full
serialized result dicts (float accumulators included).  The boundary-case
and per-access replay tests live in ``tests/test_tracebuffer.py``.
"""

from __future__ import annotations

import pytest

from repro.sim.config import SystemConfig
from repro.sim.engine import SimulationJob, execute_job
from repro.sim.store import serialize_result
from repro.sim.system import SimulatedSystem
from repro.experiments import COMPARED_SYSTEMS
from repro.workloads import APPLICATIONS, build_workload


@pytest.mark.parametrize("app", APPLICATIONS)
def test_grid_bit_identity(app):
    """The engine's buffer replay equals the record path for every
    compared system, warm-up split included."""
    buffer = build_workload(app).generate_buffer(550, seed=3)
    warm, measured = buffer[:150].to_accesses(), buffer[150:].to_accesses()
    for predictor in COMPARED_SYSTEMS:
        job = SimulationJob(workload=app, predictor=predictor,
                            num_accesses=400, warmup_accesses=150, seed=3)
        system = SimulatedSystem(
            SystemConfig.paper_single_core().with_predictor(predictor))
        system.hierarchy.run_trace(warm)
        system.reset_statistics()
        reference = serialize_result(system.run_trace(measured, app))
        assert serialize_result(execute_job(job)) == reference, \
            f"{app}/{predictor} diverged"
