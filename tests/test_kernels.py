"""Replay-loop equivalence: ``run_buffer`` against the record path.

:meth:`~repro.memory.hierarchy.CoreMemoryHierarchy.run_buffer` is the
simulator's only replay loop.  Its reference is the record path that
ships beside it — :meth:`~repro.memory.hierarchy.CoreMemoryHierarchy.access`
over ``buffer.to_accesses()`` — and the two must agree exactly: these
tests compare full serialized result dicts (float accumulators included)
and per-access result lists, never aggregates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.config import SystemConfig
from repro.sim.engine import SimulationJob, execute_job
from repro.sim.store import serialize_result
from repro.sim.system import SimulatedSystem
from repro.trace import KIND_LOAD, KIND_STORE, TraceBuffer
from repro.experiments import COMPARED_SYSTEMS
from repro.workloads import APPLICATIONS, build_workload


def _buffer(addresses, kinds=None, pcs=None) -> TraceBuffer:
    n = len(addresses)
    kinds = kinds if kinds is not None else [KIND_LOAD] * n
    pcs = pcs if pcs is not None else [0x400 + 4 * i for i in range(n)]
    return TraceBuffer(addresses, pcs, kinds, [8] * n, [False] * n,
                       [0] * n, [0] * n)


def _system(predictor: str = "lp") -> SimulatedSystem:
    return SimulatedSystem(
        SystemConfig.paper_single_core().with_predictor(predictor))


def _run(trace, predictor: str = "lp"):
    return serialize_result(_system(predictor).run_trace(trace, "crafted"))


def assert_replay_matches_records(buffer: TraceBuffer,
                                  predictor: str = "lp"):
    assert _run(buffer, predictor) == _run(buffer.to_accesses(), predictor)


# ======================================================================
# Full-grid bit-identity: all apps x all compared systems
# ======================================================================
@pytest.mark.parametrize("app", APPLICATIONS)
def test_grid_bit_identity(app):
    """The engine's buffer replay equals the record path for every
    compared system, warm-up split included."""
    buffer = build_workload(app).generate_buffer(550, seed=3)
    warm, measured = buffer[:150].to_accesses(), buffer[150:].to_accesses()
    for predictor in COMPARED_SYSTEMS:
        job = SimulationJob(workload=app, predictor=predictor,
                            num_accesses=400, warmup_accesses=150, seed=3)
        system = _system(predictor)
        system.hierarchy.run_trace(warm)
        system.reset_statistics()
        reference = serialize_result(system.run_trace(measured, app))
        assert serialize_result(execute_job(job)) == reference, \
            f"{app}/{predictor} diverged"


# ======================================================================
# Degenerate and boundary buffers
# ======================================================================
class TestSegmentBoundaries:
    def test_empty_buffer(self):
        buffer = _buffer([64])[:0]
        assert len(buffer) == 0
        assert _system().hierarchy.run_buffer(buffer) == []
        assert_replay_matches_records(buffer)

    def test_single_access_buffer(self):
        assert_replay_matches_records(_buffer([0x1000]))

    def test_fill_on_first_access(self):
        assert_replay_matches_records(_buffer([0x4000] * 10))

    def test_runs_with_stores(self):
        kinds = ([KIND_LOAD, KIND_STORE, KIND_LOAD, KIND_STORE] * 5)[:18]
        assert_replay_matches_records(_buffer([0x2000] * 18, kinds=kinds))

    def test_store_only_run(self):
        assert_replay_matches_records(
            _buffer([0x8000] * 7, kinds=[KIND_STORE] * 7))

    def test_alternating_blocks(self):
        addresses = [0x1000, 0x2000] * 20
        assert_replay_matches_records(_buffer(addresses))

    def test_sequential_blocks_trigger_prefetch_tags(self):
        # A sequential sweep tags next-line blocks; repeats then hit
        # tagged lines.
        addresses = []
        for i in range(8):
            addresses.extend([0x10000 + 64 * i] * 5)
        addresses.extend([0x10000 + 64 * 3] * 6)
        assert_replay_matches_records(_buffer(addresses))

    def test_run_longer_than_prefetch_window(self):
        # Longer than the 32-entry prefetch-window deques.
        assert_replay_matches_records(_buffer([0x3000] * 100))

    def test_window_straddling_runs(self):
        # Misses first (Trues in the inflight window), then a long run
        # that ages them out.
        addresses = [0x100000 + 4096 * i for i in range(20)]
        addresses.extend([0x200000] * 25)
        assert_replay_matches_records(_buffer(addresses))

    def test_page_boundary_runs(self):
        # Adjacent runs alternate pages, so TLB recency moves between runs.
        addresses = []
        for i in range(6):
            addresses.extend([0x40000 + 4096 * (i % 2)] * 4)
        assert_replay_matches_records(_buffer(addresses))

    @pytest.mark.parametrize("predictor", COMPARED_SYSTEMS)
    def test_crafted_mix_all_systems(self, predictor):
        rng = np.random.default_rng(11)
        pages = rng.integers(0, 64, size=120)
        runs = rng.integers(1, 9, size=120)
        addresses, kinds = [], []
        for page, run in zip(pages, runs):
            base = 0x100000 + int(page) * 4096
            addresses.extend([base + 64 * int(run)] * int(run))
            kinds.extend([KIND_STORE if (page + run) % 3 == 0
                          else KIND_LOAD] * int(run))
        assert_replay_matches_records(_buffer(addresses, kinds=kinds),
                                      predictor=predictor)


# ======================================================================
# Per-access results and line state
# ======================================================================
def test_record_path_matches_kernels():
    """Per-access results of ``run_buffer`` equal the record path's."""
    buffer = _buffer([0x5000] * 6 + [0x6000, 0x5000, 0x5008])
    buffer_results = _system().hierarchy.run_buffer(buffer)
    record_results = _system().hierarchy.run_trace(buffer.to_accesses())
    assert buffer_results == record_results


def test_store_access_marks_line_dirty():
    hierarchy = _system().hierarchy
    kinds = [KIND_LOAD] + [KIND_STORE] * 3
    hierarchy.run_buffer(_buffer([0x9000] * 4, kinds=kinds))
    l1 = hierarchy.l1
    if l1._block_shift >= 0:
        set_index = (0x9000 >> l1._block_shift) & l1._set_mask
        way = l1._tag_to_way[set_index].get(0x9000 >> l1._tag_shift)
    else:
        set_index, way = l1._find(0x9000)
    assert way is not None
    assert l1._lines[set_index][way].dirty
