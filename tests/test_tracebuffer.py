"""Tests for the columnar trace substrate (repro.trace.TraceBuffer).

The load-bearing property is exact equivalence: for every registered
workload (and the Table II mixes) the buffer columns must match the legacy
``generate()`` record stream field-for-field, ``.npz`` persistence must
round-trip bit-for-bit, and replaying a buffer through a system must
reproduce the per-record path's results exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.experiments import COMPARED_SYSTEMS
from repro.memory.block import AccessType, MemoryAccess
from repro.memory.spec import load_hierarchy
from repro.sim.config import SystemConfig
from repro.sim.engine import SimulationJob, TraceCache, execute_job
from repro.sim.multicore import MultiCoreSystem
from repro.sim.store import serialize_result, trace_key, try_trace_key
from repro.sim.system import SimulatedSystem
from repro.trace import (
    KIND_CODES,
    KIND_LOAD,
    KIND_STORE,
    TraceBuffer,
    as_trace_buffer,
)
from repro.workloads import (
    APPLICATIONS,
    MIXES,
    build_workload,
    generate_mix_buffers,
    generate_mix_traces,
)

#: A spread of behaviours for the heavier (simulation-driving) tests.
SAMPLE_APPS = ("gapbs.bfs", "605.mcf", "stream", "gups", "602.gcc")

#: The committed declarative hierarchy examples.
HIERARCHIES = Path(__file__).resolve().parent.parent / "examples" \
    / "hierarchies"


def assert_buffer_matches_records(buffer: TraceBuffer, records) -> None:
    """Field-for-field comparison against a legacy record list."""
    assert len(buffer) == len(records)
    assert buffer.address.tolist() == [a.address for a in records]
    assert buffer.pc.tolist() == [a.pc for a in records]
    assert buffer.kind.tolist() == [KIND_CODES[a.access_type]
                                    for a in records]
    assert buffer.size.tolist() == [a.size for a in records]
    assert buffer.dependent.tolist() == [a.depends_on_previous
                                         for a in records]
    assert buffer.non_memory.tolist() == [a.non_memory_instructions
                                          for a in records]
    assert buffer.thread_id.tolist() == [a.thread_id for a in records]


class TestGenerationEquivalence:
    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_buffer_equals_legacy_stream(self, name):
        workload = build_workload(name)
        legacy = workload.generate(300, seed=5)
        buffer = build_workload(name).generate_buffer(300, seed=5)
        assert_buffer_matches_records(buffer, legacy)
        assert buffer == legacy  # __eq__ accepts record sequences too

    def test_base_address_and_thread_id_respected(self):
        workload = build_workload("stream")
        legacy = workload.generate(100, seed=2, base_address=1 << 36,
                                   thread_id=3)
        buffer = workload.generate_buffer(100, seed=2, base_address=1 << 36,
                                          thread_id=3)
        assert_buffer_matches_records(buffer, legacy)
        assert set(buffer.thread_id.tolist()) == {3}

    @pytest.mark.parametrize("mix", sorted(MIXES))
    def test_mix_buffers_equal_mix_traces(self, mix):
        legacy = generate_mix_traces(mix, accesses_per_core=120, seed=0)
        buffers = generate_mix_buffers(mix, accesses_per_core=120, seed=0)
        assert len(buffers) == len(legacy)
        for buffer, records in zip(buffers, legacy):
            assert_buffer_matches_records(buffer, records)

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            build_workload("gups").generate_buffer(0)


class TestBufferSemantics:
    def test_slicing_is_zero_copy(self):
        buffer = build_workload("gapbs.pr").generate_buffer(500, seed=0)
        view = buffer[100:400]
        assert len(view) == 300
        assert np.shares_memory(view.address, buffer.address)
        assert view.address.tolist() == buffer.address.tolist()[100:400]

    def test_sliced_derived_columns_stay_views(self):
        buffer = build_workload("gapbs.pr").generate_buffer(200, seed=0)
        blocks = buffer.block_column()
        view = buffer[50:]
        assert np.shares_memory(view.block_column(), blocks)

    def test_block_and_page_columns_match_scalar_decomposition(self):
        buffer = build_workload("605.mcf").generate_buffer(400, seed=1)
        addresses = buffer.address.tolist()
        assert buffer.block_column(64).tolist() == \
            [a & ~63 for a in addresses]
        assert buffer.page_column(4096).tolist() == \
            [a >> 12 for a in addresses]

    def test_round_trip_through_records(self):
        buffer = build_workload("hpcg").generate_buffer(150, seed=4)
        records = buffer.to_accesses()
        assert all(isinstance(r, MemoryAccess) for r in records)
        assert TraceBuffer.from_accesses(records) == buffer
        assert as_trace_buffer(records) == buffer
        assert as_trace_buffer(buffer) is buffer

    def test_indexing_rebuilds_records(self):
        workload = build_workload("gups")
        buffer = workload.generate_buffer(50, seed=9)
        legacy = workload.generate(50, seed=9)
        assert buffer[7] == legacy[7]
        assert buffer[7].access_type in (AccessType.LOAD, AccessType.STORE)

    def test_replay_columns_reject_non_demand_kinds(self):
        buffer = TraceBuffer.from_accesses(
            [MemoryAccess(address=64, access_type=AccessType.PREFETCH)])
        with pytest.raises(ValueError):
            buffer.replay_columns()

    def test_summary_counts(self):
        buffer = build_workload("gups").generate_buffer(1000, seed=0)
        summary = buffer.summary()
        assert summary["accesses"] == 1000
        assert summary["loads"] + summary["stores"] == 1000
        assert summary["footprint_bytes"] == summary["unique_blocks"] * 64
        assert summary["buffer_bytes"] == buffer.nbytes
        # gups barely reuses blocks, so the footprint is nearly maximal.
        assert summary["unique_blocks"] > 900

    def test_buffer_takes_under_half_the_record_lists_memory(self):
        """Packed columns against the record list they replace (about
        23 against 105 bytes per access on gapbs.pr)."""
        import sys

        workload = build_workload("gapbs.pr")
        buffer = workload.generate_buffer(1000, seed=0)
        records = workload.generate(1000, seed=0)
        # Every record is the same size, plus one list slot per record.
        records_bytes = sys.getsizeof(records) + len(records) * (
            sys.getsizeof(records[0]) + 8)
        assert 2 * buffer.nbytes < records_bytes

    def test_pickle_round_trip_drops_derived_columns(self):
        import pickle

        buffer = build_workload("stream").generate_buffer(100, seed=0)
        buffer.block_column()
        clone = pickle.loads(pickle.dumps(buffer))
        assert clone == buffer
        assert clone._derived == {}


class TestPersistence:
    def test_npz_round_trip_is_exact(self, tmp_path):
        for name in SAMPLE_APPS:
            buffer = build_workload(name).generate_buffer(250, seed=3)
            path = buffer.save(tmp_path / f"{name}.npz")
            assert TraceBuffer.load(path) == buffer

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "trace.npz"
        np.savez(path, schema=np.array("not-a-trace"), address=np.zeros(1))
        with pytest.raises(ValueError):
            TraceBuffer.load(path)


def _replay_cases():
    """(system config, application) pairs the replay test covers.

    The paper hierarchy under two predictors on the sample apps, plus the
    committed 2- and 4-level example specs, which take the chain walkers.
    """
    cases = [pytest.param(SystemConfig.paper_single_core(predictor), name,
                          id=f"{predictor}-{name}")
             for predictor in ("baseline", "lp") for name in SAMPLE_APPS]
    for depth, stem in ((2, "two_level"), (4, "four_level")):
        spec = load_hierarchy(HIERARCHIES / f"{stem}.json")
        config = SystemConfig(name=stem, hierarchy=spec, predictor="lp")
        cases.append(pytest.param(config, "gapbs.pr",
                                  id=f"chain{depth}-gapbs.pr"))
    return cases


class TestReplayEquivalence:
    @pytest.mark.parametrize("config,name", _replay_cases())
    def test_buffer_replay_matches_per_record_path(self, config, name):
        """``run_buffer`` equals ``access()`` over the buffer's records."""
        buffer = build_workload(name).generate_buffer(400, seed=0)
        via_records = SimulatedSystem(config).run_trace(
            buffer.to_accesses(), name)
        via_buffer = SimulatedSystem(config).run_trace(buffer, name)
        assert serialize_result(via_buffer) == serialize_result(via_records)

    def test_multicore_buffer_replay_matches_per_record_path(self):
        legacy = generate_mix_traces("mix1", accesses_per_core=200, seed=0)
        buffers = generate_mix_buffers("mix1", accesses_per_core=200, seed=0)

        via_records = MultiCoreSystem(
            SystemConfig.paper_multi_core("lp")).run_traces(legacy)
        via_buffers = MultiCoreSystem(
            SystemConfig.paper_multi_core("lp")).run_traces(buffers)

        assert via_buffers.aggregate_ipc == via_records.aggregate_ipc
        assert via_buffers.cache_hierarchy_energy_nj == \
            via_records.cache_hierarchy_energy_nj
        assert via_buffers.accuracy_breakdown == \
            via_records.accuracy_breakdown
        for mine, theirs in zip(via_buffers.per_core_execution,
                                via_records.per_core_execution):
            assert mine.cycles == theirs.cycles
            assert mine.instructions == theirs.instructions

    def test_per_access_results_match_record_path(self):
        buffer = _crafted([0x5000] * 6 + [0x6000, 0x5000, 0x5008])
        via_buffer = _paper_system().hierarchy.run_buffer(buffer)
        via_records = _paper_system().hierarchy.run_trace(
            buffer.to_accesses())
        assert via_buffer == via_records

    def test_store_access_marks_line_dirty(self):
        hierarchy = _paper_system().hierarchy
        kinds = [KIND_LOAD] + [KIND_STORE] * 3
        hierarchy.run_buffer(_crafted([0x9000] * 4, kinds=kinds))
        l1 = hierarchy.l1
        if l1._block_shift >= 0:
            set_index = (0x9000 >> l1._block_shift) & l1._set_mask
            way = l1._tag_to_way[set_index].get(0x9000 >> l1._tag_shift)
        else:
            set_index, way = l1._find(0x9000)
        assert way is not None
        assert l1._lines[set_index][way].dirty

    @pytest.mark.parametrize("app", APPLICATIONS)
    def test_grid_bit_identity(self, app):
        """The engine's buffer replay equals the record path for every
        compared system, warm-up split included."""
        buffer = build_workload(app).generate_buffer(550, seed=3)
        warm = buffer[:150].to_accesses()
        measured = buffer[150:].to_accesses()
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


def _crafted(addresses, kinds=None) -> TraceBuffer:
    """A hand-written load (or ``kinds``) trace, one pc per access."""
    n = len(addresses)
    kinds = kinds if kinds is not None else [KIND_LOAD] * n
    return TraceBuffer(addresses, [0x400 + 4 * i for i in range(n)], kinds,
                       [8] * n, [False] * n, [0] * n, [0] * n)


def _paper_system(predictor: str = "lp") -> SimulatedSystem:
    return SimulatedSystem(SystemConfig.paper_single_core(predictor))


def assert_replay_matches_records(buffer: TraceBuffer,
                                  predictor: str = "lp") -> None:
    """Full serialised results of ``run_buffer`` and the record path."""
    def run(trace):
        return serialize_result(
            _paper_system(predictor).run_trace(trace, "crafted"))

    assert run(buffer) == run(buffer.to_accesses())


class TestReplayBoundaries:
    """Degenerate and boundary traces through the one replay loop."""

    def test_empty_buffer(self):
        buffer = _crafted([64])[:0]
        assert len(buffer) == 0
        assert _paper_system().hierarchy.run_buffer(buffer) == []
        assert_replay_matches_records(buffer)

    def test_single_access_buffer(self):
        assert_replay_matches_records(_crafted([0x1000]))

    def test_fill_on_first_access(self):
        assert_replay_matches_records(_crafted([0x4000] * 10))

    def test_runs_with_stores(self):
        kinds = ([KIND_LOAD, KIND_STORE, KIND_LOAD, KIND_STORE] * 5)[:18]
        assert_replay_matches_records(_crafted([0x2000] * 18, kinds=kinds))

    def test_store_only_run(self):
        assert_replay_matches_records(
            _crafted([0x8000] * 7, kinds=[KIND_STORE] * 7))

    def test_alternating_blocks(self):
        assert_replay_matches_records(_crafted([0x1000, 0x2000] * 20))

    def test_sequential_blocks_trigger_prefetch_tags(self):
        # A sequential sweep tags next-line blocks; repeats then hit
        # tagged lines.
        addresses = []
        for i in range(8):
            addresses.extend([0x10000 + 64 * i] * 5)
        addresses.extend([0x10000 + 64 * 3] * 6)
        assert_replay_matches_records(_crafted(addresses))

    def test_run_longer_than_prefetch_window(self):
        # Longer than the 32-entry prefetch-window deques.
        assert_replay_matches_records(_crafted([0x3000] * 100))

    def test_window_straddling_runs(self):
        # Misses first (Trues in the inflight window), then a long run
        # that ages them out.
        addresses = [0x100000 + 4096 * i for i in range(20)]
        addresses.extend([0x200000] * 25)
        assert_replay_matches_records(_crafted(addresses))

    def test_page_boundary_runs(self):
        # Adjacent runs alternate pages, so TLB recency moves between runs.
        addresses = []
        for i in range(6):
            addresses.extend([0x40000 + 4096 * (i % 2)] * 4)
        assert_replay_matches_records(_crafted(addresses))

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
        assert_replay_matches_records(_crafted(addresses, kinds=kinds),
                                      predictor=predictor)


class TestDiskSpill:
    def test_generate_spill_load_cycle(self, tmp_path):
        cold = TraceCache(spill_dir=tmp_path)
        buffer = cold.get("gapbs.bfs", 300, seed=7)
        assert cold.disk_spills == 1 and cold.disk_hits == 0
        key = trace_key("gapbs.bfs", 300, seed=7)
        assert (tmp_path / f"{key}.npz").is_file()

        warm = TraceCache(spill_dir=tmp_path)
        loaded = warm.get("gapbs.bfs", 300, seed=7)
        assert warm.disk_hits == 1 and warm.disk_spills == 0
        assert loaded == buffer
        # Second lookup is an in-memory hit, not another disk read.
        assert warm.get("gapbs.bfs", 300, seed=7) is loaded
        assert warm.disk_hits == 1

    def test_env_resolution(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        cache = TraceCache()
        cache.get("stream", 100)
        assert cache.disk_spills == 1

        # Empty REPRO_TRACE_DIR disables spilling even with a store named.
        monkeypatch.setenv("REPRO_TRACE_DIR", "")
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        cache = TraceCache()
        cache.get("stream", 100)
        assert cache.disk_spills == 0

        # REPRO_STORE alone spills under <store>/traces.
        monkeypatch.delenv("REPRO_TRACE_DIR")
        cache = TraceCache()
        cache.get("stream", 100)
        assert cache.disk_spills == 1
        assert list((tmp_path / "store" / "traces").glob("*.npz"))

    @pytest.mark.parametrize("corruption", ("garbage", "truncated-zip",
                                            "foreign-npz"))
    def test_corrupt_spill_regenerates(self, tmp_path, caplog, corruption):
        key = trace_key("stream", 120, seed=0)
        path = tmp_path / f"{key}.npz"
        if corruption == "garbage":
            path.write_bytes(b"not an npz file")
        elif corruption == "truncated-zip":
            path.write_bytes(b"PK\x03\x04truncated")  # BadZipFile
        else:
            np.savez(path, other=np.zeros(3))  # no 'schema' -> KeyError
        cache = TraceCache(spill_dir=tmp_path)
        buffer = cache.get("stream", 120, seed=0)
        assert buffer == build_workload("stream").generate(120, seed=0)
        assert "unreadable trace spill" in caplog.text

    def test_trace_keys_stable_and_state_sensitive(self):
        assert trace_key("gapbs.pr", 100) == trace_key("gapbs.pr", 100)
        assert trace_key("gapbs.pr", 100) != trace_key("gapbs.pr", 101)
        assert trace_key("gapbs.pr", 100) != trace_key("gapbs.pr", 100,
                                                       seed=1)
        # Name specs resolve to full generator state, so the equivalent
        # Workload object addresses the same on-disk trace.
        assert trace_key(build_workload("gapbs.pr"), 100) == \
            trace_key("gapbs.pr", 100)

    def test_unfingerprintable_workload_skips_disk(self, tmp_path):
        class Opaque:
            pass

        workload = build_workload("gups")
        workload.blob = Opaque()  # not canonicalizable
        assert try_trace_key(workload, 50) is None
        cache = TraceCache(spill_dir=tmp_path)
        cache.get(workload, 50)
        assert cache.disk_spills == 0
        assert not list(tmp_path.glob("*.npz"))


class TestConcurrentSpill:
    """Regression for the daemon-era spill race: the save() temp name was
    unique per *process* only, so two worker threads spilling the same
    trace key shared one temp file — each truncating the other mid-write —
    and the atomic rename could promote a torn archive."""

    def test_temp_names_are_unique_per_call(self, tmp_path, monkeypatch):
        import os
        import re

        from repro.trace import _SAVE_SERIAL
        del _SAVE_SERIAL  # the serial exists and is importable
        buffer = build_workload("stream").generate_buffer(50, seed=0)
        seen = set()
        original_replace = os.replace

        def record(src, dst):
            seen.add(str(src))
            return original_replace(src, dst)

        monkeypatch.setattr(os, "replace", record)
        for _ in range(3):
            buffer.save(tmp_path / "trace.npz")
        assert len(seen) == 3
        for name in seen:
            assert re.search(r"\.\d+\.\d+\.\d+\.tmp\.npz$", name)

    def test_many_threads_saving_one_path_never_tear_it(self, tmp_path):
        import threading

        buffer = build_workload("gups").generate_buffer(400, seed=7)
        path = tmp_path / "trace.npz"
        errors = []
        barrier = threading.Barrier(8)

        def spill():
            try:
                barrier.wait()
                for _ in range(5):
                    buffer.save(path)
                    # Every observable file state must be a complete,
                    # loadable archive equal to the buffer.
                    assert TraceBuffer.load(path) == buffer
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=spill) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        assert TraceBuffer.load(path) == buffer
        # No temp droppings left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["trace.npz"]

    def test_concurrent_cache_spills_of_one_key(self, tmp_path):
        import threading

        errors = []
        barrier = threading.Barrier(4)

        def warm():
            try:
                barrier.wait()
                cache = TraceCache(spill_dir=tmp_path)
                cache.get("stream", 150, seed=3)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=warm) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        key = trace_key("stream", 150, seed=3)
        loaded = TraceBuffer.load(tmp_path / f"{key}.npz")
        assert loaded == build_workload("stream").generate(150, seed=3)

    def test_shared_cache_threads_get_the_identical_buffer(self):
        """The thread-safe LRU hands every caller of a key one object."""
        import threading

        cache = TraceCache(spill_dir=None)
        results = []
        barrier = threading.Barrier(6)

        def fetch():
            barrier.wait()
            results.append(cache.get("gups", 120, seed=1))

        threads = [threading.Thread(target=fetch) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert len(results) == 6
        first = results[0]
        assert all(buffer is first for buffer in results)
