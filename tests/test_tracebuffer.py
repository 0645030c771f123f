"""Tests for the columnar trace substrate (repro.trace.TraceBuffer).

The load-bearing property is exact equivalence: for every registered
workload the buffer columns must match the generator's record stream
field-for-field, ``.npz`` persistence must round-trip bit-for-bit, and
replaying a buffer through a system in one walk must reproduce the results
of servicing its rows one ``access()`` at a time.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.experiments import COMPARED_SYSTEMS
from repro.memory.block import AccessType, MemoryAccess
from repro.memory.spec import load_hierarchy
from repro.sim.config import SystemConfig
from repro.sim.engine import SimulationJob, TraceCache, execute_job, \
    mix_traces
from repro.sim.store import serialize_result
from repro.sim.system import SimulatedSystem
from repro.trace import KIND_CODES, KIND_LOAD, KIND_STORE, TraceBuffer
from repro.workloads import APPLICATIONS, MIXES, build_workload, get_mix
from repro.workloads.mixes import mix_core_plan

from trace_helpers import records, run_by_access

#: A spread of behaviours for the heavier (simulation-driving) tests.
SAMPLE_APPS = ("gapbs.bfs", "605.mcf", "stream", "gups", "602.gcc")

#: The committed declarative hierarchy examples.
HIERARCHIES = Path(__file__).resolve().parent.parent / "examples" \
    / "hierarchies"


def generator_records(workload, count: int, seed: int = 0,
                      base_address: int = 0, thread_id: int = 0):
    """The first ``count`` records of a workload's seeded generator."""
    stream = workload._accesses(workload._trace_rng(seed), base_address,
                                thread_id)
    return [next(stream) for _ in range(count)]


def assert_buffer_matches_records(buffer: TraceBuffer, records) -> None:
    """Field-for-field comparison against a record list."""
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
        """The buffer packs the generator's record stream field for
        field."""
        expected = generator_records(build_workload(name), 300, seed=5)
        buffer = build_workload(name).generate_buffer(300, seed=5)
        assert_buffer_matches_records(buffer, expected)
        assert buffer == TraceBuffer.from_accesses(expected)

    def test_base_address_and_thread_id_respected(self):
        workload = build_workload("stream")
        expected = generator_records(workload, 100, seed=2,
                                     base_address=1 << 36, thread_id=3)
        buffer = workload.generate_buffer(100, seed=2, base_address=1 << 36,
                                          thread_id=3)
        assert_buffer_matches_records(buffer, expected)
        assert set(buffer.thread_id.tolist()) == {3}

    @pytest.mark.parametrize("mix", sorted(MIXES))
    def test_mix_buffers_equal_mix_traces(self, mix):
        """The engine's cached per-core buffers are the generator streams
        :func:`mix_core_plan` names: application, base address, seed and
        thread id."""
        buffers, names = mix_traces(mix, 120, trace_cache=TraceCache())
        plan = mix_core_plan(get_mix(mix), seed=0)
        assert names == [app for _, app, _, _ in plan]
        assert len(buffers) == len(plan)
        for buffer, (core, app, base, core_seed) in zip(buffers, plan):
            assert_buffer_matches_records(buffer, generator_records(
                build_workload(app), 120, seed=core_seed, base_address=base,
                thread_id=core))

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
        assert TraceBuffer.from_accesses(records(buffer)) == buffer

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
        """Packed columns against the same trace as a list of records
        (about 23 against 105 bytes per access on gapbs.pr)."""
        import sys

        buffer = build_workload("gapbs.pr").generate_buffer(1000, seed=0)
        rows = records(buffer)
        # Every record is the same size, plus one list slot per record.
        records_bytes = sys.getsizeof(rows) + len(rows) * (
            sys.getsizeof(rows[0]) + 8)
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
        """``run_buffer`` equals ``access()`` over the buffer's rows."""
        buffer = build_workload(name).generate_buffer(400, seed=0)
        via_records = run_by_access(SimulatedSystem(config), buffer, name)
        via_buffer = SimulatedSystem(config).run_trace(buffer, name)
        assert serialize_result(via_buffer) == serialize_result(via_records)

    def test_per_access_results_match_record_path(self):
        buffer = _crafted([0x5000] * 6 + [0x6000, 0x5000, 0x5008])
        via_buffer = _paper_system().hierarchy.run_buffer(buffer)
        hierarchy = _paper_system().hierarchy
        via_records = [hierarchy.access(access).latency
                       for access in records(buffer)]
        assert via_buffer == via_records

    def test_store_access_marks_line_dirty(self):
        hierarchy = _paper_system().hierarchy
        kinds = [KIND_LOAD] + [KIND_STORE] * 3
        hierarchy.run_buffer(_crafted([0x9000] * 4, kinds=kinds))
        line = hierarchy.l1.peek_line(0x9000)
        assert line is not None
        assert line.dirty

    @pytest.mark.parametrize("app", APPLICATIONS)
    def test_grid_bit_identity(self, app):
        """The engine's shared-walk replay equals one ``access()`` per row
        for every compared system, warm-up split included."""
        buffer = build_workload(app).generate_buffer(550, seed=3)
        for predictor in COMPARED_SYSTEMS:
            job = SimulationJob(workload=app, predictor=predictor,
                                num_accesses=400, warmup_accesses=150, seed=3)
            system = SimulatedSystem(
                SystemConfig.paper_single_core().with_predictor(predictor))
            for access in records(buffer[:150]):
                system.hierarchy.access(access)
            system.reset_statistics()
            reference = serialize_result(
                run_by_access(system, buffer[150:], app))
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
    """Full serialised results of ``run_buffer`` and of one ``access()``
    per row."""
    via_buffer = _paper_system(predictor).run_trace(buffer, "crafted")
    via_records = run_by_access(_paper_system(predictor), buffer, "crafted")
    assert serialize_result(via_buffer) == serialize_result(via_records)


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


class TestConcurrentSpill:
    """Concurrent use of one path or one cache: ``save()`` once named its
    temp file per *process* only, so two threads saving one path shared a
    temp file — each truncating the other mid-write — and the atomic
    rename could promote a torn archive."""

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

    def test_shared_cache_threads_get_the_identical_buffer(self):
        """The thread-safe LRU hands every caller of a key one object."""
        import threading

        cache = TraceCache()
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


class TestStdlibColumns:
    """The packed columns are stdlib ``array`` memory: what numpy's fixed
    dtypes did (overflow, stepped views, compact pickles) still holds,
    and no simulation imports numpy."""

    @pytest.mark.parametrize("access", [
        MemoryAccess(address=-1), MemoryAccess(address=64, size=300)],
        ids=["negative-address", "size-300"])
    def test_value_outside_its_column_overflows(self, access):
        with pytest.raises(OverflowError):
            TraceBuffer.from_accesses([access])

    def test_stepped_slice_values(self):
        buffer = build_workload("605.mcf").generate_buffer(300, seed=2)
        for index in (slice(7, 250, 9), slice(None, None, -4)):
            view = buffer[index]
            for name in ("address", "pc", "kind", "size", "dependent",
                         "non_memory", "thread_id"):
                assert getattr(view, name).tolist() == \
                    getattr(buffer, name).tolist()[index], name
            assert view.block_column().tolist() == \
                buffer.block_column().tolist()[index]
            assert view.page_column().tolist() == \
                buffer.page_column().tolist()[index]
            assert view.origin == (view, 0)
            assert view == TraceBuffer.from_accesses(records(buffer)[index])

    def test_pickle_ships_the_packed_bytes(self):
        import pickle

        buffer = build_workload("gapbs.pr").generate_buffer(2000, seed=0)
        buffer.replay_columns()
        for view in (buffer, buffer[500:], buffer[::3]):
            payload = pickle.dumps(view)
            assert len(payload) <= view.nbytes + 512
            assert pickle.loads(payload) == view

    def test_short_stream_raises_value_error(self):
        def one_record():
            yield MemoryAccess(address=64)

        with pytest.raises(ValueError, match="after 1 records, expected 3"):
            TraceBuffer.from_stream(one_record(), 3)

    def test_fresh_interpreter_never_imports_numpy(self):
        """Importing the package, its CLI and service, and running a
        golden-scale job leaves numpy unimported."""
        import os
        import subprocess
        import sys

        script = (
            "import sys\n"
            "import repro, repro.cli, repro.service\n"
            "from repro.experiments import GOLDEN_SCALE\n"
            "from repro.sim.engine import SimulationEngine, SimulationJob\n"
            "job = SimulationJob(workload='gapbs.pr', predictor='lp',"
            " num_accesses=GOLDEN_SCALE.accesses,"
            " warmup_accesses=GOLDEN_SCALE.warmup, seed=0)\n"
            "[result] = SimulationEngine(jobs=1, store=False).run([job])\n"
            "assert result.ipc > 0\n"
            "print('numpy' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        output = subprocess.run(
            [sys.executable, "-c", script], check=True, text=True,
            capture_output=True, env=env).stdout.split()
        assert output == ["False"]
