"""Tests for the content-addressed results store (`repro.sim.store`).

Covers the properties the CI determinism job relies on: job keys stable
across processes, exact result round-trips, resume after a partially
persisted grid, and the engine's read-through/force semantics — plus the
sharded layout: key->shard routing, locked torn-tail repair that never
clobbers concurrent appends, the on-disk index,
fsck salvage and compaction idempotence.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import PredictionOutcome, PredictorStats
from repro.core.recovery import RecoverySummary
from repro.cpu.ooo_core import ExecutionResult
from repro.memory.block import PREDICTABLE_LEVELS
from repro.memory.hierarchy import HierarchyStats
from repro.sim.config import SystemConfig
from repro.sim.engine import MixJob, SimulationEngine, SimulationJob
from repro.sim.multicore import MultiCoreResult
from repro.sim.store import (
    ResultStore,
    UncacheableJobError,
    deserialize_result,
    fsck_store,
    job_key,
    job_spec,
    serialize_result,
    shard_for_key,
    try_job_key,
)
from repro.sim.system import SimulationResult
from repro.workloads import build_workload
from repro.workloads.base import Workload

SINGLE_JOB = SimulationJob(workload="gapbs.pr", predictor="lp",
                           num_accesses=200, warmup_accesses=50, seed=0)
MIX_JOB = MixJob(mix="mix1", predictor="lp", accesses_per_core=120, seed=0)


def small_grid(num_accesses: int = 200) -> list:
    return [SimulationJob(workload=app, predictor=predictor,
                          num_accesses=num_accesses, warmup_accesses=50,
                          seed=0)
            for app in ("gapbs.pr", "gups")
            for predictor in ("baseline", "lp")]


@pytest.fixture(scope="module")
def tiny_result():
    """One real simulation result, shared by the store-layout tests."""
    job = SimulationJob(workload="gups", predictor="lp", num_accesses=60,
                        warmup_accesses=20)
    return SimulationEngine(jobs=1, store=False).run([job])[0]


def entry_line(key: str, result, spec=None) -> bytes:
    """One store line exactly as ``ResultStore.put`` would write it."""
    payload = json.dumps(
        {"key": key, "spec": spec or {}, "result": serialize_result(result)},
        sort_keys=True, separators=(",", ":"))
    return payload.encode("utf-8") + b"\n"


def hexkey(prefix: str, tag: str = "0") -> str:
    """A syntactically valid 64-hex key routed to shard ``prefix``."""
    body = tag.encode("utf-8").hex()
    return (prefix + body + "0" * 64)[:64]


def shard_bytes(root: Path) -> dict:
    """{shard filename: bytes} for every shard file under ``root``."""
    shards = Path(root) / "shards"
    if not shards.is_dir():
        return {}
    return {path.name: path.read_bytes()
            for path in sorted(shards.glob("*.jsonl"))}


# ======================================================================
# Job keys
# ======================================================================
class TestJobKeys:
    def test_key_is_deterministic_within_process(self):
        assert job_key(SINGLE_JOB) == job_key(SINGLE_JOB)
        assert job_key(MIX_JOB) == job_key(MIX_JOB)

    def test_key_is_stable_across_processes(self):
        """A fresh interpreter computes the same key (no hash()/id() use)."""
        script = (
            "from repro.sim.engine import SimulationJob, MixJob\n"
            "from repro.sim.store import job_key\n"
            "print(job_key(SimulationJob(workload='gapbs.pr',"
            " predictor='lp', num_accesses=200, warmup_accesses=50,"
            " seed=0)))\n"
            "print(job_key(MixJob(mix='mix1', predictor='lp',"
            " accesses_per_core=120, seed=0)))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        output = subprocess.run(
            [sys.executable, "-c", script], check=True, text=True,
            capture_output=True, env=env,
        ).stdout.split()
        assert output == [job_key(SINGLE_JOB), job_key(MIX_JOB)]

    def test_key_distinguishes_every_spec_dimension(self):
        base = SINGLE_JOB
        variants = [
            SimulationJob(workload="gups", predictor="lp", num_accesses=200,
                          warmup_accesses=50, seed=0),
            SimulationJob(workload="gapbs.pr", predictor="d2d",
                          num_accesses=200, warmup_accesses=50, seed=0),
            SimulationJob(workload="gapbs.pr", predictor="lp",
                          num_accesses=300, warmup_accesses=50, seed=0),
            SimulationJob(workload="gapbs.pr", predictor="lp",
                          num_accesses=200, warmup_accesses=60, seed=0),
            SimulationJob(workload="gapbs.pr", predictor="lp",
                          num_accesses=200, warmup_accesses=50, seed=7),
            SimulationJob(workload="gapbs.pr", predictor="lp",
                          num_accesses=200, warmup_accesses=50, seed=0,
                          config=SystemConfig.paper_multi_core()),
        ]
        keys = {job_key(job) for job in variants}
        assert len(keys) == len(variants)
        assert job_key(base) not in keys

    def test_default_config_hashes_like_explicit_default(self):
        explicit = SimulationJob(
            workload="gapbs.pr", predictor="lp", num_accesses=200,
            warmup_accesses=50, seed=0,
            config=SystemConfig.paper_single_core())
        assert job_key(SINGLE_JOB) == job_key(explicit)

    def test_name_spec_hashes_like_built_workload(self):
        built = SimulationJob(workload=build_workload("gapbs.pr"),
                              predictor="lp", num_accesses=200,
                              warmup_accesses=50, seed=0)
        assert job_key(SINGLE_JOB) == job_key(built)

    def test_mix_spec_captures_composition(self):
        spec = job_spec(MIX_JOB)
        names = [app["state"]["name"] for app in spec["applications"]]
        assert names == ["gapbs.bfs", "619.lbm", "nas.lu", "bmt"]
        assert spec["multithreaded"] is False
        # Per-core entries carry full generator state, so retuning a
        # registry application invalidates the mixes containing it.
        assert all(set(app) == {"__workload__", "state"}
                   for app in spec["applications"])

    def test_uncacheable_workload_is_rejected_not_mishashed(self):
        class AdHoc(Workload):
            def __init__(self):
                super().__init__("ad-hoc")
                self.generator = lambda: None  # not fingerprintable

            def _accesses(self, rng, base_address, thread_id):
                raise NotImplementedError

        job = SimulationJob(workload=AdHoc(), predictor="lp",
                            num_accesses=10)
        with pytest.raises(UncacheableJobError):
            job_key(job)
        assert try_job_key(job) is None


# ======================================================================
# Result serialization
# ======================================================================
class TestRoundTrip:
    def test_single_core_result_roundtrips_exactly(self):
        result = SimulationEngine(jobs=1, store=False).run([SINGLE_JOB])[0]
        encoded = json.loads(json.dumps(serialize_result(result)))
        assert deserialize_result(encoded) == result

    def test_mix_result_roundtrips_exactly(self):
        result = SimulationEngine(jobs=1, store=False).run([MIX_JOB])[0]
        encoded = json.loads(json.dumps(serialize_result(result)))
        assert deserialize_result(encoded) == result


    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(result=st.one_of(st.deferred(lambda: _simulation_results()),
                            st.deferred(lambda: _mix_results())))
    def test_random_results_roundtrip_to_the_same_bytes(self, result):
        """Any result, non-finite, signed-zero and subnormal floats
        included, is stored and read back to the same bytes (NaN is not
        equal to itself, so the bytes are compared, not the objects)."""
        line = json.dumps(serialize_result(result), sort_keys=True,
                          separators=(",", ":"))
        again = serialize_result(deserialize_result(json.loads(line)))
        assert json.dumps(again, sort_keys=True,
                          separators=(",", ":")) == line


#: Every float a stored result can hold, the awkward ones drawn often.
_FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from((float("nan"), float("inf"),
                                     float("-inf"), -0.0, 5e-324,
                                     2.2250738585072e-308)))
_COUNTS = st.integers(min_value=0, max_value=2**53)
_NAMES = st.text(max_size=12)


def _executions():
    return st.builds(ExecutionResult, cycles=_FLOATS, instructions=_COUNTS,
                     memory_accesses=_COUNTS, stall_cycles=_FLOATS)


@st.composite
def _simulation_results(draw):
    stats = HierarchyStats(**{
        f.name: draw(_FLOATS if isinstance(f.default, float) else _COUNTS)
        for f in dataclasses.fields(HierarchyStats)})
    predictor = PredictorStats()
    for name in ("predictions", "multi_way_predictions", "pld_predictions",
                 "pld_mispredictions", "metadata_hits", "metadata_misses",
                 "updates"):
        setattr(predictor, name, draw(_COUNTS))
    predictor.outcomes = {outcome: draw(_COUNTS)
                          for outcome in PredictionOutcome}
    predictor.level_histogram = draw(st.dictionaries(
        st.lists(st.sampled_from(PREDICTABLE_LEVELS), min_size=1,
                 max_size=3, unique=True).map(lambda levels: tuple(
                     sorted(levels))), _COUNTS, max_size=4))
    recovery = RecoverySummary(**{
        f.name: draw(_FLOATS if f.type == "float" else _COUNTS)
        for f in dataclasses.fields(RecoverySummary)})
    return SimulationResult(
        workload=draw(_NAMES), system=draw(_NAMES), predictor=draw(_NAMES),
        execution=draw(_executions()), hierarchy_stats=stats,
        predictor_stats=predictor,
        energy_breakdown=draw(st.dictionaries(_NAMES, _FLOATS, max_size=5)),
        cache_hierarchy_energy_nj=draw(_FLOATS), recovery=recovery,
        metadata_miss_ratio=draw(_FLOATS),
        pld_misprediction_ratio=draw(_FLOATS))


@st.composite
def _mix_results(draw):
    cores = draw(st.integers(min_value=0, max_value=4))
    return MultiCoreResult(
        mix=draw(_NAMES), predictor=draw(_NAMES),
        per_core_execution=draw(st.lists(_executions(), min_size=cores,
                                         max_size=cores)),
        per_core_workloads=draw(st.lists(_NAMES, min_size=cores,
                                         max_size=cores)),
        accuracy_breakdown=draw(st.dictionaries(
            st.sampled_from([outcome.value
                             for outcome in PredictionOutcome]), _FLOATS)),
        cache_hierarchy_energy_nj=draw(_FLOATS),
        total_predictions=draw(_COUNTS), total_recoveries=draw(_COUNTS))


# ======================================================================
# Store persistence and engine read-through
# ======================================================================
class TestResultStore:
    def test_store_round_trip_across_instances(self, tmp_path):
        result = SimulationEngine(jobs=1, store=False).run([SINGLE_JOB])[0]
        store = ResultStore(tmp_path)
        key = job_key(SINGLE_JOB)
        store.put(key, job_spec(SINGLE_JOB), result)
        assert key in store

        reloaded = ResultStore(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.get(key) == result
        assert reloaded.hits == 1 and reloaded.misses == 0

    def test_engine_serves_second_run_entirely_from_store(self, tmp_path):
        jobs = small_grid()
        store = ResultStore(tmp_path)
        first = SimulationEngine(jobs=1, store=store).run(jobs)
        assert store.misses == len(jobs) and store.hits == 0

        store = ResultStore(tmp_path)
        second = SimulationEngine(jobs=1, store=store).run(jobs)
        assert store.hits == len(jobs) and store.misses == 0
        assert second == first

    def test_interrupted_grid_keeps_completed_jobs(self, tmp_path):
        """Results are persisted as they finish, not after the whole grid."""
        jobs = small_grid()[:2] + [
            SimulationJob(workload="gapbs.pr", predictor="bogus",
                          num_accesses=50)]
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="unknown predictor"):
            SimulationEngine(jobs=1, store=store).run(jobs)
        assert len(ResultStore(tmp_path)) == 2

        store = ResultStore(tmp_path)
        SimulationEngine(jobs=1, store=store).run(small_grid())
        assert store.hits == 2

    def test_store_true_opts_into_environment_default(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
        engine = SimulationEngine(jobs=1, store=True)
        assert engine.store is not None
        monkeypatch.delenv("REPRO_STORE")
        assert SimulationEngine(jobs=1, store=True).store is None

    def test_partial_grid_resumes_from_stored_jobs(self, tmp_path):
        jobs = small_grid()
        store = ResultStore(tmp_path)
        SimulationEngine(jobs=1, store=store).run(jobs[:2])

        store = ResultStore(tmp_path)
        results = SimulationEngine(jobs=1, store=store).run(jobs)
        assert store.hits == 2 and store.misses == len(jobs) - 2
        assert results == SimulationEngine(jobs=1, store=False).run(jobs)

    def test_force_recomputes_and_refreshes_entries(self, tmp_path):
        jobs = small_grid()
        store = ResultStore(tmp_path)
        first = SimulationEngine(jobs=1, store=store).run(jobs)

        store = ResultStore(tmp_path)
        forced = SimulationEngine(jobs=1, store=store).run(jobs, force=True)
        assert store.hits == 0 and store.misses == len(jobs)
        assert forced == first
        # Forced entries are appended; newest wins on reload.
        reloaded = ResultStore(tmp_path)
        assert len(reloaded) == len(jobs)
        assert reloaded.total_lines() == 2 * len(jobs)
        total = sum(data.count(b"\n") for data in shard_bytes(tmp_path).values())
        assert total == 2 * len(jobs)

    def test_uncacheable_jobs_bypass_the_store(self, tmp_path):
        workload = build_workload("gups")
        workload.marker = lambda: None  # make it unfingerprintable
        job = SimulationJob(workload=workload, predictor="lp",
                            num_accesses=100)
        store = ResultStore(tmp_path)
        results = SimulationEngine(jobs=1, store=store).run([job])
        assert results[0].workload == "gups"
        assert len(store) == 0
        # Unkeyed lookups must not skew the hit/miss counters.
        assert store.misses == 0 and store.hits == 0
        assert store.unkeyed == 1

    def test_store_file_is_deterministic_across_runs(self, tmp_path):
        jobs = small_grid()
        SimulationEngine(jobs=1, store=tmp_path / "a").run(jobs)
        SimulationEngine(jobs=1, store=tmp_path / "b").run(jobs)
        first = shard_bytes(tmp_path / "a")
        assert first and first == shard_bytes(tmp_path / "b")

    def test_parallel_engine_produces_identical_shards(self, tmp_path):
        """Entries are persisted in job order: every shard byte-matches."""
        jobs = small_grid()
        SimulationEngine(jobs=1, store=tmp_path / "serial").run(jobs)
        SimulationEngine(jobs=2, store=tmp_path / "parallel").run(jobs)
        serial = shard_bytes(tmp_path / "serial")
        assert serial and serial == shard_bytes(tmp_path / "parallel")

    def test_partial_trailing_line_is_tolerated_then_repaired(
            self, tmp_path, caplog, tiny_result):
        """A run killed mid-append must not brick the store."""
        store = ResultStore(tmp_path)
        store.put(job_key(SINGLE_JOB), job_spec(SINGLE_JOB), tiny_result)
        shard = store.shards_dir / \
            f"{shard_for_key(job_key(SINGLE_JOB))}.jsonl"
        with shard.open("ab") as handle:
            handle.write(b'{"key": "trunc')  # interrupted append

        recovered = ResultStore(tmp_path)
        assert len(recovered) == 1
        assert recovered.get(job_key(SINGLE_JOB)) == tiny_result
        assert "torn trailing line" in caplog.text
        caplog.clear()
        # Loading is strictly read-only: the torn tail is still on disk.
        assert shard.read_bytes().endswith(b'{"key": "trunc')

        # The next append to that shard truncates the torn tail in place.
        torn_key = hexkey(shard_for_key(job_key(SINGLE_JOB)), "other")
        recovered.put(torn_key, {"spec": 0}, tiny_result)
        assert b'"trunc' not in shard.read_bytes()
        reloaded = ResultStore(tmp_path)
        assert len(reloaded) == 2
        assert caplog.text == ""

    def test_repair_never_clobbers_a_concurrent_append(
            self, tmp_path, caplog, tiny_result):
        """Regression: repair must only truncate the torn tail it sees.

        The old single-file store recorded a "good prefix" at load time and
        rewrote the whole file with it on the next put — dropping entries
        other processes appended in between.  Now repair happens under the
        lock, in place, and only on an actually-torn tail.
        """
        prefix = "aa"
        first, second, third = (hexkey(prefix, tag) for tag in "123")
        writer_a = ResultStore(tmp_path)
        writer_a.put(first, {}, tiny_result)
        shard = writer_a.shards_dir / f"{prefix}.jsonl"
        with shard.open("ab") as handle:
            handle.write(b'{"key": "torn')

        # Writer B opens while the tail is torn...
        writer_b = ResultStore(tmp_path)
        assert "torn trailing line" in caplog.text
        # ...then another process repairs the shard and appends an entry...
        writer_c = ResultStore(tmp_path)
        writer_c.put(second, {}, tiny_result)
        # ...and writer B's own put must not clobber that fresh entry.
        writer_b.put(third, {}, tiny_result)

        reloaded = ResultStore(tmp_path)
        assert sorted(reloaded.keys()) == sorted([first, second, third])
        assert all(reloaded.get(key) == tiny_result
                   for key in (first, second, third))

    def test_default_store_is_memoized_per_path(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "memo"))
        first = SimulationEngine(jobs=1).store
        second = SimulationEngine(jobs=1).store
        assert first is second and first is not None

    def test_corrupt_interior_line_raises(self, tmp_path, tiny_result):
        shards = tmp_path / "shards"
        shards.mkdir(parents=True)
        (shards / "aa.jsonl").write_bytes(
            b"not json\n" + entry_line(hexkey("aa"), tiny_result))
        with pytest.raises(ValueError, match=r"aa\.jsonl:1: corrupt"):
            ResultStore(tmp_path)

    def test_wrong_shape_line_raises_contextual_error(self, tmp_path,
                                                      tiny_result):
        """Valid JSON without the entry shape must not escape as KeyError.

        The message names path:line and points at `repro store fsck`.
        """
        shards = tmp_path / "shards"
        shards.mkdir(parents=True)
        (shards / "aa.jsonl").write_bytes(
            entry_line(hexkey("aa"), tiny_result)
            + b'{"not": "an entry"}\n'
            + entry_line(hexkey("aa", "2"), tiny_result))
        with pytest.raises(ValueError, match=r"aa\.jsonl:2: .*fsck"):
            ResultStore(tmp_path)

    def test_leftover_store_jsonl_is_ignored(self, tmp_path, tiny_result):
        """The pre-sharding single-file layout is no longer read."""
        leftover = tmp_path / "store.jsonl"
        leftover.write_bytes(b"not json\n" + entry_line(hexkey("aa"),
                                                        tiny_result))
        before = leftover.read_bytes()
        store = ResultStore(tmp_path)
        assert len(store) == 0
        assert fsck_store(tmp_path)["kept"] == 0
        store.put(hexkey("bb"), {}, tiny_result)
        assert ResultStore(tmp_path).keys() == [hexkey("bb")]
        assert leftover.read_bytes() == before

    def test_clear_removes_persisted_results(self, tmp_path):
        store = ResultStore(tmp_path)
        SimulationEngine(jobs=1, store=store).run([SINGLE_JOB])
        assert store.shards_dir.is_dir()
        store.clear()
        assert not store.shards_dir.exists()
        assert len(ResultStore(tmp_path)) == 0

    def test_env_default_store_wires_drivers_through(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
        engine = SimulationEngine(jobs=1)
        assert engine.store is not None
        engine.run([SINGLE_JOB])
        assert shard_bytes(tmp_path / "env-store")

        monkeypatch.setenv("REPRO_STORE", "")
        assert SimulationEngine(jobs=1).store is None


# ======================================================================
# Shard routing
# ======================================================================
class TestSharding:
    def test_entries_land_in_their_key_shard(self, tmp_path, tiny_result):
        store = ResultStore(tmp_path)
        for prefix in ("00", "a7", "ff"):
            store.put(hexkey(prefix), {}, tiny_result)
        names = set(shard_bytes(tmp_path))
        assert names == {"00.jsonl", "a7.jsonl", "ff.jsonl"}

    def test_job_keys_spread_across_shards(self, tmp_path):
        store = ResultStore(tmp_path)
        SimulationEngine(jobs=1, store=store).run(small_grid())
        for key in store.keys():
            prefix, _, _ = store._entries[key]
            assert prefix == key[:2]

    def test_shard_routing_is_stable_across_processes(self):
        keys = [job_key(SINGLE_JOB), job_key(MIX_JOB), "not-hex!", "ab"]
        script = (
            "from repro.sim.store import shard_for_key\n"
            "import sys\n"
            "for key in sys.argv[1:]:\n"
            "    print(shard_for_key(key))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        output = subprocess.run(
            [sys.executable, "-c", script, *keys], check=True, text=True,
            capture_output=True, env=env,
        ).stdout.split()
        assert output == [shard_for_key(key) for key in keys]

    def test_non_hex_keys_are_rehashed_deterministically(self):
        assert shard_for_key("zz-not-hex") == shard_for_key("zz-not-hex")
        assert len(shard_for_key("x")) == 2
        assert set(shard_for_key("x")) <= set("0123456789abcdef")
        # Hex keys route by their own leading bytes.
        assert shard_for_key("ABCD" + "0" * 60) == "ab"


# ======================================================================
# The on-disk index
# ======================================================================
class TestIndex:
    def test_fresh_index_skips_rescanning_unchanged_shards(
            self, tmp_path, tiny_result):
        store = ResultStore(tmp_path)
        key = hexkey("aa")
        store.put(key, {}, tiny_result)
        store.flush_index()
        shard = store.shards_dir / "aa.jsonl"
        # Same size, garbage content: an open that trusted the index will
        # not notice — proving the shard was not re-parsed.
        shard.write_bytes(b"X" * shard.stat().st_size)
        trusted = ResultStore(tmp_path)
        assert len(trusted) == 1 and key in trusted

    def test_stale_index_rescans_only_the_grown_tail(self, tmp_path,
                                                     tiny_result):
        first = ResultStore(tmp_path)
        first.put(hexkey("aa", "1"), {}, tiny_result)
        first.flush_index()
        # A second writer appends without refreshing the on-disk index.
        second = ResultStore(tmp_path)
        second.put(hexkey("aa", "2"), {}, tiny_result)
        reloaded = ResultStore(tmp_path)
        assert len(reloaded) == 2
        assert all(reloaded.get(hexkey("aa", tag)) == tiny_result
                   for tag in "12")

    def test_flush_index_never_hides_a_concurrent_writers_entries(
            self, tmp_path, tiny_result):
        """Regression: an index must not cover bytes it has no entries for.

        Writer B appends to a shard after writer A opened the store; A then
        appends to the same shard and flushes the index.  A's view of that
        shard has a hole, so the flushed index must leave the shard out
        (forcing a rescan) rather than record a size that hides B's entry.
        """
        writer_a = ResultStore(tmp_path)
        writer_b = ResultStore(tmp_path)
        hidden, own = hexkey("aa", "B"), hexkey("aa", "A")
        writer_b.put(hidden, {}, tiny_result)
        writer_a.put(own, {}, tiny_result)
        writer_a.flush_index()

        reloaded = ResultStore(tmp_path)
        assert sorted(reloaded.keys()) == sorted([hidden, own])
        assert reloaded.get(hidden) == tiny_result
        assert reloaded.get(own) == tiny_result

    def test_flush_index_writes_only_after_a_change(self, tmp_path,
                                                    tiny_result):
        store = ResultStore(tmp_path)
        key = hexkey("aa")
        store.put(key, {}, tiny_result)
        store.flush_index()
        index = store.shards_dir / "index.json"
        before = index.stat()
        # Reads (warm requests) leave the index as it is.
        for _ in range(2):
            assert store.get(key) == tiny_result
            store.flush_index()
        after = index.stat()
        assert (after.st_ino, after.st_mtime_ns) == \
            (before.st_ino, before.st_mtime_ns)
        # A put still rewrites it (atomically: a fresh inode).
        store.put(hexkey("bb"), {}, tiny_result)
        store.flush_index()
        assert index.stat().st_ino != before.st_ino
        assert len(ResultStore(tmp_path)) == 2

    def test_open_leaves_a_current_index_alone(self, tmp_path, tiny_result):
        writer = ResultStore(tmp_path)
        writer.put(hexkey("aa"), {}, tiny_result)
        writer.flush_index()
        index = writer.shards_dir / "index.json"
        before = index.stat().st_ino
        reader = ResultStore(tmp_path)
        reader.flush_index()
        assert index.stat().st_ino == before

    def test_open_rewrites_an_index_naming_a_vanished_shard(
            self, tmp_path, tiny_result):
        store = ResultStore(tmp_path)
        store.put(hexkey("aa"), {}, tiny_result)
        store.put(hexkey("bb"), {}, tiny_result)
        store.flush_index()
        (store.shards_dir / "bb.jsonl").unlink()
        ResultStore(tmp_path)
        index = json.loads((store.shards_dir / "index.json").read_text())
        assert sorted(index["shards"]) == ["aa"]

    def test_runs_refresh_the_index_automatically(self, tmp_path):
        SimulationEngine(jobs=1, store=tmp_path).run(small_grid())
        # Engine puts do not flush per-append; the next open rescans the
        # changed shards and persists a fresh index best-effort.
        ResultStore(tmp_path)
        index = json.loads((tmp_path / "shards" / "index.json").read_text())
        assert index["schema"] == "repro-store-index/1"
        counted = sum(len(meta["entries"])
                      for meta in index["shards"].values())
        assert counted == len(small_grid())


# ======================================================================
# fsck and compaction
# ======================================================================
class TestFsck:
    def test_fsck_salvages_every_damage_class(self, tmp_path, tiny_result):
        shards = tmp_path / "shards"
        shards.mkdir(parents=True)
        good, misplaced = hexkey("aa"), hexkey("bb")
        (shards / "aa.jsonl").write_bytes(
            entry_line(good, tiny_result)
            + b"garbage not json\n"
            + b'{"valid": "json", "wrong": "shape"}\n'
            + entry_line(misplaced, tiny_result)
            + b'{"key": "torn-partial')
        report = fsck_store(tmp_path)
        assert report["kept"] == 1
        assert report["moved"] == 1
        assert report["corrupt"] == 1
        assert report["foreign"] == 1
        assert report["torn"] == 1
        store = ResultStore(tmp_path)
        assert sorted(store.keys()) == sorted([good, misplaced])
        assert store.get(good) == tiny_result
        assert store.get(misplaced) == tiny_result
        assert set(shard_bytes(tmp_path)) == {"aa.jsonl", "bb.jsonl"}

    def test_fsck_keeps_readable_unterminated_tail(self, tmp_path,
                                                   tiny_result):
        """A crash can drop just the newline: the entry is still salvaged."""
        shards = tmp_path / "shards"
        shards.mkdir(parents=True)
        key = hexkey("aa")
        (shards / "aa.jsonl").write_bytes(
            entry_line(key, tiny_result).rstrip(b"\n"))
        report = fsck_store(tmp_path)
        assert report["kept"] == 1 and report["torn"] == 0
        assert ResultStore(tmp_path).get(key) == tiny_result

    def test_fsck_salvages_a_shard_too_corrupt_to_open(
            self, tmp_path, tiny_result):
        key = hexkey("cc")
        shards = tmp_path / "shards"
        shards.mkdir(parents=True)
        (shards / "cc.jsonl").write_bytes(
            b"not json at all\n" + entry_line(key, tiny_result))
        # Too corrupt for a normal open...
        with pytest.raises(ValueError, match="corrupt store line"):
            ResultStore(tmp_path)
        # ...but fsck salvages the good entry in place.
        report = fsck_store(tmp_path)
        assert report["kept"] == 1 and report["corrupt"] == 1
        assert ResultStore(tmp_path).get(key) == tiny_result

    def test_misplaced_copy_never_supersedes_the_home_entry(
            self, tmp_path, tiny_result):
        """fsck relocates a misplaced entry only when its home shard
        lacks the key: the store only ever appends a key to its home
        shard, so the home entry is the one ``put`` wrote."""
        stale_job = SimulationJob(workload="gups", predictor="baseline",
                                  num_accesses=60, warmup_accesses=20)
        stale = SimulationEngine(jobs=1, store=False).run([stale_job])[0]
        assert stale != tiny_result
        key = hexkey("aa")
        shards = tmp_path / "shards"
        shards.mkdir(parents=True)
        (shards / "aa.jsonl").write_bytes(entry_line(key, tiny_result))
        (shards / "bb.jsonl").write_bytes(entry_line(key, stale))
        report = fsck_store(tmp_path)
        assert report["kept"] == 1 and report["moved"] == 0
        store = ResultStore(tmp_path)
        assert store.get(key) == tiny_result
        assert store.total_lines() == 1

    def test_fsck_leaves_clean_shards_byte_identical(self, tmp_path):
        SimulationEngine(jobs=1, store=tmp_path).run(small_grid())
        before = shard_bytes(tmp_path)
        report = fsck_store(tmp_path)
        assert report["rewritten_shards"] == 0
        assert shard_bytes(tmp_path) == before

    def test_truncation_at_every_byte_offset(self, tmp_path, tiny_result):
        """A crash can cut a shard at any byte.  A plain open keeps exactly
        the entries whose line, newline included, survived; after fsck a
        line that lost only its newline is kept too."""
        first, second = hexkey("aa", "1"), hexkey("aa", "2")
        lines = [entry_line(first, tiny_result),
                 entry_line(second, tiny_result)]
        data = b"".join(lines)
        ends = [len(lines[0]), len(data)]  # offset just past each newline
        shard = tmp_path / "shards" / "aa.jsonl"
        shard.parent.mkdir(parents=True)
        index = shard.parent / "index.json"
        for cut in range(len(data) + 1):
            shard.write_bytes(data[:cut])
            index.unlink(missing_ok=True)
            whole = [key for key, end in zip((first, second), ends)
                     if end <= cut]
            assert sorted(ResultStore(tmp_path).keys()) == whole, cut
            fsck_store(tmp_path)
            salvaged = [key for key, end in zip((first, second), ends)
                        if end - 1 <= cut]
            assert sorted(ResultStore(tmp_path).keys()) == salvaged, cut

    def test_instance_fsck_reloads_the_view(self, tmp_path, tiny_result):
        store = ResultStore(tmp_path)
        store.put(hexkey("aa"), {}, tiny_result)
        shard = store.shards_dir / "aa.jsonl"
        with shard.open("ab") as handle:
            handle.write(b"junk line\n")
        report = store.fsck()
        assert report["corrupt"] == 1
        assert len(store) == 1
        assert store.get(hexkey("aa")) == tiny_result


class TestStoreLock:
    def test_lock_waiter_retries_after_the_file_is_unlinked(self, tmp_path):
        """A waiter must never hold an orphaned lock inode (clear() race).

        While one holder has the lock, clear() unlinks the lock file as
        its last locked step; a waiter that then wins flock on the dead
        inode must detect the unlink and retry on the live file, or two
        writers end up in 'exclusive' sections on different inodes.
        """
        import threading
        import time

        from repro.sim.store import _store_lock

        lock = tmp_path / ".lock"
        live_inode = []

        def clearer():
            with _store_lock(lock):
                time.sleep(0.2)
                os.unlink(lock)  # what clear() does, last, under the lock

        def writer():
            time.sleep(0.05)  # let the clearer take the lock first
            with _store_lock(lock):
                live_inode.append(os.stat(lock).st_ino)

        threads = [threading.Thread(target=clearer),
                   threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert live_inode  # the writer held a lock on the live inode


class TestCompaction:
    def test_compact_on_a_corrupt_shard_keeps_the_view_intact(
            self, tmp_path, tiny_result):
        """A failed compaction must not empty the live instance's index."""
        store = ResultStore(tmp_path)
        good = hexkey("aa")
        store.put(good, {}, tiny_result)
        # Another writer corrupts a different shard behind our back.
        (store.shards_dir / "bb.jsonl").write_bytes(b"terminated junk\n")
        with pytest.raises(ValueError, match="corrupt store line"):
            store.compact()
        assert good in store
        assert store.get(good) == tiny_result
    def test_compact_keeps_newest_entry_and_is_idempotent(self, tmp_path):
        jobs = small_grid()
        store = ResultStore(tmp_path)
        engine = SimulationEngine(jobs=1, store=store)
        first = engine.run(jobs)
        engine.run(jobs, force=True)
        assert store.total_lines() == 2 * len(jobs)

        report = store.compact()
        assert report["entries"] == len(jobs)
        assert report["removed_lines"] == len(jobs)
        after = shard_bytes(tmp_path)
        reloaded = ResultStore(tmp_path)
        assert len(reloaded) == len(jobs)
        assert SimulationEngine(jobs=1, store=reloaded).run(jobs) == first
        assert reloaded.hits == len(jobs)

        again = ResultStore(tmp_path).compact()
        assert again["removed_lines"] == 0
        assert again["rewritten_shards"] == 0
        assert shard_bytes(tmp_path) == after
