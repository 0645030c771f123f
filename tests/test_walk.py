"""A shared hierarchy walk gives the same results as a fresh one.

Every compared system of one trace replays the one walk the engine's
trace cache holds for it, which ``execute_job`` hands to the system (see
``repro.memory.hierarchy``, "Walk and replay").  These tests run
randomised hierarchies and traffic, and a Table II mix, through one
shared cache in grid order and in reverse, and compare every result with
a fresh cache per job and with a system that walks on its own.  They also
pin the cache's walk counters, the bytes a walk holds per access, a
walk's pickle round trip, and the checks on a handed-in walk.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings

from repro.experiments import (
    COMPARED_SYSTEMS,
    EXPERIMENTS,
    MIX_PREDICTORS,
    Scale,
)
from repro.memory.spec import HierarchySpec
from repro.sim.config import SystemConfig
from repro.sim.engine import (
    MAX_WALKS,
    MixJob,
    SimulationJob,
    TraceCache,
    execute_job,
    mix_traces,
)
from repro.sim.multicore import MultiCoreSystem
from repro.sim.store import serialize_result
from repro.sim.system import SimulatedSystem
from repro.workloads.base import Workload

from trace_helpers import hierarchy_specs, traffic


class _Drawn(Workload):
    """A workload whose trace is a fixed, pre-built buffer."""

    def __init__(self, buffer) -> None:
        super().__init__("drawn")
        self.buffer = buffer

    def _accesses(self, rng, base_address, thread_id):  # pragma: no cover
        raise NotImplementedError

    def generate_buffer(self, num_accesses, seed=0, base_address=0,
                        thread_id=0):
        assert num_accesses == len(self.buffer)
        return self.buffer


def _grid(workload, spec, buffer, predictors=COMPARED_SYSTEMS):
    warmup = len(buffer) // 3
    config = SystemConfig(name="walk-test", hierarchy=spec)
    return [SimulationJob(workload=workload, predictor=predictor,
                          num_accesses=len(buffer) - warmup,
                          warmup_accesses=warmup, config=config)
            for predictor in predictors]


def _bytes(results):
    return [serialize_result(result) for result in results]


def _fresh(jobs):
    return _bytes(execute_job(job, TraceCache())
                  for job in jobs)


def _shared(jobs):
    cache = TraceCache()
    return _bytes(execute_job(job, cache) for job in jobs), cache


class TestSharedWalks:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(spec=hierarchy_specs(), buffer=traffic())
    def test_shared_walk_matches_fresh_walk(self, spec, buffer):
        jobs = _grid(_Drawn(buffer), spec, buffer)
        fresh = _fresh(jobs)
        forward, cache = _shared(jobs)
        assert forward == fresh
        assert (cache.walk_misses, cache.walk_hits) == (1, len(jobs) - 1)
        backward, _ = _shared(jobs[::-1])
        assert backward[::-1] == fresh

        # A system handed no walk walks the trace itself.
        for job, expected in zip(jobs, fresh):
            system = SimulatedSystem(job.config.with_predictor(job.predictor))
            system.hierarchy.run_buffer(buffer[:job.warmup_accesses])
            system.reset_statistics()
            own = system.run_trace(buffer[job.warmup_accesses:], "drawn")
            assert serialize_result(own) == expected

    @settings(derandomize=True, deadline=None, max_examples=8)
    @given(spec=hierarchy_specs())
    def test_shared_mix_walk_matches_fresh_walk(self, spec):
        for config in (SystemConfig.paper_multi_core(),
                       dataclasses.replace(SystemConfig.paper_multi_core(),
                                           hierarchy=spec)):
            jobs = [MixJob(mix="mix1", predictor=predictor,
                           accesses_per_core=120, config=config)
                    for predictor in MIX_PREDICTORS]
            fresh = _fresh(jobs)
            forward, cache = _shared(jobs)
            assert forward == fresh
            assert (cache.walk_misses, cache.walk_hits) == (1, 2)
            backward, _ = _shared(jobs[::-1])
            assert backward[::-1] == fresh

    def test_specs_that_walk_differently_never_share_a_walk(self):
        paper = HierarchySpec.paper_single_core()
        smaller_l2 = dataclasses.replace(
            paper.levels[1], size_bytes=2 * paper.l1.size_bytes)
        other = dataclasses.replace(
            paper, levels=(paper.l1, smaller_l2, paper.llc))
        buffer = TraceCache().get("gapbs.pr", 3000)
        workload = _Drawn(buffer)
        jobs = (_grid(workload, paper, buffer, ("lp",))
                + _grid(workload, other, buffer, ("lp",)))
        shared, cache = _shared(jobs)
        assert (cache.walk_misses, cache.walk_hits) == (2, 0)
        fresh = _fresh(jobs)
        assert shared == fresh
        # The L2 size moves the results, so a shared walk would show.
        assert fresh[0]["hierarchy_stats"] != fresh[1]["hierarchy_stats"]


def _perturb_llc(**fields):
    def perturb(spec):
        return dataclasses.replace(spec, levels=spec.levels[:-1] + (
            dataclasses.replace(spec.llc, **fields),))
    return perturb


def _perturb_l2(**fields):
    def perturb(spec):
        l1, l2, llc = spec.levels
        return dataclasses.replace(
            spec, levels=(l1, dataclasses.replace(l2, **fields), llc))
    return perturb


#: One perturbation per replay-only field that a walk's key leaves out
#: (see repro.sim.system.walk_config), each valid on a paper-like spec.
_REPLAY_ONLY = {
    "l2_tag_latency": _perturb_l2(tag_latency=14),
    "l2_data_latency": _perturb_l2(data_latency=14),
    "llc_tag_latency": _perturb_llc(tag_latency=24),
    "llc_data_latency": _perturb_llc(data_latency=20),
    "llc_sequential_tag_data": _perturb_llc(sequential_tag_data=False),
    "parallel_port_penalty": lambda spec: dataclasses.replace(
        spec, parallel_port_penalty=5.0),
    "memory_speculative_launch": lambda spec: dataclasses.replace(
        spec, memory_speculative_launch=False),
}


class TestReplayOnlyFields:
    @pytest.mark.parametrize("field", sorted(_REPLAY_ONLY))
    def test_specs_differing_in_a_replay_only_field_share_a_walk(
            self, field):
        """The two specs walk once between them, their results equal
        those of a fresh walk each, and the field does move the results
        (so a walk shared by mistake would show)."""
        # The paper chain with a 4 KB L1 and an 8 KB L2, so that the trace
        # hits in L2 and in the LLC, and TAGE probes both in parallel.
        paper = HierarchySpec.paper_single_core()
        base = dataclasses.replace(paper, levels=(
            dataclasses.replace(paper.l1, size_bytes=4 * 1024),
            dataclasses.replace(paper.levels[1], size_bytes=8 * 1024),
            paper.llc))
        other = _REPLAY_ONLY[field](base)
        assert other != base
        buffer = TraceCache().get("623.xalan", 1500)
        workload = _Drawn(buffer)
        predictors = ("baseline", "lp", "tage-2kb")
        jobs = (_grid(workload, base, buffer, predictors)
                + _grid(workload, other, buffer, predictors))
        shared, cache = _shared(jobs)
        assert (cache.walk_misses, cache.walk_hits) == (1, len(jobs) - 1)
        fresh = _fresh(jobs)
        assert shared == fresh
        assert fresh[:3] != fresh[3:]

    def test_fig15_variants_walk_each_application_once(self):
        """fig15's five systems differ only in LLC timing and the core
        model, so each application is walked once for all of them."""
        cache = TraceCache()
        jobs = EXPERIMENTS["fig15"].jobs(Scale(accesses=300, warmup=100))
        for job in jobs:
            execute_job(job, cache)
        apps = {job.workload for job in jobs}
        assert (cache.walk_misses, cache.walk_hits) \
            == (len(apps), len(jobs) - len(apps))


class TestWalkCounters:
    def test_golden_grid_walks_each_trace_once(self):
        cache = TraceCache()
        for job in EXPERIMENTS["golden"].jobs(Scale()):
            execute_job(job, cache)
        assert (cache.walk_misses, cache.walk_hits) == (6, 24)

    def test_clear_zeroes_the_counters_and_drops_the_walks(self):
        cache = TraceCache()
        jobs = [SimulationJob("stream", predictor, 200, 50)
                for predictor in ("baseline", "lp")]
        for job in jobs:
            execute_job(job, cache)
        assert (cache.walk_misses, cache.walk_hits) == (1, 1)
        cache.clear()
        assert (cache.walk_misses, cache.walk_hits) == (0, 0)
        execute_job(jobs[0], cache)
        assert (cache.walk_misses, cache.walk_hits) == (1, 0)

    def test_an_evicted_trace_drops_its_walks(self):
        cache = TraceCache(max_traces=1)
        job = SimulationJob("stream", "lp", 200, 50)
        execute_job(job, cache)
        execute_job(SimulationJob("gups", "lp", 200, 50), cache)
        execute_job(job, cache)
        assert (cache.walk_misses, cache.walk_hits) == (3, 0)

    def test_the_walk_bound_holds(self):
        cache = TraceCache()
        jobs = [SimulationJob("stream", "lp", 100 + step, 20)
                for step in range(MAX_WALKS + 1)]
        for job in jobs:
            execute_job(job, cache)
        assert cache.walk_misses == MAX_WALKS + 1
        execute_job(jobs[-1], cache)  # the newest walk is still held
        assert cache.walk_hits == 1
        execute_job(jobs[0], cache)  # the oldest one was dropped
        assert cache.walk_misses == MAX_WALKS + 2

    def test_threads_sharing_one_cache_replay_the_fresh_bytes(self):
        """Threads that share one cache race on its walk lookups: every
        job still returns a fresh walk's bytes, and each lookup counts
        once."""
        jobs = [SimulationJob("stream", predictor, 300, 100)
                for predictor in COMPARED_SYSTEMS]
        fresh = _fresh(jobs)
        cache = TraceCache()
        results = [None] * len(jobs)
        barrier = threading.Barrier(len(jobs))

        def run(index):
            barrier.wait(timeout=30)
            results[index] = serialize_result(execute_job(jobs[index],
                                                          cache))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(index,))
                       for index in range(len(jobs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == fresh
        assert cache.walk_misses >= 1
        assert cache.walk_misses + cache.walk_hits == len(jobs)

    def test_a_buffer_the_cache_does_not_hold_is_walked_alone(self):
        """``build()``'s walk is returned but not kept: a second lookup
        builds again, and neither counts as a hit or a miss."""
        cache = TraceCache()
        buffer = TraceCache().get("stream", 100)
        built = []

        def build():
            built.append(object())
            return built[-1]

        for _ in range(2):
            assert cache.walk((buffer,), "key", build) is built[-1]
        assert len(built) == 2
        assert (cache.walk_misses, cache.walk_hits) == (0, 0)


def _walk_of(app: str, accesses: int):
    trace = TraceCache().get(app, accesses)
    return trace, SimulatedSystem(
        SystemConfig.paper_single_core()).hierarchy.walk(trace)


class TestWalkRecord:
    #: Bytes per access a default-scale walk may hold: 45% of what the
    #: tuple-per-miss record held (261 B for gapbs.pr, 451 B for 605.mcf).
    @pytest.mark.parametrize("app, bound", [("gapbs.pr", 117),
                                            ("605.mcf", 203)])
    def test_bytes_per_access_of_a_walk(self, app, bound):
        """Only what the walk holds once its walker hierarchy is freed."""
        accesses = Scale().accesses + Scale().warmup
        trace, _ = _walk_of(app, accesses)  # derived columns, lazy state
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            system = SimulatedSystem(SystemConfig.paper_single_core())
            walk = system.hierarchy.walk(trace)
            del system
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(walk) == accesses
        assert held / accesses <= bound

    def test_an_unpickled_walk_replays_the_same_bytes(self):
        trace, walk = _walk_of("605.mcf", 1200)
        copy = pickle.loads(pickle.dumps(walk))
        assert len(copy) == len(walk)
        warmup = len(trace) // 4
        for predictor in ("baseline", "lp", "tage-2kb", "ideal"):
            replays = []
            for handed in (walk, copy):
                system = SimulatedSystem(
                    SystemConfig.paper_single_core(predictor))
                system.hierarchy.run_buffer(trace[:warmup], handed)
                system.reset_statistics()
                replays.append(serialize_result(
                    system.run_trace(trace[warmup:], "605.mcf", handed)))
                # The system walked nothing itself.
                assert not system.hierarchy.l1.resident_blocks()
            assert replays[0] == replays[1]


class TestHandedWalks:
    def test_a_buffer_past_the_end_of_its_walk_is_refused(self):
        trace, walk = _walk_of("stream", 300)
        longer = TraceCache().get("stream", 400)
        hierarchy = SimulatedSystem(
            SystemConfig.paper_single_core()).hierarchy
        with pytest.raises(ValueError, match="400-access buffer.*"
                                             "300-access walk"):
            hierarchy.run_buffer(longer, walk)
        with pytest.raises(ValueError, match="101-access buffer at row "
                                             "200.*300-access walk"):
            hierarchy.run_buffer(longer[200:301], walk)
        assert hierarchy.run_buffer(trace[200:], walk)

    def test_a_mix_refuses_a_walk_count_other_than_its_trace_count(self):
        config = SystemConfig.paper_multi_core()
        traces, _ = mix_traces("mix1", 100, trace_cache=TraceCache())
        walks = MultiCoreSystem(config).walk(traces)
        system = MultiCoreSystem(config)
        for count in (len(traces) - 1, len(traces) + 1):
            with pytest.raises(ValueError, match=f"{count} walks for "
                                                 f"{len(traces)} traces"):
                system.run_traces(traces, walks=(walks * 2)[:count])
        assert system.run_traces(traces, walks=walks).total_predictions
