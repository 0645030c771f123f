"""Tests for the synthetic workload generators and the application registry."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import TraceCache, mix_traces
from repro.trace import KIND_LOAD, KIND_STORE
from repro.workloads import (
    APPLICATIONS,
    HIGHLIGHTED_APPLICATIONS,
    MIXES,
    SUITES,
    GraphWorkload,
    PhasedWorkload,
    PointerChaseWorkload,
    RandomAccessWorkload,
    StencilWorkload,
    StreamingWorkload,
    ZipfWorkload,
    applications_in_suite,
    build_workload,
    get_application,
    get_mix,
    high_benefit_applications,
    make_gapbs_workload,
)


class TestRegistry:
    def test_all_highlighted_applications_registered(self):
        for name in HIGHLIGHTED_APPLICATIONS:
            assert name in APPLICATIONS
        assert len(HIGHLIGHTED_APPLICATIONS) == 21

    def test_suites_cover_all_applications(self):
        names = {name for members in SUITES.values() for name in members}
        assert names == set(APPLICATIONS)

    def test_gapbs_kernels_present(self):
        gapbs = applications_in_suite("gapbs")
        assert set(gapbs) == {"gapbs.bc", "gapbs.bfs", "gapbs.cc",
                              "gapbs.pr", "gapbs.tc"}

    def test_paper_green_box_members_marked_high(self):
        high = set(high_benefit_applications())
        for name in ("gups", "gapbs.pr", "619.lbm", "649.foton", "nas.is"):
            assert name in high

    def test_unknown_application_rejected(self):
        with pytest.raises(ValueError):
            get_application("notabenchmark")
        with pytest.raises(ValueError):
            applications_in_suite("notasuite")

    def test_every_application_builds_and_generates(self):
        for name in APPLICATIONS:
            workload = build_workload(name)
            trace = workload.generate_buffer(64, seed=3)
            assert len(trace) == 64


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = build_workload("gapbs.pr").generate_buffer(200, seed=11)
        b = build_workload("gapbs.pr").generate_buffer(200, seed=11)
        assert a == b

    def test_different_seeds_differ(self):
        a = build_workload("gups").generate_buffer(200, seed=1)
        b = build_workload("gups").generate_buffer(200, seed=2)
        assert a.address.tolist() != b.address.tolist()

    def test_base_address_offsets_all_accesses(self):
        offset = 1 << 36
        a = build_workload("stream").generate_buffer(50, seed=5)
        b = build_workload("stream").generate_buffer(50, seed=5,
                                                     base_address=offset)
        assert all(y - x == offset for x, y in zip(a.address.tolist(),
                                                   b.address.tolist()))

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            build_workload("gups").generate_buffer(0)


class TestGeneratorBehaviours:
    def test_streaming_is_mostly_sequential(self):
        workload = StreamingWorkload("s", num_streams=1, irregularity=0.0,
                                     stride_bytes=64)
        addresses = workload.generate_buffer(100, seed=0).address.tolist()
        deltas = [b - a for a, b in zip(addresses, addresses[1:])]
        assert all(delta == 64 for delta in deltas)

    def test_random_access_covers_wide_range(self):
        workload = RandomAccessWorkload("r", table_bytes=1 << 24)
        trace = workload.generate_buffer(500, seed=0)
        blocks = set(trace.block_column().tolist())
        assert len(blocks) > 400  # almost no reuse

    def test_pointer_chase_marks_dependencies(self):
        workload = PointerChaseWorkload("p", chase_length=16)
        trace = workload.generate_buffer(200, seed=0)
        assert sum(trace.dependent.tolist()) > 100

    def test_zipf_has_reuse_skew(self):
        workload = ZipfWorkload("z", footprint_bytes=1 << 20, zipf_alpha=1.2,
                                spatial_run_length=1, accesses_per_block=1)
        trace = workload.generate_buffer(2000, seed=0)
        blocks = trace.block_column().tolist()
        unique = len(set(blocks))
        assert unique < len(blocks) * 0.8  # popular blocks repeat

    def test_stencil_emits_neighbour_reuse(self):
        workload = StencilWorkload("st", reuse_probability=1.0,
                                   gather_fraction=0.0, plane_bytes=1024,
                                   accesses_per_element=1)
        addresses = workload.generate_buffer(100, seed=0).address.tolist()
        backwards = [b - a for a, b in zip(addresses, addresses[1:])
                     if b < a]
        assert backwards  # plane-behind neighbour accesses exist

    def test_phased_workload_switches_behaviour(self):
        small = ZipfWorkload("small", footprint_bytes=1 << 16)
        big = RandomAccessWorkload("big", table_bytes=1 << 26)
        workload = PhasedWorkload("phased", [small, big], phase_length=100)
        blocks = workload.generate_buffer(400, seed=0).block_column().tolist()
        first_phase = set(blocks[:100])
        second_phase = set(blocks[100:200])
        assert max(second_phase) > max(first_phase)

    def test_phased_requires_phases(self):
        with pytest.raises(ValueError):
            PhasedWorkload("empty", [])

    def test_stores_present_when_requested(self):
        workload = StreamingWorkload("s", store_fraction=0.5, num_streams=1)
        trace = workload.generate_buffer(400, seed=0)
        stores = trace.kind.tolist().count(KIND_STORE)
        assert stores > 50


class TestGraphWorkload:
    def test_kernel_variants(self):
        assert make_gapbs_workload("pr").vertex_order == "sequential"
        assert make_gapbs_workload("bfs").vertex_order == "random"
        assert make_gapbs_workload("tc").intersection
        with pytest.raises(ValueError):
            make_gapbs_workload("sssp")

    def test_invalid_vertex_order(self):
        with pytest.raises(ValueError):
            GraphWorkload("g", vertex_order="sorted")

    def test_gathers_are_dependent_and_scattered(self):
        workload = make_gapbs_workload("pr")
        trace = workload.generate_buffer(1000, seed=0)
        gathers = [block for block, dependent in zip(
            trace.block_column().tolist(), trace.dependent.tolist())
            if dependent]
        assert len(gathers) > 200
        assert len(set(gathers)) > 100

    def test_offset_stream_is_regular(self):
        workload = make_gapbs_workload("pr")
        trace = workload.generate_buffer(2000, seed=0)
        offsets = [address for address, pc in zip(
            trace.address.tolist(), trace.pc.tolist()) if pc == 0x6000]
        deltas = {b - a for a, b in zip(offsets, offsets[1:])}
        assert deltas == {8}


class TestMixes:
    def test_table2_mixes_present(self):
        assert set(MIXES) == {"mix1", "mix2", "mix3", "mix4", "mix5",
                              "MT1", "MT2"}
        assert get_mix("mix1").num_cores == 4
        assert get_mix("MT1").num_cores == 2

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError):
            get_mix("mix9")

    def test_multiprogram_traces_use_disjoint_regions(self):
        """In every program mix each core's trace stays in one
        ``address >> 36`` region, and no two cores share a region."""
        for mix, spec in MIXES.items():
            if spec.multithreaded:
                continue
            traces, _ = mix_traces(mix, 64, trace_cache=TraceCache())
            regions = [{address >> 36 for address in trace.address.tolist()}
                       for trace in traces]
            assert all(len(region) == 1 for region in regions), mix
            assert len(set.union(*regions)) == len(traces) == 4, mix

    def test_multithreaded_traces_share_data(self):
        """The threads of each multi-threaded run touch common blocks."""
        for mix in ("MT1", "MT2"):
            traces, _ = mix_traces(mix, 300, trace_cache=TraceCache())
            blocks = [set(trace.block_column().tolist()) for trace in traces]
            assert blocks[0] & blocks[1], mix


@given(name=st.sampled_from(sorted(APPLICATIONS)),
       seed=st.integers(min_value=0, max_value=5))
@settings(max_examples=25, deadline=None)
def test_property_traces_are_wellformed(name, seed):
    """Every registered workload emits well-formed, reproducible accesses."""
    trace = build_workload(name).generate_buffer(80, seed=seed)
    assert len(trace) == 80
    assert set(trace.kind.tolist()) <= {KIND_LOAD, KIND_STORE}
    assert trace == build_workload(name).generate_buffer(80, seed=seed)
