"""Declarative hierarchy specs: validation, serialization, key stability
and N-level chain execution.

Three properties anchor this module:

1. Specs are validated at construction with contextual errors, and the
   JSON form is an exact fixed point (spec -> JSON -> spec -> JSON).
2. The content-addressed job keys of the paper systems are *pinned*
   against committed fixture strings (``tests/fixtures/job_keys.json``):
   the golden store must never move, whatever the config layer looks
   like internally.
3. Non-paper chain depths (2 and 4 levels) run through the same walker
   as the paper hierarchy, with every predictor.  (Buffer-vs-record
   replay equivalence at 2 and 4 levels lives in ``test_tracebuffer.py``;
   randomised invariants over depths 2-5 in ``test_hierarchy.py``.)
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.memory.spec import (
    HierarchySpec,
    LevelSpec,
    derive_llc,
    load_hierarchy,
)
from repro.sim.config import SystemConfig, table1_description
from repro.sim.engine import MixJob, SimulationJob, apply_hierarchy
from repro.sim.store import job_spec, spec_key
from repro.sim.system import SimulatedSystem
from repro.workloads import build_workload

FIXTURES = Path(__file__).parent / "fixtures"
EXAMPLES = Path(__file__).parent.parent / "examples" / "hierarchies"


def _paper_levels():
    return HierarchySpec.paper_single_core().levels


def _chain(depth: int) -> HierarchySpec:
    """A 2- or 4-level variant of the paper hierarchy."""
    paper = HierarchySpec.paper_single_core()
    l1, l2, llc = paper.levels
    if depth == 2:
        levels = (l1, dataclasses.replace(llc, name="L2"))
    else:
        mid = dataclasses.replace(l2, name="L3", size_bytes=512 * 1024,
                                  tag_latency=16)
        levels = (l1, l2, mid, dataclasses.replace(llc, name="L4"))
    return dataclasses.replace(paper, levels=levels)


# ======================================================================
# Validation
# ======================================================================
class TestValidation:
    def test_zero_ways_rejected(self):
        with pytest.raises(ValueError, match="associativity must be at "
                                             "least 1 way"):
            LevelSpec(name="L1", size_bytes=32 * 1024, associativity=0)

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(ValueError, match="block_size must be a power "
                                             "of two"):
            LevelSpec(name="L1", size_bytes=32 * 1024, associativity=4,
                      block_size=48)

    def test_size_not_multiple_of_way_rejected(self):
        with pytest.raises(ValueError, match="multiple of block_size"):
            LevelSpec(name="L1", size_bytes=32 * 1024 + 64, associativity=4)

    def test_shrinking_capacity_rejected(self):
        l1, l2, llc = _paper_levels()
        small_llc = dataclasses.replace(llc, size_bytes=128 * 1024)
        with pytest.raises(ValueError, match="capacity must not shrink"):
            dataclasses.replace(HierarchySpec.paper_single_core(),
                                levels=(l1, l2, small_llc))

    def test_shrinking_latency_rejected(self):
        l1, l2, llc = _paper_levels()
        fast_llc = dataclasses.replace(llc, tag_latency=2, data_latency=3)
        with pytest.raises(ValueError, match="hit latency must not shrink"):
            dataclasses.replace(HierarchySpec.paper_single_core(),
                                levels=(l1, l2, fast_llc))

    def test_duplicate_level_names_rejected(self):
        l1, l2, llc = _paper_levels()
        dup = dataclasses.replace(l2, name="L1")
        with pytest.raises(ValueError, match="duplicate level name 'L1'"):
            dataclasses.replace(HierarchySpec.paper_single_core(),
                                levels=(l1, dup, llc))

    def test_single_level_rejected(self):
        l1 = _paper_levels()[0]
        with pytest.raises(ValueError, match="at least 2 cache levels"):
            dataclasses.replace(HierarchySpec.paper_single_core(),
                                levels=(l1,))

    def test_mixed_block_sizes_rejected(self):
        l1, l2, llc = _paper_levels()
        odd = dataclasses.replace(l2, block_size=128)
        with pytest.raises(ValueError, match="one block size"):
            dataclasses.replace(HierarchySpec.paper_single_core(),
                                levels=(l1, odd, llc))

    def test_unknown_json_field_rejected(self):
        payload = json.loads(HierarchySpec.paper_single_core().to_json())
        payload["levels"][0]["banks"] = 4
        with pytest.raises(ValueError, match="unknown field"):
            HierarchySpec.from_json(json.dumps(payload))

    @pytest.mark.parametrize("section,name", [
        ("level", "ports"), ("level", "area_mm2"), ("level", "inclusive"),
        ("tlb", "l1_latency"), ("memory", "tras"),
        ("memory", "channel_capacity_gb")])
    def test_spec_file_naming_a_deleted_field_is_refused(self, tmp_path,
                                                         section, name):
        payload = json.loads(HierarchySpec.paper_single_core().to_json())
        target = payload["levels"][0] if section == "level" \
            else payload[section]
        target[name] = 1
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=f"unknown field.*{name}"):
            load_hierarchy(path)

    def test_spec_file_naming_ideal_miss_latency_is_refused(self):
        # The Ideal system is an oracle predictor, not a spec flag.
        payload = json.loads(HierarchySpec.paper_single_core().to_json())
        payload["ideal_miss_latency"] = False
        with pytest.raises(ValueError,
                           match="unknown hierarchy spec field.*"
                                 "ideal_miss_latency"):
            HierarchySpec.from_json(json.dumps(payload))

    def test_bad_schema_tag_rejected(self):
        payload = json.loads(HierarchySpec.paper_single_core().to_json())
        payload["schema"] = "repro-hierarchy/999"
        with pytest.raises(ValueError, match="schema"):
            HierarchySpec.from_json(json.dumps(payload))


# ======================================================================
# Serialization
# ======================================================================
class TestRoundTrip:
    @pytest.mark.parametrize("spec", [
        HierarchySpec.paper_single_core(),
        HierarchySpec.paper_multi_core(),
        _chain(2),
        _chain(4),
    ], ids=["paper-single", "paper-multi", "two-level", "four-level"])
    def test_json_fixed_point(self, spec):
        text = spec.to_json()
        reparsed = HierarchySpec.from_json(text)
        assert reparsed == spec
        assert reparsed.to_json() == text

    @pytest.mark.parametrize("name", ["paper", "two_level", "four_level"])
    def test_committed_examples_are_fixed_points(self, name):
        path = EXAMPLES / f"{name}.json"
        text = path.read_text(encoding="utf-8")
        spec = load_hierarchy(path)
        assert spec.to_json() == text

    def test_derive_llc_replaces_fields(self):
        spec = HierarchySpec.paper_single_core()
        derived = derive_llc(spec, tag_latency=20, data_latency=20)
        assert derived.llc.tag_latency == 20
        assert derived.llc.data_latency == 20
        # Everything unnamed carries over.
        assert derived.llc.size_bytes == spec.llc.size_bytes
        assert derived.llc.mshr_entries == spec.llc.mshr_entries


#: The canonical spec and key of one golden-scale job on ``four_level.json``.
#: The fixture file pins only legacy-exact specs; this pins the generic
#: dataclass form that every other spec (and its stored results) is keyed by.
_FOUR_LEVEL_CANONICAL = (
    '{"config": {"__dataclass__": "SystemConfig", "fields": {"core": '
    '{"__dataclass__": "CoreConfig", "fields": {"fetch_width": 4, "fr'
    'equency_ghz": 4.0, "load_queue_entries": 32, "min_instruction_cy'
    'cles": 0.25, "rob_entries": 192, "store_queue_entries": 32}}, "h'
    'ierarchy": {"__dataclass__": "HierarchySpec", "fields": {"ideal_'
    'miss_latency": false, "interconnect": {"__dataclass__": "Interco'
    'nnectSpec", "fields": {"contention_per_extra_core": 1.5, "l1_to_'
    'l2": 2, "l2_to_llc": 4, "llc_to_memory": 6, "recovery_transactio'
    'n": 8}}, "levels": [{"__dataclass__": "LevelSpec", "fields": {"a'
    'rea_mm2": null, "associativity": 4, "block_size": 64, "data_late'
    'ncy": 0, "inclusive": true, "mshr_demand_reserve": 0.25, "mshr_e'
    'ntries": 16, "name": "L1", "ports": 1, "read_energy_nj": null, "'
    'sequential_tag_data": false, "size_bytes": 32768, "tag_latency":'
    ' 4, "write_energy_nj": null}}, {"__dataclass__": "LevelSpec", "f'
    'ields": {"area_mm2": null, "associativity": 8, "block_size": 64,'
    ' "data_latency": 0, "inclusive": true, "mshr_demand_reserve": 0.'
    '25, "mshr_entries": 32, "name": "L2", "ports": 1, "read_energy_n'
    'j": null, "sequential_tag_data": false, "size_bytes": 262144, "t'
    'ag_latency": 12, "write_energy_nj": null}}, {"__dataclass__": "L'
    'evelSpec", "fields": {"area_mm2": null, "associativity": 16, "bl'
    'ock_size": 64, "data_latency": 14, "inclusive": true, "mshr_dema'
    'nd_reserve": 0.25, "mshr_entries": 32, "name": "L3", "ports": 1,'
    ' "read_energy_nj": null, "sequential_tag_data": false, "size_byt'
    'es": 1048576, "tag_latency": 4, "write_energy_nj": null}}, {"__d'
    'ataclass__": "LevelSpec", "fields": {"area_mm2": null, "associat'
    'ivity": 16, "block_size": 64, "data_latency": 35, "inclusive": f'
    'alse, "mshr_demand_reserve": 0.25, "mshr_entries": 64, "name": "'
    'L4", "ports": 1, "read_energy_nj": null, "sequential_tag_data": '
    'true, "size_bytes": 8388608, "tag_latency": 5, "write_energy_nj"'
    ': null}}], "memory": {"__dataclass__": "MemorySpec", "fields": {'
    '"burst_cycles": 4, "cas_latency": 17, "channel_capacity_gb": 16,'
    ' "controller_latency_core_cycles": 15, "core_frequency_ghz": 4.0'
    ', "dram_frequency_mhz": 1200.0, "max_queue_fraction": 0.5, "num_'
    'banks": 16, "num_ranks": 1, "refresh_penalty_core_cycles": 1.0, '
    '"row_size_bytes": 8192, "tras": 39, "trcd": 17, "trp": 17}}, "me'
    'mory_speculative_launch": true, "parallel_port_penalty": 2.0, "p'
    'refetch_inflight_window": 32, "tlb": {"__dataclass__": "TLBSpec"'
    ', "fields": {"l1_associativity": 4, "l1_entries": 64, "l1_latenc'
    'y": 1, "l2_associativity": 4, "l2_entries": 1536, "l2_latency": '
    '4, "page_size": 4096, "page_walk_latency": 50}}}}, "metadata_cac'
    'he_bytes": 2048, "name": "four_level", "num_cores": 1, "predicto'
    'r": "lp", "prefetch_epoch_accesses": 50000, "prefetch_scheme": "'
    'paper"}}, "kind": "single", "num_accesses": 400, "predictor": "l'
    'p", "schema": "repro-store/1", "seed": 0, "warmup_accesses": 120'
    ', "workload": {"__workload__": "GraphWorkload", "state": {"avera'
    'ge_degree": 8, "block_size": 64, "intersection": false, "name": '
    '"gapbs.pr", "non_memory_instructions": 4, "num_vertices": 104857'
    '6, "profile": {"__dataclass__": "WorkloadProfile", "fields": {"d'
    'escription": "PageRank vertex-property gathers", "expected_benef'
    'it": "high", "suite": "gapbs"}}, "property_bytes": 8, "skew": 2.'
    '0, "store_fraction": 0.2, "vertex_order": "sequential"}}}'
)
_FOUR_LEVEL_KEY = (
    'e35c7435c8e3f521e41c48f7e39a6cb7'
    'ebe6e42189667039136c361f4fe95d8b')

#: The keys of fig15's two LSQ-96 systems on one default-scale job.  The
#: fixture file holds no core whose store queue is 96 entries deep, so
#: these pin the store-queue depth ``CoreConfig`` writes into a key.
_LSQ96_KEYS = {
    "parallel-llc-lsq96": ('553f9ea7783a936d2cb9c70ce69ab49c'
                           '6f4265734f7faf17e7b840fec2897a6e'),
    "aggressive-core": ('9a0ce4f6dab7075ddd3fb10a72b5bd57'
                        '462292f284bc736be9ae57e3ff48466c'),
}


# ======================================================================
# Key stability (the golden store must never move)
# ======================================================================
class TestKeyStability:
    @pytest.fixture(scope="class")
    def fixture_data(self):
        with open(FIXTURES / "job_keys.json", encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.mark.parametrize("predictor", ["baseline", "tage-2kb",
                                           "tage-8kb", "d2d", "lp", "ideal"])
    def test_paper_single_core_keys_pinned(self, fixture_data, predictor):
        job = SimulationJob(workload="gapbs.pr", predictor=predictor,
                            num_accesses=400, warmup_accesses=120, seed=0)
        spec = job_spec(job)
        pinned = fixture_data[f"single/{predictor}"]
        assert json.dumps(spec, sort_keys=True) == pinned["canonical"]
        assert spec_key(spec) == pinned["key"]

    def test_fig15_variant_key_pinned(self, fixture_data):
        config = SystemConfig.sensitivity_variants("lp")["parallel-llc"]
        job = SimulationJob(workload="stream", predictor="lp",
                            num_accesses=400, warmup_accesses=120, seed=0,
                            config=config)
        spec = job_spec(job)
        pinned = fixture_data["fig15/parallel-llc"]
        assert json.dumps(spec, sort_keys=True) == pinned["canonical"]
        assert spec_key(spec) == pinned["key"]

    def test_four_level_key_pinned(self):
        spec = load_hierarchy(EXAMPLES / "four_level.json")
        assert not spec.is_legacy_exact()
        base = SimulationJob(workload="gapbs.pr", predictor="lp",
                             num_accesses=400, warmup_accesses=120, seed=0)
        job = apply_hierarchy([base], spec, "four_level")[0]
        canonical = job_spec(job)
        assert json.dumps(canonical, sort_keys=True) == _FOUR_LEVEL_CANONICAL
        assert spec_key(canonical) == _FOUR_LEVEL_KEY

    @pytest.mark.parametrize("variant", sorted(_LSQ96_KEYS))
    def test_fig15_lsq96_keys_pinned(self, variant):
        config = SystemConfig.sensitivity_variants("lp")[variant]
        job = SimulationJob(workload="gapbs.pr", predictor="baseline",
                            num_accesses=4000, warmup_accesses=1200, seed=0,
                            config=config)
        assert spec_key(job_spec(job)) == _LSQ96_KEYS[variant]

    def test_mix_key_pinned(self, fixture_data):
        job = MixJob(mix="mix1", predictor="lp", accesses_per_core=240,
                     seed=0, config=SystemConfig.paper_multi_core())
        spec = job_spec(job)
        pinned = fixture_data["mix/mix1-lp"]
        assert json.dumps(spec, sort_keys=True) == pinned["canonical"]
        assert spec_key(spec) == pinned["key"]

    @pytest.mark.parametrize("variant", [
        lambda s: dataclasses.replace(
            s, levels=(dataclasses.replace(s.levels[0], read_energy_nj=0.1),)
            + s.levels[1:]),
        lambda s: derive_llc(s, name="LLC"),
        lambda s: dataclasses.replace(s, tlb=dataclasses.replace(
            s.tlb, page_walk_latency=80)),
    ], ids=["energy", "llc-name", "tlb"])
    def test_inexpressible_extras_leave_the_legacy_key_format(self,
                                                             variant):
        paper = HierarchySpec.paper_single_core()
        assert paper.is_legacy_exact()
        spec = variant(paper)
        assert not spec.is_legacy_exact()
        base = SimulationJob(workload="gapbs.pr", predictor="lp",
                             num_accesses=400, warmup_accesses=120, seed=0)
        custom = apply_hierarchy([base], spec, "paper-variant")[0]
        renamed = apply_hierarchy([base], paper, "paper-variant")[0]
        assert spec_key(job_spec(custom)) != spec_key(job_spec(renamed))

    def test_customized_spec_gets_distinct_key(self):
        base = SimulationJob(workload="gapbs.pr", predictor="lp",
                             num_accesses=400, warmup_accesses=120, seed=0,
                             config=SystemConfig.paper_single_core())
        custom = apply_hierarchy([base], _chain(2), "two-level")[0]
        assert spec_key(job_spec(custom)) != spec_key(job_spec(base))


# ======================================================================
# N-level execution
# ======================================================================
class TestChainExecution:
    @pytest.mark.parametrize("depth,predictor", [(2, "baseline"),
                                                 (2, "ideal"),
                                                 (4, "baseline"),
                                                 (4, "ideal")])
    def test_chain_depths_run_all_predictors(self, depth, predictor):
        config = SystemConfig(name="chain-test", hierarchy=_chain(depth),
                              predictor=predictor)
        system = SimulatedSystem(config)
        workload = build_workload("gups")
        result = system.run_trace(workload.generate_buffer(400, seed=0))
        assert result.execution.instructions > 0
        assert result.hierarchy_stats.demand_accesses == 400


# ======================================================================
# Derived description (Table I)
# ======================================================================
class TestDescription:
    def test_four_level_table_renders_generically(self):
        config = dataclasses.replace(SystemConfig.paper_single_core(),
                                     hierarchy=_chain(4))
        table = table1_description(config)
        assert "L4 Cache" in table
        assert "8 MB" in table["L4 Cache"] or "2 MB" in table["L4 Cache"]
        assert "L1/L2/L3 inclusive" in table["Coherency"]
        assert "L4 non-inclusive" in table["Coherency"]

    def test_memory_line_derived_from_dram_config(self):
        table = table1_description()
        assert table["Main Memory"].startswith("16 GB DDR4-2400")
