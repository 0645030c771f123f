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

    def test_non_inclusive_intermediate_rejected(self):
        l1, l2, llc = _paper_levels()
        exclusive_l2 = dataclasses.replace(l2, inclusive=False)
        with pytest.raises(ValueError, match="only the LLC"):
            dataclasses.replace(HierarchySpec.paper_single_core(),
                                levels=(l1, exclusive_l2, llc))

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

    def test_mix_key_pinned(self, fixture_data):
        job = MixJob(mix="mix1", predictor="lp", accesses_per_core=240,
                     seed=0, config=SystemConfig.paper_multi_core())
        spec = job_spec(job)
        pinned = fixture_data["mix/mix1-lp"]
        assert json.dumps(spec, sort_keys=True) == pinned["canonical"]
        assert spec_key(spec) == pinned["key"]

    @pytest.mark.parametrize("variant", [
        lambda s: dataclasses.replace(
            s, levels=(s.levels[0], dataclasses.replace(s.levels[1],
                                                        ports=2),
                       s.llc)),
        lambda s: dataclasses.replace(
            s, levels=(dataclasses.replace(s.levels[0], read_energy_nj=0.1),)
            + s.levels[1:]),
        lambda s: derive_llc(s, area_mm2=4.0),
        lambda s: derive_llc(s, inclusive=True),
        lambda s: derive_llc(s, name="LLC"),
        lambda s: dataclasses.replace(s, tlb=dataclasses.replace(
            s.tlb, page_walk_latency=80)),
    ], ids=["ports", "energy", "area", "inclusive-llc", "llc-name", "tlb"])
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
