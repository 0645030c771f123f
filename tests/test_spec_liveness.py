"""Every settable field of a hierarchy spec must be read by the model.

Each scalar field of a :class:`~repro.memory.spec.HierarchySpec` is
perturbed once, and the perturbed spec must change at least one byte of
the serialized results of a fixed stimulus.  A field whose change moves
nothing is a knob that enters the job key and the JSON file but not the
simulation: it is either deleted or named in :data:`ALLOWED` with the
line that explains why it is dead at that level.

The field list comes from :func:`dataclasses.fields`, so a field added
later is covered without editing this module.  A live field that the
stimulus fails to reach is a gap in the stimulus, not an allow-list
entry.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Tuple

from repro.memory.spec import (
    HierarchySpec,
    InterconnectSpec,
    LevelSpec,
    MemorySpec,
    TLBSpec,
)
from repro.sim.config import SystemConfig
from repro.sim.engine import MixJob, SimulationJob, TraceCache, execute_job
from repro.sim.store import serialize_result

#: The level roles of the test spec, in chain order.
ROLES = ("L1", "L2", "LLC")

#: ``(role, field) -> reason`` for the fields no result can depend on.
ALLOWED: Dict[Tuple[str, str], str] = {
    **{(role, "name"): "a label; results name the system, not its levels"
       for role in ROLES},
    **{(role, field): "the prefetch budget reads the MSHR shape of the "
                      "deepest private level only (hierarchy.py:475-477)"
       for role in ("L1", "LLC")
       for field in ("mshr_entries", "mshr_demand_reserve")},
    **{(role, "write_energy_nj"): "only the LLC prices a writeback "
                                  "deposit (hierarchy.py:463-464)"
       for role in ("L1", "L2")},
}

#: The stimulus spec: 1/4/16 KB caches (LLC evictions, dirty victims), a
#: 4-entry L1 TLB over a 16-entry L2 TLB (both evict), parallel private
#: levels whose data stage outlasts the tag stage (so tag, data and the
#: sequential flag all count), and explicit energy overrides.
SPEC = HierarchySpec(
    levels=(
        LevelSpec(name="L1", size_bytes=1024, associativity=2,
                  tag_latency=2, data_latency=3, mshr_entries=8,
                  read_energy_nj=0.02, write_energy_nj=0.03),
        LevelSpec(name="L2", size_bytes=4096, associativity=4,
                  tag_latency=6, data_latency=10, mshr_entries=8,
                  read_energy_nj=0.1, write_energy_nj=0.15),
        LevelSpec(name="L3", size_bytes=16 * 1024, associativity=8,
                  tag_latency=20, data_latency=35, sequential_tag_data=True,
                  mshr_entries=32, read_energy_nj=0.5, write_energy_nj=0.6),
    ),
    tlb=TLBSpec(l1_entries=4, l1_associativity=2, l2_entries=16,
                l2_associativity=4),
)

#: Single-core systems: TAGE is the one that probes caches in parallel on
#: this trace (``parallel_port_penalty``); lp issues recoveries.
SINGLE = ("baseline", "lp", "tage-2kb", "ideal")
WORKLOAD, ACCESSES, WARMUP = "623.xalan", 1000, 200
#: One 4-core mix, for the per-extra-core contention.
MIX, MIX_ACCESSES = "mix1", 150


def _results(spec: HierarchySpec) -> str:
    """The serialized results of the stimulus on ``spec``, computed on a
    fresh trace cache so no walk is shared between specs."""
    cache = TraceCache()
    single = SystemConfig(name="liveness", hierarchy=spec)
    results: List[Any] = [
        execute_job(SimulationJob(workload=WORKLOAD, predictor=predictor,
                                  num_accesses=ACCESSES,
                                  warmup_accesses=WARMUP, config=single),
                    cache)
        for predictor in SINGLE]
    mix = dataclasses.replace(single, name="liveness-mix", num_cores=4)
    results.append(execute_job(MixJob(mix=MIX, predictor="lp",
                                      accesses_per_core=MIX_ACCESSES,
                                      config=mix), cache))
    return json.dumps([serialize_result(r) for r in results],
                      sort_keys=True)


def _perturbed(value: Any) -> List[Any]:
    """The values to try for one field, in order: the first one the spec
    accepts is used."""
    if value is None:
        return [1.0]
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1, value * 2]
    if isinstance(value, float):
        return [value * 1.5 if value else value + 0.5]
    if isinstance(value, str):
        return [value + "x"]
    raise TypeError(f"no perturbation for {value!r}")


def _variants(spec: HierarchySpec):
    """``(role, field, value, build)`` for every scalar field of
    ``spec``, where ``build(value)`` is the spec with that field set."""
    for index, role in enumerate(ROLES):
        for f in dataclasses.fields(LevelSpec):
            if f.name == "block_size":
                continue

            def build(value, index=index, name=f.name):
                levels = list(spec.levels)
                levels[index] = dataclasses.replace(levels[index],
                                                    **{name: value})
                return dataclasses.replace(spec, levels=tuple(levels))
            yield role, f.name, getattr(spec.levels[index], f.name), build

    # Validation requires one block size down the chain.
    def every_block(value):
        return dataclasses.replace(spec, levels=tuple(
            dataclasses.replace(level, block_size=value)
            for level in spec.levels))
    yield "levels", "block_size", spec.l1.block_size, every_block

    for part, part_type in (("tlb", TLBSpec), ("memory", MemorySpec),
                            ("interconnect", InterconnectSpec)):
        section = getattr(spec, part)
        for f in dataclasses.fields(part_type):
            def build(value, part=part, section=section, name=f.name):
                return dataclasses.replace(spec, **{
                    part: dataclasses.replace(section, **{name: value})})
            yield part, f.name, getattr(section, f.name), build

    for f in dataclasses.fields(HierarchySpec):
        if f.name in ("levels", "tlb", "memory", "interconnect"):
            continue

        def build(value, name=f.name):
            return dataclasses.replace(spec, **{name: value})
        yield "hierarchy", f.name, getattr(spec, f.name), build


def test_every_spec_field_changes_a_result():
    reference = _results(SPEC)
    dead, rejected, stale = [], [], []
    for role, name, value, build in _variants(SPEC):
        variant = None
        for candidate in _perturbed(value):
            try:
                variant = build(candidate)
                break
            except ValueError:
                continue
        if variant is None:
            rejected.append(f"{role}.{name}")
            continue
        changed = _results(variant) != reference
        if (role, name) in ALLOWED:
            if changed:
                stale.append(f"{role}.{name}")
        elif not changed:
            dead.append(f"{role}.{name}")
    assert not (dead or rejected or stale), (
        f"fields no result reads: {dead}; fields whose perturbation the "
        f"spec rejects: {rejected}; allow-listed fields that do change a "
        f"result: {stale}")
