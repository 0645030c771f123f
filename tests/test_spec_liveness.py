"""Every settable field of a system config must be read by the model.

Each scalar field of a :class:`~repro.memory.spec.HierarchySpec`, of a
:class:`~repro.cpu.ooo_core.CoreConfig` and of a
:class:`~repro.sim.config.SystemConfig` is perturbed, and the perturbed
config must change at least one byte of the serialized results of a
fixed stimulus.  A field whose change moves nothing is a knob that
enters the job key (and, for a spec, the JSON file) but not the
simulation: it is either deleted or named in :data:`ALLOWED` with the
line that explains why it is dead there.

The field list comes from :func:`dataclasses.fields`, so a field added
later is covered without editing this module.  A live field that the
stimulus fails to reach is a gap in the stimulus, not an allow-list
entry.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Tuple

from repro.cpu.ooo_core import CoreConfig
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
#: ``role`` is a level role, a spec part, ``core`` or ``system``.
ALLOWED: Dict[Tuple[str, str], str] = {
    **{(role, "name"): "a label; results name the system, not its levels"
       for role in ROLES},
    **{(role, field): "the prefetch budget reads the MSHR shape of the "
                      "deepest private level only (hierarchy.py:470-472)"
       for role in ("L1", "LLC")
       for field in ("mshr_entries", "mshr_demand_reserve")},
    **{(role, "write_energy_nj"): "only the LLC prices a writeback "
                                  "deposit (hierarchy.py:462-463)"
       for role in ("L1", "L2")},
    ("system", "predictor"): "each job names its predictor, and "
                             "execute_job's with_predictor replaces the "
                             "config's (engine.py:377, 385)",
    ("system", "num_cores"): "a single-core job builds one core "
                             "(system.py:131); the mix sets its own count",
    ("system", "prefetch_epoch_accesses"): "the throttle's epoch is longer "
                                           "than the stimulus, so it never "
                                           "decides",
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

#: The stimulus systems.  On the paper core the 32-entry load queue bounds
#: the loads in flight; on fig15's LSQ-96 core the ROB does.  Every field
#: is perturbed on the first; the core's fields on both, so each bound is
#: reached where it binds.
PAPER_CORE = SystemConfig(name="liveness", hierarchy=SPEC)
LSQ96_CORE = dataclasses.replace(
    PAPER_CORE,
    core=SystemConfig.sensitivity_variants()["parallel-llc-lsq96"].core)

#: The other name of a field the config restricts to a closed set, tried
#: when the config rejects a suffixed name.
OTHER_NAME = {"prefetch_scheme": "none"}


def _results(config: SystemConfig) -> str:
    """The serialized results of the stimulus on ``config``, computed on
    a fresh trace cache so no walk is shared between configs."""
    cache = TraceCache()
    results: List[Any] = [
        execute_job(SimulationJob(workload=WORKLOAD, predictor=predictor,
                                  num_accesses=ACCESSES,
                                  warmup_accesses=WARMUP, config=config),
                    cache)
        for predictor in SINGLE]
    mix = dataclasses.replace(config, num_cores=4)
    results.append(execute_job(MixJob(mix=MIX, predictor="lp",
                                      accesses_per_core=MIX_ACCESSES,
                                      config=mix), cache))
    return json.dumps([serialize_result(r) for r in results],
                      sort_keys=True)


def _perturbed(name: str, value: Any) -> List[Any]:
    """The values to try for one field, in order.  A number gets a small
    step, then a large one: the core's window is
    ``int(rob_entries / instructions per access)``, which rounds a small
    step away."""
    if value is None:
        return [1.0]
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1, value * 2]
    if isinstance(value, float):
        return [value * 1.5 if value else value + 0.5]
    if isinstance(value, str):
        return [value + "x"] + ([OTHER_NAME[name]] if name in OTHER_NAME
                                else [])
    raise TypeError(f"no perturbation for {value!r}")


def _spec_variants(spec: HierarchySpec):
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


def _variants(config: SystemConfig, core_only: bool = False):
    """``(role, field, value, build)`` for every scalar field of
    ``config`` (only its core's with ``core_only``), where
    ``build(value)`` is the config with that field set."""
    if not core_only:
        for role, name, value, build in _spec_variants(config.hierarchy):
            def build_config(value, build=build):
                return dataclasses.replace(config, hierarchy=build(value))
            yield role, name, value, build_config

    for f in dataclasses.fields(CoreConfig):
        def build(value, name=f.name):
            return dataclasses.replace(config, core=dataclasses.replace(
                config.core, **{name: value}))
        yield "core", f.name, getattr(config.core, f.name), build

    if core_only:
        return
    for f in dataclasses.fields(SystemConfig):
        if f.name in ("hierarchy", "core"):
            continue

        def build(value, name=f.name):
            return dataclasses.replace(config, **{name: value})
        yield "system", f.name, getattr(config, f.name), build


def test_every_spec_field_changes_a_result():
    """Numbers are tried until a step moves a byte; the first name the
    config accepts decides, since a name accepted but run like the
    current one is itself a dead knob."""
    changed: Dict[Tuple[str, str], bool] = {}
    for config, core_only in ((PAPER_CORE, False), (LSQ96_CORE, True)):
        reference = _results(config)
        for role, name, value, build in _variants(config, core_only):
            for candidate in _perturbed(name, value):
                try:
                    variant = build(candidate)
                except ValueError:
                    continue
                moved = _results(variant) != reference
                changed[role, name] = changed.get((role, name)) or moved
                if moved or isinstance(value, str):
                    break
    rejected = [f"{role}.{name}" for role, name, _, _ in
                _variants(PAPER_CORE) if (role, name) not in changed]
    dead = [f"{role}.{name}" for (role, name), moved in changed.items()
            if not moved and (role, name) not in ALLOWED]
    stale = [f"{role}.{name}" for (role, name), moved in changed.items()
             if moved and (role, name) in ALLOWED]
    assert not (dead or rejected or stale), (
        f"fields no result reads: {dead}; fields whose perturbation the "
        f"config rejects: {rejected}; allow-listed fields that do change a "
        f"result: {stale}")
