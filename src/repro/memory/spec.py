"""Declarative hierarchy specifications: the memory system as data.

:class:`HierarchySpec` is the one hierarchy configuration type.  It is a
*declarative spec* in the zigzag idiom, and its parts are also the runtime
configs: :class:`~repro.memory.cache.Cache` reads a :class:`LevelSpec`,
:class:`~repro.memory.tlb.TLBHierarchy` a :class:`TLBSpec`,
:class:`~repro.memory.dram.DRAMModel` a :class:`MemorySpec` and
:class:`~repro.memory.hierarchy.CoreMemoryHierarchy` times its bus hops
from an :class:`InterconnectSpec`, so every config decision lives in this
module alone.  Each cache level is a frozen
:class:`LevelSpec` (geometry, latencies, MSHR shape and optional
per-access energies), and a :class:`HierarchySpec` composes an
ordered chain of levels plus a memory backend (:class:`MemorySpec`), an
interconnect (:class:`InterconnectSpec`) and a TLB (:class:`TLBSpec`).
The paper's Table I topology is :meth:`HierarchySpec.paper_single_core`
(and :meth:`~HierarchySpec.paper_multi_core` for the 8 MB quad-core LLC).

Specs are validated at construction — zero ways, non-power-of-two blocks,
shrinking capacities, non-monotone latencies and duplicate level names
all raise a contextual ``ValueError`` — and round-trip *exactly* through
JSON: ``HierarchySpec.from_json(s.to_json()) == s`` and ``to_json`` is a
fixed point of the round trip.  Every field is read by the model
(``tests/test_spec_liveness.py``).

Topology model
==============

``levels[0]`` is the private L1; ``levels[-1]`` is the shared LLC with
the collocated directory; everything in between is a private
intermediate level.  The level predictor's target space stays the
paper's (L2 / L3 / MEM): the whole private intermediate group is
classified as ``Level.L2``, the LLC as ``Level.L3`` — so predictors,
statistics and stored results keep their exact shapes for any depth.
Every level above the LLC is inclusive of the levels above it; the LLC
is non-inclusive (the paper's configuration).

Key stability
=============

Results stores address every job by the SHA-256 of its canonical
config, and the golden store was keyed before specs existed, when the
paper hierarchy was a fixed three-level dataclass.  That dataclass's
canonical form is frozen as a key format: a *legacy-exact* spec (three
levels named ``L1``/``L2``/``L3``, the default TLB, and no energy
overrides — everything the old dataclass could express) canonicalises in
it via the ``__canonical__`` hook the store honours.  The format is
frozen *data* in this module (the record names and the spec fields each
record holds), not derived from any live type, so the job keys of the
paper systems, and with them the golden store, never move.  Every other
spec takes the generic dataclass form.  Both forms keep the deleted
fields as constants (:data:`_DELETED_FIELDS`).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from .block import DEFAULT_BLOCK_SIZE

#: Schema tag embedded in every serialized hierarchy spec.
HIERARCHY_SCHEMA = "repro-hierarchy/1"

#: The default level names of the paper's 3-level chain (legacy-exact).
_LEGACY_NAMES = ("L1", "L2", "L3")

#: The frozen pre-spec store key format, as data: the spec fields each of
#: its records holds.  A cache level is recorded as a ``CacheConfig`` with
#: its level code and the (only) LRU, write-back policy, DRAM as a
#: ``DRAMConfig``, the bus as an ``InterconnectConfig``, and the whole as a
#: ``HierarchyConfig``.  Only these names enter a legacy key, so adding a
#: spec field cannot move one.
_LEGACY_CACHE_FIELDS = (
    "size_bytes", "associativity", "block_size", "tag_latency",
    "data_latency", "sequential_tag_data", "mshr_entries",
    "mshr_demand_reserve")
_LEGACY_DRAM_FIELDS = (
    "core_frequency_ghz", "dram_frequency_mhz", "cas_latency", "trcd",
    "trp", "burst_cycles", "num_banks", "num_ranks", "row_size_bytes",
    "controller_latency_core_cycles", "refresh_penalty_core_cycles",
    "max_queue_fraction")
_LEGACY_INTERCONNECT_FIELDS = (
    "l1_to_l2", "l2_to_llc", "llc_to_memory", "recovery_transaction",
    "contention_per_extra_core")
_LEGACY_HIERARCHY_FIELDS = (
    "memory_speculative_launch", "parallel_port_penalty",
    "prefetch_inflight_window")


#: Fields deleted from the specs, with the values every key was written
#: with: keys keep them, so no key moved when they went.
_DELETED_FIELDS = {
    "LevelSpec": {"ports": 1, "area_mm2": None},
    "TLBSpec": {"l1_latency": 1},
    "MemorySpec": {"tras": 39, "channel_capacity_gb": 16},
    "HierarchySpec": {"ideal_miss_latency": False},
}


def _record(class_name: str, spec: Any, names: Tuple[str, ...],
            **extra: Any) -> Dict[str, Any]:
    """One dataclass record of a store key."""
    record = {name: getattr(spec, name) for name in names}
    record.update(extra)
    return {"__dataclass__": class_name, "fields": record}


def _generic_record(spec: Any, **extra: Any) -> Dict[str, Any]:
    """``spec``'s generic dataclass record, with its deleted fields."""
    name = type(spec).__name__
    return _record(name, spec, tuple(f.name for f in fields(spec)),
                   **_DELETED_FIELDS.get(name, {}), **extra)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class LevelSpec:
    """One cache level of a declarative hierarchy.

    Attributes:
        name: Unique level name (``"L1"``, ``"L2.5"``, ``"LLC"``...).
        size_bytes / associativity / block_size: Geometry.  The block
            size must be a power of two and identical across the chain.
        tag_latency / data_latency / sequential_tag_data: Access timing;
            a sequential level resolves tags before data
            (``hit = tag + data``), a parallel one overlaps them
            (``hit = max(tag, data)``).  Either detects a miss after
            ``tag_latency``.
        mshr_entries / mshr_demand_reserve: Miss-status-holding-register
            geometry; the reserve is the demand-only fraction.  Only the
            deepest private level's bound the prefetch issue rate.
        read_energy_nj / write_energy_nj: Optional zigzag-style
            per-access energies; ``None`` selects the role-based default
            among the constants of :mod:`repro.energy.model`.  Only the
            LLC's write energy is read: it prices a writeback deposit.
    """

    name: str
    size_bytes: int
    associativity: int
    block_size: int = DEFAULT_BLOCK_SIZE
    tag_latency: int = 1
    data_latency: int = 0
    sequential_tag_data: bool = False
    mshr_entries: int = 16
    mshr_demand_reserve: float = 0.25
    read_energy_nj: Optional[float] = None
    write_energy_nj: Optional[float] = None

    def __post_init__(self) -> None:
        _require(bool(self.name), "cache level needs a non-empty name")
        _require(self.size_bytes > 0,
                 f"level {self.name!r}: size_bytes must be positive, "
                 f"got {self.size_bytes}")
        _require(self.associativity > 0,
                 f"level {self.name!r}: associativity must be at least 1 "
                 f"way, got {self.associativity}")
        _require(self.block_size > 0
                 and (self.block_size & (self.block_size - 1)) == 0,
                 f"level {self.name!r}: block_size must be a power of "
                 f"two, got {self.block_size}")
        way_bytes = self.block_size * self.associativity
        _require(self.size_bytes % way_bytes == 0,
                 f"level {self.name!r}: size_bytes ({self.size_bytes}) "
                 f"must be a multiple of block_size x associativity "
                 f"({way_bytes})")
        _require(self.tag_latency >= 0 and self.data_latency >= 0,
                 f"level {self.name!r}: latencies must be non-negative")
        _require(self.mshr_entries > 0,
                 f"level {self.name!r}: mshr_entries must be positive")
        _require(0.0 <= self.mshr_demand_reserve < 1.0,
                 f"level {self.name!r}: mshr_demand_reserve must be in "
                 f"[0, 1), got {self.mshr_demand_reserve}")
        for label in ("read_energy_nj", "write_energy_nj"):
            value = getattr(self, label)
            _require(value is None or value >= 0.0,
                     f"level {self.name!r}: {label} must be "
                     f"non-negative, got {value}")

    @property
    def hit_latency(self) -> int:
        """Cycles to return data on a hit (what the walker charges)."""
        if self.sequential_tag_data:
            return self.tag_latency + self.data_latency
        return max(self.tag_latency, self.data_latency)


@dataclass(frozen=True)
class TLBSpec:
    """The (possibly asymmetric) two-level TLB attached to each core.

    The defaults reproduce the paper hierarchy's TLB: a 64-entry 4-way
    L1 TLB (free: it overlaps the L1 access) over a 1536-entry 4-way L2
    TLB (4 cycles) with a 50-cycle page walk and 4 KiB pages.
    """

    l1_entries: int = 64
    l1_associativity: int = 4
    l2_entries: int = 1536
    l2_associativity: int = 4
    l2_latency: int = 4
    page_size: int = 4096
    page_walk_latency: int = 50

    def __post_init__(self) -> None:
        for prefix in ("l1", "l2"):
            entries = getattr(self, f"{prefix}_entries")
            ways = getattr(self, f"{prefix}_associativity")
            _require(entries > 0,
                     f"TLB {prefix}: entries must be positive, "
                     f"got {entries}")
            _require(ways > 0 and entries % ways == 0,
                     f"TLB {prefix}: entries ({entries}) must be a "
                     f"positive multiple of associativity ({ways})")
        _require(self.l2_latency >= 0,
                 "TLB l2: latency must be non-negative")
        _require(self.page_size > 0
                 and (self.page_size & (self.page_size - 1)) == 0,
                 f"TLB: page_size must be a power of two, "
                 f"got {self.page_size}")
        _require(self.page_walk_latency >= 0,
                 "TLB: page_walk_latency must be non-negative")


@dataclass(frozen=True)
class MemorySpec:
    """The DRAM channel :class:`~repro.memory.dram.DRAMModel` times.

    The defaults correspond to DDR4-2400 (tCK = 0.833 ns) with CL=17,
    tRCD=17 and tRP=17 memory cycles, a 64-byte burst (BL8 on a x64
    channel = 4 memory clocks), 16 banks, and a 4 GHz core clock.
    ``max_queue_fraction`` bounds bank queueing delay to that fraction of
    one bank occupancy (the functional front end has no issue
    backpressure).
    """

    core_frequency_ghz: float = 4.0
    dram_frequency_mhz: float = 1200.0
    cas_latency: int = 17
    trcd: int = 17
    trp: int = 17
    burst_cycles: int = 4
    num_banks: int = 16
    num_ranks: int = 1
    row_size_bytes: int = 8192
    controller_latency_core_cycles: int = 15
    refresh_penalty_core_cycles: float = 1.0
    max_queue_fraction: float = 0.5

    def __post_init__(self) -> None:
        _require(self.core_frequency_ghz > 0
                 and self.dram_frequency_mhz > 0,
                 "memory: clock frequencies must be positive")
        _require(self.num_banks > 0 and self.num_ranks > 0,
                 "memory: bank/rank counts must be positive")
        _require(self.row_size_bytes > 0,
                 "memory: row_size_bytes must be positive")

    @property
    def core_cycles_per_dram_cycle(self) -> float:
        return (self.core_frequency_ghz * 1000.0) / self.dram_frequency_mhz


@dataclass(frozen=True)
class InterconnectSpec:
    """Per-hop bus latencies in core cycles.

    ``l1_to_l2`` is charged on every hop between private levels (L1 to
    the first intermediate, and between intermediates in chains deeper
    than three levels); ``l2_to_llc`` on the hop into the shared LLC;
    ``llc_to_memory`` from the LLC/directory to the memory controller;
    ``recovery_transaction`` on the misprediction-recovery transaction
    the directory issues.  Each shared-resource hop also pays
    ``contention_per_extra_core`` per active core beyond the first.
    """

    l1_to_l2: int = 2
    l2_to_llc: int = 4
    llc_to_memory: int = 6
    recovery_transaction: int = 8
    contention_per_extra_core: float = 1.5

    def __post_init__(self) -> None:
        for name in ("l1_to_l2", "l2_to_llc", "llc_to_memory",
                     "recovery_transaction"):
            _require(getattr(self, name) >= 0,
                     f"interconnect: {name} must be non-negative")
        _require(self.contention_per_extra_core >= 0.0,
                 "interconnect: contention_per_extra_core must be "
                 "non-negative")



def _paper_levels(llc_size_bytes: int) -> Tuple[LevelSpec, ...]:
    return (
        LevelSpec(name="L1", size_bytes=32 * 1024, associativity=4,
                  tag_latency=4, data_latency=0, sequential_tag_data=False,
                  mshr_entries=16, mshr_demand_reserve=0.25),
        LevelSpec(name="L2", size_bytes=256 * 1024, associativity=8,
                  tag_latency=12, data_latency=0, sequential_tag_data=False,
                  mshr_entries=32, mshr_demand_reserve=0.25),
        LevelSpec(name="L3", size_bytes=llc_size_bytes, associativity=16,
                  tag_latency=20, data_latency=35, sequential_tag_data=True,
                  mshr_entries=64, mshr_demand_reserve=0.25),
    )


@dataclass(frozen=True)
class HierarchySpec:
    """A declarative memory hierarchy: an ordered cache chain + backend.

    ``levels[0]`` is the private L1, ``levels[-1]`` the shared LLC (with
    the collocated directory); levels in between are private
    intermediates.  Validated at construction and exactly
    JSON-round-trippable (:meth:`to_json` / :meth:`from_json`).
    """

    levels: Tuple[LevelSpec, ...]
    tlb: TLBSpec = field(default_factory=TLBSpec)
    memory: MemorySpec = field(default_factory=MemorySpec)
    interconnect: InterconnectSpec = field(
        default_factory=InterconnectSpec)
    memory_speculative_launch: bool = True
    parallel_port_penalty: float = 2.0
    prefetch_inflight_window: int = 32

    def __post_init__(self) -> None:
        levels = tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        _require(len(levels) >= 2,
                 f"a hierarchy needs at least 2 cache levels (an L1 and "
                 f"an LLC), got {len(levels)}")
        names = [level.name for level in levels]
        seen = set()
        for name in names:
            _require(name not in seen,
                     f"duplicate level name {name!r} in hierarchy "
                     f"(levels: {', '.join(names)})")
            seen.add(name)
        block_sizes = {level.block_size for level in levels}
        _require(len(block_sizes) == 1,
                 f"all levels must share one block size, got "
                 f"{sorted(block_sizes)}")
        for closer, deeper in zip(levels, levels[1:]):
            _require(deeper.size_bytes >= closer.size_bytes,
                     f"capacity must not shrink down the chain: "
                     f"{deeper.name!r} ({deeper.size_bytes} B) is "
                     f"smaller than {closer.name!r} "
                     f"({closer.size_bytes} B)")
            _require(deeper.hit_latency >= closer.hit_latency,
                     f"hit latency must not shrink down the chain: "
                     f"{deeper.name!r} ({deeper.hit_latency} cy) is "
                     f"faster than {closer.name!r} "
                     f"({closer.hit_latency} cy)")
        _require(self.parallel_port_penalty >= 0.0,
                 "parallel_port_penalty must be non-negative")
        _require(self.prefetch_inflight_window > 0,
                 "prefetch_inflight_window must be positive")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of cache levels in the chain (excluding memory)."""
        return len(self.levels)

    @property
    def l1(self) -> LevelSpec:
        return self.levels[0]

    @property
    def llc(self) -> LevelSpec:
        return self.levels[-1]

    @property
    def l2(self) -> Optional[LevelSpec]:
        """The first private intermediate, or ``None`` in a 2-level chain
        (like :attr:`CoreMemoryHierarchy.l2
        <repro.memory.hierarchy.CoreMemoryHierarchy>`)."""
        return self.levels[1] if len(self.levels) > 2 else None

    @property
    def l3(self) -> LevelSpec:
        """Alias of :attr:`llc`, for readers of the Table I level names."""
        return self.levels[-1]

    @property
    def intermediates(self) -> Tuple[LevelSpec, ...]:
        """The private levels between L1 and the LLC (possibly empty)."""
        return self.levels[1:-1]

    # ------------------------------------------------------------------
    # Paper topologies
    # ------------------------------------------------------------------
    @staticmethod
    def paper_single_core() -> "HierarchySpec":
        """The single-core Table I topology (2 MB LLC) as a spec."""
        return _paper_spec(2 * 1024 * 1024)

    @staticmethod
    def paper_multi_core() -> "HierarchySpec":
        """The quad-core Table I topology (8 MB shared LLC) as a spec."""
        return _paper_spec(8 * 1024 * 1024)

    # ------------------------------------------------------------------
    # Store keys
    # ------------------------------------------------------------------
    def is_legacy_exact(self) -> bool:
        """True when the pre-spec key format can express this spec.

        That is: 3 levels with the default names, the default TLB, and
        no energy overrides.  Such specs keep their historical store keys
        (see :meth:`__canonical__`).
        """
        return (tuple(level.name for level in self.levels) == _LEGACY_NAMES
                and self.tlb == TLBSpec()
                and all(level.read_energy_nj is None
                        and level.write_energy_nj is None
                        for level in self.levels))

    def __canonical__(self, canonicalize):
        """Store-canonicalisation hook (see ``repro.sim.store``).

        Legacy-exact specs canonicalise in the frozen pre-spec key
        format, so the SHA-256 job keys of the paper systems — and the
        golden store — never move.  Anything that format cannot express
        takes the generic dataclass form the store would build, plus the
        deleted fields.  Both hold only primitives, so ``canonicalize``
        is not needed.
        """
        if not self.is_legacy_exact():
            last = len(self.levels) - 1
            return _generic_record(
                self,
                levels=[_generic_record(level, inclusive=index < last)
                        for index, level in enumerate(self.levels)],
                tlb=_generic_record(self.tlb),
                memory=_generic_record(self.memory),
                interconnect=_generic_record(self.interconnect))
        levels = {
            name: _record("CacheConfig", level, _LEGACY_CACHE_FIELDS,
                          level=code, replacement="lru", writeback=True)
            for code, (name, level) in enumerate(
                zip(("l1", "l2", "l3"), self.levels), start=1)}
        return _record(
            "HierarchyConfig", self, _LEGACY_HIERARCHY_FIELDS, **levels,
            **_DELETED_FIELDS["HierarchySpec"],
            dram=_record("DRAMConfig", self.memory, _LEGACY_DRAM_FIELDS,
                         **_DELETED_FIELDS["MemorySpec"]),
            interconnect=_record("InterconnectConfig", self.interconnect,
                                 _LEGACY_INTERCONNECT_FIELDS))

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Canonical JSON serialization (a fixed point of the round trip)."""
        payload: Dict[str, Any] = {
            "schema": HIERARCHY_SCHEMA,
            "levels": [
                {f.name: getattr(level, f.name)
                 for f in fields(LevelSpec)}
                for level in self.levels
            ],
            "tlb": {f.name: getattr(self.tlb, f.name)
                    for f in fields(TLBSpec)},
            "memory": {f.name: getattr(self.memory, f.name)
                       for f in fields(MemorySpec)},
            "interconnect": {f.name: getattr(self.interconnect, f.name)
                             for f in fields(InterconnectSpec)},
            "memory_speculative_launch": self.memory_speculative_launch,
            "parallel_port_penalty": self.parallel_port_penalty,
            "prefetch_inflight_window": self.prefetch_inflight_window,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "HierarchySpec":
        """Parse (and validate) a spec serialized by :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"hierarchy spec is not valid JSON: {exc}") \
                from None
        if not isinstance(payload, dict):
            raise ValueError("hierarchy spec must be a JSON object")
        schema = payload.get("schema")
        if schema != HIERARCHY_SCHEMA:
            raise ValueError(
                f"unsupported hierarchy spec schema {schema!r} "
                f"(expected {HIERARCHY_SCHEMA!r})")
        known = {"schema", "levels", "tlb", "memory", "interconnect",
                 "memory_speculative_launch", "parallel_port_penalty",
                 "prefetch_inflight_window"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown hierarchy spec field(s): "
                             f"{', '.join(sorted(unknown))}")
        raw_levels = payload.get("levels")
        if not isinstance(raw_levels, list) or not raw_levels:
            raise ValueError("hierarchy spec needs a non-empty "
                             "'levels' list")
        return HierarchySpec(
            levels=tuple(_parse_section(LevelSpec, entry,
                                        f"levels[{index}]")
                         for index, entry in enumerate(raw_levels)),
            tlb=_parse_section(TLBSpec, payload.get("tlb", {}), "tlb"),
            memory=_parse_section(MemorySpec, payload.get("memory", {}),
                                  "memory"),
            interconnect=_parse_section(
                InterconnectSpec, payload.get("interconnect", {}),
                "interconnect"),
            memory_speculative_launch=bool(
                payload.get("memory_speculative_launch", True)),
            parallel_port_penalty=float(
                payload.get("parallel_port_penalty", 2.0)),
            prefetch_inflight_window=int(
                payload.get("prefetch_inflight_window", 32)))

    def describe(self) -> str:
        """A one-line human summary (used by CLI/reporting)."""
        chain = " -> ".join(
            f"{level.name}:{level.size_bytes // 1024}KB"
            for level in self.levels)
        return f"{self.depth}-level [{chain}] + DRAM"


@functools.lru_cache(maxsize=None)
def _paper_spec(llc_size_bytes: int) -> HierarchySpec:
    """Specs are immutable, so each paper topology is built and validated
    once and shared by every configuration that uses it."""
    return HierarchySpec(levels=_paper_levels(llc_size_bytes))


def _parse_section(spec_type, data: Any, where: str):
    """Build one nested spec dataclass from its JSON object."""
    if not isinstance(data, dict):
        raise ValueError(f"hierarchy spec: {where} must be an object, "
                         f"got {data!r}")
    known = {f.name for f in fields(spec_type)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"hierarchy spec: unknown field(s) in {where}: "
                         f"{', '.join(sorted(unknown))}")
    try:
        return spec_type(**data)
    except TypeError as exc:
        raise ValueError(f"hierarchy spec: malformed {where}: {exc}") \
            from None


def load_hierarchy(path: Union[str, Path]) -> HierarchySpec:
    """Load (and validate) a hierarchy spec from a JSON file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read hierarchy spec {path}: {exc}") \
            from None
    try:
        return HierarchySpec.from_json(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def derive_llc(spec: HierarchySpec, **overrides) -> HierarchySpec:
    """A copy of ``spec`` with its LLC level replaced field-by-field.

    ``dataclasses.replace``-style derivation: every unnamed field is
    carried over from the existing LLC spec, so adding a field to
    :class:`LevelSpec` can never silently drop it from derived variants.
    """
    llc = replace(spec.levels[-1], **overrides)
    return replace(spec, levels=spec.levels[:-1] + (llc,))
