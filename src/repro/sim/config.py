"""System configurations (Table I) and the predictor registry.

A :class:`SystemConfig` bundles everything needed to build a simulated system:
the cache hierarchy geometry/latencies, the core microarchitecture, the
prefetch scheme and the level-prediction scheme.  The named constructors
reproduce the configurations used throughout the paper's evaluation, including
the sensitivity-study variants of Figure 15.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List

from ..cpu.ooo_core import CoreConfig
from ..memory.spec import HierarchySpec, derive_llc

#: Names of the systems compared in Figures 10-12 (plus the baseline).
PREDICTOR_NAMES: List[str] = [
    "baseline", "tage-2kb", "tage-8kb", "d2d", "lp", "ideal",
]

#: The prefetch schemes a system can run.
PREFETCH_SCHEMES = ("paper", "none")


@dataclass(frozen=True)
class SystemConfig:
    """Complete configuration of one simulated system.

    Attributes:
        name: Human-readable configuration name.
        hierarchy: Cache/DRAM/interconnect configuration (a declarative
            :class:`~repro.memory.spec.HierarchySpec` of any depth).
        core: Out-of-order core configuration.
        predictor: Which level-prediction scheme to attach; one of
            :data:`PREDICTOR_NAMES`.
        prefetch_scheme: ``paper`` for the baseline prefetchers of
            Section IV.A (tagged next-line at L1/L2, throttled DCPT at L3),
            ``none`` to disable prefetching; any other name is refused.
        num_cores: Cores sharing the LLC.
        metadata_cache_bytes: LP metadata cache capacity (Figure 5 sweep).
        prefetch_epoch_accesses: Epoch length of the accuracy-gated throttling.
    """

    name: str = "paper-single-core"
    hierarchy: HierarchySpec = field(
        default_factory=HierarchySpec.paper_single_core)
    core: CoreConfig = field(default_factory=CoreConfig.paper_baseline)
    predictor: str = "lp"
    prefetch_scheme: str = "paper"
    num_cores: int = 1
    metadata_cache_bytes: int = 2048
    prefetch_epoch_accesses: int = 50_000

    def __post_init__(self) -> None:
        if self.prefetch_scheme not in PREFETCH_SCHEMES:
            raise ValueError(f"unknown prefetch scheme "
                             f"{self.prefetch_scheme!r}; known: "
                             f"{', '.join(PREFETCH_SCHEMES)}")

    def with_predictor(self, predictor: str) -> "SystemConfig":
        """A copy of this configuration using a different predictor."""
        return replace(self, predictor=predictor,
                       name=f"{self.name}/{predictor}")

    # ------------------------------------------------------------------
    # Named configurations used by the paper
    # ------------------------------------------------------------------
    @staticmethod
    def paper_single_core(predictor: str = "lp") -> "SystemConfig":
        """Table I, single core, 2 MB LLC."""
        return SystemConfig(name="paper-single-core", predictor=predictor)

    @staticmethod
    def paper_multi_core(predictor: str = "lp",
                         num_cores: int = 4) -> "SystemConfig":
        """Table I, quad core, 8 MB shared LLC."""
        return SystemConfig(name="paper-multi-core",
                            hierarchy=HierarchySpec.paper_multi_core(),
                            predictor=predictor, num_cores=num_cores)

    @staticmethod
    def sensitivity_variants(predictor: str = "lp") -> Dict[str, "SystemConfig"]:
        """The five systems of the Figure 15 sensitivity study.

        1. the default configuration;
        2. a faster sequential LLC (45 cycles total);
        3. a parallel LLC (40 cycles flat);
        4. a parallel LLC plus a 96-entry LSQ;
        5. a very aggressive core (ROB 224, LSQ 96) plus a parallel LLC.
        """
        base = SystemConfig.paper_single_core(predictor)
        # derive_llc carries every LLC field not named here over from the
        # paper LLC (a sequential 20-cycle tag stage), so a new LevelSpec
        # field can never be silently dropped from the variants.  The
        # "parallel" LLC of the paper delivers hit data after 40 cycles
        # while still resolving hit/miss from the tag comparison after 20,
        # so it is modelled as tag=20 + data=20.
        fast_seq_llc = derive_llc(base.hierarchy, data_latency=25)
        parallel_llc = derive_llc(base.hierarchy, data_latency=20)
        variants = {
            "default": base,
            "fast-seq-llc": replace(base, name="fast-seq-llc",
                                    hierarchy=fast_seq_llc),
            "parallel-llc": replace(base, name="parallel-llc",
                                    hierarchy=parallel_llc),
            "parallel-llc-lsq96": replace(
                base, name="parallel-llc-lsq96",
                hierarchy=parallel_llc,
                core=CoreConfig(rob_entries=192, load_queue_entries=96)),
            "aggressive-core": replace(
                base, name="aggressive-core",
                hierarchy=parallel_llc,
                core=CoreConfig.aggressive(rob_entries=224,
                                           load_queue_entries=96)),
        }
        return variants


#: Prefetcher class names -> the Table I wording.
_PREFETCHER_WORDING = {
    "TaggedNextLinePrefetcher": "tagged next-line",
    "DCPTPrefetcher": "DCPT",
}


def _prefetcher_phrase(prefetcher) -> str:
    """Describe an instantiated prefetcher (unwrapping throttling)."""
    inner = getattr(prefetcher, "inner", prefetcher)
    kind = type(inner).__name__
    if kind == "NullPrefetcher":
        return "no prefetcher"
    wording = _PREFETCHER_WORDING.get(kind, kind)
    return f"{wording} prefetcher degree {inner.degree}"


#: Table I's DRAM capacity; the model has no channel capacity.
_TABLE1_DRAM_GB = 16
#: Table I's store queue; the core model bounds accesses by the load queue.
_TABLE1_SQ_ENTRIES = 32


def _size_phrase(size_bytes: int) -> str:
    if size_bytes >= 1024 * 1024 and size_bytes % (1024 * 1024) == 0:
        return f"{size_bytes // (1024 * 1024)} MB"
    return f"{size_bytes // 1024} KB"


def table1_description(config: "SystemConfig" = None) -> Dict[str, str]:
    """A textual rendering of Table I used by the configuration benchmark.

    Every line is derived from the configuration itself — the cache rows
    from the (N-level) hierarchy spec, the coherency row from the levels'
    positions (every level above the LLC is inclusive), the memory row
    from the DRAM geometry (its capacity is Table I's constant), the
    clock from the spec's memory (the store queue is Table I's) and the
    prefetcher phrases from the prefetchers the simulator would actually
    build — so the table stays truthful for any declarative hierarchy,
    not just the paper's three-level one.
    """
    from .system import _make_private_prefetchers, make_llc_prefetcher

    config = config or SystemConfig.paper_single_core()
    spec = config.hierarchy
    l1_pf, mid_pf = _make_private_prefetchers(config)
    llc_pf = make_llc_prefetcher(config)

    core = config.core
    table = {
        "Processor": (f"{config.num_cores}-core, "
                      f"{spec.memory.core_frequency_ghz:.1f} GHz, ROB "
                      f"{core.rob_entries}, LQ {core.load_queue_entries}, "
                      f"SQ {_TABLE1_SQ_ENTRIES}, fetch width "
                      f"{core.fetch_width}"),
    }
    last = len(spec.levels) - 1
    for index, level in enumerate(spec.levels):
        parts = [_size_phrase(level.size_bytes),
                 f"{level.associativity}-way"]
        if index == 0:
            parts.append(f"{level.block_size} B lines")
        if level.sequential_tag_data:
            parts.append(f"sequential "
                         f"({level.tag_latency}+{level.data_latency})")
        else:
            parts.append(f"{level.hit_latency} cycles")
        if index == 0:
            parts.append(_prefetcher_phrase(l1_pf))
        elif index == last:
            parts.append(_prefetcher_phrase(llc_pf))
        else:
            parts.append(_prefetcher_phrase(mid_pf))
        table[f"{level.name} Cache"] = ", ".join(parts)

    private = "/".join(level.name for level in spec.levels[:-1])
    table["Coherency"] = (f"MOESI directory; {private} inclusive, "
                          f"{spec.llc.name} non-inclusive")

    memory = spec.memory
    data_rate = round(memory.dram_frequency_mhz * 2)
    table["Main Memory"] = (
        f"{_TABLE1_DRAM_GB} GB DDR4-{data_rate} x64, "
        f"{'single channel' if memory.num_ranks == 1 else f'{memory.num_ranks} ranks'}")
    table["Level Predictor"] = (
        f"LocMap + PLD, {config.metadata_cache_bytes} B "
        "metadata cache, 1-cycle prediction latency")
    return table
