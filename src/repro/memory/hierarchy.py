"""N-level memory hierarchy with sequential and level-predicted lookup.

This is the central substrate of the reproduction: a functional model of the
paper's simulated system (Table I) — private L1 and L2, a shared non-inclusive
L3 with a collocated directory, a DDR4 channel, per-level prefetchers with
throttling, TLBs — plus the *level-predicted* lookup path that the paper adds
on the L1 miss path.

A :class:`CoreMemoryHierarchy` is built from a declarative
:class:`~repro.memory.spec.HierarchySpec`: an L1, any number of private
intermediate levels and a shared LLC.  One walker serves every depth.  The
L1 miss path (:meth:`~CoreMemoryHierarchy._locate`,
:meth:`~CoreMemoryHierarchy._serve`,
:meth:`~CoreMemoryHierarchy._fill_on_response`) traverses the private
intermediates in order, and the paper's three-level chain is simply the case
with one intermediate.  The level predictor's target space stays the
paper's — the whole private intermediate group is classified as
``Level.L2`` and the shared LLC as ``Level.L3`` — so predictors, statistics
and stored results keep their exact shapes at any depth.

The model is trace driven: :meth:`CoreMemoryHierarchy.run_buffer` services
a trace buffer and returns one load latency per access, which the
out-of-order core model (``repro.cpu``) converts into cycles and IPC;
:meth:`CoreMemoryHierarchy.access` services one memory reference and
returns an :class:`AccessResult` with its hit level, latency and whether it
mispredicted.

Walk and replay
===============

The level predictor changes where an L1 miss looks and when it starts; it
never changes which blocks end up at which level.  Every access is
therefore serviced in two stages:

* **The walk** (:meth:`CoreMemoryHierarchy.walk`) models everything that
  does not depend on the prediction — the TLBs, L1, locating the block,
  the private intermediates, the LLC, the directory, DRAM row state, fills
  and evictions, prefetcher training and issue, and the prefetch-budget
  window — and records a :class:`Walk`: per L1 miss the level that held
  the block, the holding intermediate, whether another core supplied it,
  the translation and the DRAM latency; per L1 hit that missed the
  first-level TLB its translation latency; plus, in their original
  order, the predictor notifications (``on_fill``/``on_eviction``) and
  the prediction-independent energy charges, each stream cut at every
  miss's predict point.  A walk keeps all of it the way
  :class:`~repro.trace.TraceBuffer` keeps a trace: one typed :mod:`array`
  column per field (the table in :class:`Walk`'s docstring), 63–125 bytes
  per default-scale access, and no Python object per access or per miss.
* **The replay** (:meth:`CoreMemoryHierarchy.replay`) reads slices of
  those columns and runs the predictor (``predict``/``train``/``on_hit``),
  the timed-path arithmetic, the prediction-dependent statistics and
  energy, and the recorded notifications and charges in their original
  positions, so every float sum adds the same terms in the same order
  whether the walk and the replay run together or apart.  It returns the
  range's load latencies as one list of floats: an L1 hit's is the L1 hit
  latency plus its translation latency, an L1 miss's its timed path.
  Which level served each access is the walk's alone
  (:meth:`CoreMemoryHierarchy.hit_levels`).

Because the walk is the same for every predictor, the six systems a figure
compares on one trace can share one walk: the engine
(:func:`~repro.sim.engine.execute_job`) looks the trace's walk up in its
:class:`~repro.sim.engine.TraceCache` and hands it to each system's
:meth:`CoreMemoryHierarchy.run_buffer`, which replays it instead of walking
the trace again.  Residency is
prediction-independent by construction — the walk never reads the
predictor — and the shared-versus-fresh property tests in
``tests/test_walk.py`` check the results bit for bit.  The only state that
differs between predictors is timing, energy, predictor state and the
per-level demand-probe counts of a level-predicted lookup, which the
model does not keep (the intermediates count the holder access only).

Timing model
============

For a block found at level ``A`` with prediction set ``P``:

* Levels closer than ``A`` that appear in ``P`` are looked up (energy + port
  pressure) but, because predicted levels are probed in parallel, they do not
  serialise the path unless the prediction *is* the sequential fallback.
* Levels closer than ``A`` that are *not* in ``P`` are skipped entirely: no tag
  energy, no added latency beyond the bus hop.
* Bypassing the private L2 when it actually holds the block is the *harmful*
  case: the collocated directory detects it during the LLC tag access and a
  recovery transaction re-issues the request to L2 (Section III.E).
* Predicting main memory launches the DRAM access as soon as the request
  reaches the LLC/directory (Figure 6(c)); the directory check overlaps with
  the DRAM access, so a correct MEM prediction hides the LLC tag latency.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

from ..energy.model import (BUS_TRANSFER_NJ, DIRECTORY_ACCESS_NJ,
                            DRAM_ACCESS_NJ, L1_ACCESS_NJ, L2_ACCESS_NJ,
                            LLC_DATA_ACCESS_NJ, LLC_TAG_ACCESS_NJ,
                            TLB_ACCESS_NJ, EnergyAccount)
from ..prefetch.base import NullPrefetcher, PrefetchAccess, Prefetcher
from .block import (
    AccessResult,
    AccessType,
    Level,
    MemoryAccess,
    block_address,
)
from .cache import Cache, EvictionInfo
from .directory import Directory
from .dram import DRAMModel
from .spec import HierarchySpec
from .tlb import TLBHierarchy

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from ..core.base import LevelPredictor, Prediction
    from ..trace import TraceBuffer

# Lazily bound references to repro.core.base types (a module-scope import
# would be circular: repro.core imports Level from this package).  Bound once
# by the first CoreMemoryHierarchy construction instead of re-importing on
# every access() call, which showed up in profiles.
_SequentialPredictor = None
_LevelPredictor = None
#: Per-level singletons of an oracle predictor's predictions (see
#: LevelPredictor.oracle).
_ORACLE_PREDICTIONS: Dict[Level, "Prediction"] = {}

#: Module-level bindings of the hot enum members (LOAD_GLOBAL is cheaper
#: than the two-step attribute chain in the per-access paths).
_LOAD = AccessType.LOAD
_STORE = AccessType.STORE
_PREFETCH = AccessType.PREFETCH
_WRITEBACK = AccessType.WRITEBACK
_L1 = Level.L1
_L2 = Level.L2
_L3 = Level.L3
_MEM = Level.MEM
#: The sequential fallback an empty prediction stands for (see _path).
_SEQUENTIAL = (Level.L2,)

#: Values a :class:`Walk` marks at every access boundary (see Walk.marks).
_MARK_FIELDS = 7

#: (name, typecode) of a :class:`Walk`'s per-miss columns, in the order
#: :meth:`CoreMemoryHierarchy.replay` reads them.
_MISS_COLUMNS = (("index", "I"), ("block", "Q"), ("pc", "Q"), ("where", "B"),
                 ("translation", "d"), ("dram_latency", "d"), ("hier_at", "I"),
                 ("dram_at", "I"), ("notes_at", "I"))
#: (name, typecode) of every :class:`Walk` column.
_WALK_COLUMNS = (_MISS_COLUMNS
                 + (("hit_index", "I"), ("hit_translation", "d"),
                    ("hier", "d"), ("note_code", "B"),
                    ("note_block", "Q"), ("marks", "I")))
#: Where an L1 miss found its block, as a walk's ``where`` column codes
#: it: the LLC, another core's private cache (through the directory; an
#: LLC-level hit for prediction), memory, or — from _WHERE_L2 on, plus the
#: intermediate's index — a private intermediate (Level.L2).
_WHERE_L3, _WHERE_REMOTE, _WHERE_MEM, _WHERE_L2 = range(4)

#: Predictor notifications, as a walk records them: a code (an index
#: into _NOTE_CALLS) and the block.
_FILL_L2, _FILL_L3, _PREFETCH_L2, _PREFETCH_L3, _EVICT_L2, _EVICT_L2_DIRTY, \
    _EVICT_L3, _EVICT_L3_DIRTY = range(8)
#: Per code: (is a fill, level, third argument) — ``on_fill(block, level,
#: from_prefetch)`` or ``on_eviction(block, level, dirty)``.
_NOTE_CALLS = ((True, Level.L2, False), (True, Level.L3, False),
               (True, Level.L2, True), (True, Level.L3, True),
               (False, Level.L2, False), (False, Level.L2, True),
               (False, Level.L3, False), (False, Level.L3, True))


def _bind_core_types() -> None:
    global _SequentialPredictor, _LevelPredictor
    if _LevelPredictor is None:
        from ..core.base import LevelPredictor, Prediction, SequentialPredictor

        _SequentialPredictor = SequentialPredictor
        _LevelPredictor = LevelPredictor
        for level in (Level.L2, Level.L3, Level.MEM):
            _ORACLE_PREDICTIONS[level] = Prediction(levels=(level,),
                                                    source="oracle")


@dataclass(slots=True)
class HierarchyStats:
    """Per-core counters for latency, misses and prediction behaviour."""

    demand_accesses: int = 0
    loads: int = 0
    stores: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    l3_hits: int = 0
    memory_accesses: int = 0
    remote_cache_hits: int = 0
    total_demand_latency: float = 0.0
    miss_latency: float = 0.0
    predictions: int = 0
    recoveries: int = 0
    parallel_cache_probes: int = 0
    speculative_dram_launches: int = 0
    cancelled_dram_launches: int = 0
    prefetches_issued: int = 0
    prefetches_dropped_mshr: int = 0

    @property
    def l1_misses(self) -> int:
        return self.demand_accesses - self.l1_hits

    @property
    def l2_misses(self) -> int:
        """Demand accesses that missed both L1 and L2."""
        return self.l1_misses - self.l2_hits

    @property
    def l3_misses(self) -> int:
        return self.memory_accesses

    @property
    def average_memory_access_latency(self) -> float:
        if not self.demand_accesses:
            return 0.0
        return self.total_demand_latency / self.demand_accesses

    def reset(self) -> None:
        for name, f in self.__dataclass_fields__.items():
            setattr(self, name, 0.0 if isinstance(f.default, float) else 0)


class Walk:
    """What a run of accesses did in one core's hierarchy, independent of
    the level prediction (the output of :meth:`CoreMemoryHierarchy.walk`).

    A walk is a set of typed :mod:`array` columns, one per field, that
    only grow while the walk is recorded:

    ===================  ========  ========================================
    column               typecode  one value per ... : meaning
    ===================  ========  ========================================
    ``index``            ``I``     L1 miss: the access's position in the
                                   walk
    ``block``            ``Q``     L1 miss: the block address
    ``pc``               ``Q``     L1 miss: the issuing instruction's PC
    ``where``            ``B``     L1 miss: where the block was — 0 the
                                   LLC, 1 another core's private cache,
                                   2 memory, 3 + *i* private intermediate
                                   *i*
    ``translation``      ``d``     L1 miss: its translation latency
    ``dram_latency``     ``d``     L1 miss: the DRAM access's latency (0
                                   unless the block was in memory)
    ``hier_at``          ``I``     L1 miss: the ``hier`` length, the
    ``dram_at``                    DRAM charge count and the ``note_code``
    ``notes_at``                   length at its predict point
    ``hit_index``        ``I``     L1 hit whose translation latency is not
                                   0 (it missed the first-level TLB): its
                                   position in the walk
    ``hit_translation``  ``d``     that L1 hit: its translation latency
    ``hier``             ``d``     ``"hierarchy"`` energy charge, in order
    ``note_code``        ``B``     predictor notification: an index into
                                   ``_NOTE_CALLS`` naming
                                   ``on_fill(block, level, from_prefetch)``
                                   or ``on_eviction(block, level, dirty)``
    ``note_block``       ``Q``     predictor notification: its block
    ``marks``            ``I``     access boundary (one more than there
                                   are accesses), seven values: the
                                   ``hier`` length, the DRAM charge count,
                                   the ``note_code`` and ``index`` lengths
                                   and the running load, prefetch-issued
                                   and prefetch-dropped counts
    ===================  ========  ========================================

    Every ``"dram"`` energy charge of a walk is one DRAM access at
    ``DRAM_ACCESS_NJ``, so the walk keeps only their running count
    (``dram_charges``) and the replay adds the constant once per charge,
    in the same order.

    The marks let any contiguous range replay on its own.  An L1 hit's
    result depends on its translation latency alone, which is 0 (a
    first-level TLB hit) for all but a few hits, so only those few are
    recorded and the replay rebuilds every hit's result.  A finished walk
    (sealed by its final mark) is never modified, so any number of
    replays (and threads) may read it at once, and it pickles as its
    packed bytes.
    """

    __slots__ = tuple(name for name, _ in _WALK_COLUMNS) \
        + ("loads", "issued", "dropped", "dram_charges")

    def __init__(self) -> None:
        for name, typecode in _WALK_COLUMNS:
            setattr(self, name, array(typecode))
        self.loads = 0
        self.issued = 0
        self.dropped = 0
        self.dram_charges = 0

    def __len__(self) -> int:
        """Accesses walked (a sealed walk marks one boundary more)."""
        return len(self.marks) // _MARK_FIELDS - 1

    def mark(self) -> None:
        """Record the stream positions at the current access boundary."""
        self.marks.extend((len(self.hier), self.dram_charges,
                           len(self.note_code), len(self.index), self.loads,
                           self.issued, self.dropped))


class SharedMemorySystem:
    """Resources shared by every core: the LLC, directory, DRAM and the
    LLC prefetcher."""

    def __init__(self, config: HierarchySpec, num_cores: int = 1,
                 llc_prefetcher: Optional[Prefetcher] = None) -> None:
        self.config = config
        self.num_cores = num_cores
        self.l3 = Cache(config.levels[-1])
        self.dram = DRAMModel(config.memory)
        self.directory = Directory(num_cores=num_cores)
        self.llc_prefetcher = llc_prefetcher or NullPrefetcher()

    def l3_eviction_to_memory(self, eviction: EvictionInfo) -> bool:
        """Handle an LLC eviction: dirty lines are written back to DRAM.

        Returns whether a writeback happened (the evicting core charges
        its DRAM energy)."""
        if eviction.prefetched_unused:
            self.llc_prefetcher.record_useless()
        if not eviction.dirty:
            return False
        self.dram.access(eviction.block_addr)
        return True


class CoreMemoryHierarchy:
    """The per-core view of the memory system (private levels + shared LLC).

    Args:
        config: The :class:`~repro.memory.spec.HierarchySpec` to build, of
            any depth ≥ 2 (default: the paper's single-core Table I chain).
        shared: The shared LLC/directory/DRAM; construct one
            :class:`SharedMemorySystem` (from the same spec) and pass it
            to every core.
        predictor: The level predictor on the L1 miss path.  Defaults to the
            :class:`SequentialPredictor`, which reproduces the baseline.
        l1_prefetcher / l2_prefetcher: Prefetchers attached to the private
            levels (tagged next-line in the paper's baseline).  The L2
            prefetcher trains for the first private intermediate; deeper
            intermediates carry no prefetcher.
        core_id: This core's index in the directory.
    """

    __slots__ = (
        "config", "shared", "predictor", "l1", "l2", "tlb",
        "l1_prefetcher", "l2_prefetcher", "energy", "stats",
        "core_id", "_block_size", "_block_mask",
        "_page_shift", "_l1_page_size",
        "_intermediates", "_probe_order", "_fill_order", "_above",
        "_deepest", "_bypass_hops",
        "_chain_hit_latency", "_chain_miss_detect", "_chain_nj",
        "_l1_hit_latency", "_l1_miss_detect", "_l3_hit_latency",
        "_l3_tag_latency",
        "_port_penalty", "_memory_speculative",
        "_ic_l1_l2", "_ic_l2_llc", "_ic_llc_mem", "_ic_recovery",
        "_ic_cache_to_cache",
        "_l1_nj", "_tlb_l1_nj", "_l3_nj", "_l3_tag_nj",
        "_l3_wb_nj",
        "_dram_nj", "_bus_nj", "_directory_nj", "_prefetch_budget",
        "_pf_access",
        "_recent_prefetches", "_recent_prefetch_count",
        "_prefetches_this_access",
        "_recording", "_hier_add", "_note_code",
        "_note_block",
        "_outcomes", "_paths",
    )

    def __init__(
        self,
        config: Optional[HierarchySpec] = None,
        shared: Optional[SharedMemorySystem] = None,
        predictor: Optional[LevelPredictor] = None,
        l1_prefetcher: Optional[Prefetcher] = None,
        l2_prefetcher: Optional[Prefetcher] = None,
        core_id: int = 0,
        active_cores: int = 1,
    ) -> None:
        if _LevelPredictor is None:
            _bind_core_types()
        self.config = spec = config or HierarchySpec.paper_single_core()
        self.shared = shared or SharedMemorySystem(spec, num_cores=1)
        self.predictor = predictor or _SequentialPredictor()
        self.tlb = TLBHierarchy(spec.tlb)
        levels = spec.levels
        l1_spec, inter_specs, llc_spec = levels[0], levels[1:-1], levels[-1]
        # The LLC is the shared cache; time it from the shared cache's spec.
        shared_llc = self.shared.l3.spec
        self.l1 = Cache(l1_spec, name=f"{l1_spec.name}.{core_id}")
        intermediates = tuple([
            Cache(level, name=f"{level.name}.{core_id}")
            for level in inter_specs])
        self._intermediates = intermediates
        # Compat alias: the first private intermediate (the paper's L2), or
        # None in a 2-level hierarchy.
        self.l2 = intermediates[0] if intermediates else None
        # The walker's traversal orders, fixed per instance so the miss
        # path never computes a length or a range: probes run L1-side
        # first, fills deepest-first, and ``_above[i]`` lists the
        # intermediates closer to L1 than ``i`` (deepest-first) — the
        # levels a hit at ``i`` also fills and an eviction at ``i``
        # invalidates.
        probe_order = tuple(enumerate(intermediates))
        self._probe_order = probe_order
        self._fill_order = probe_order[::-1]
        self._above = tuple([probe_order[:index][::-1]
                             for index, _ in probe_order])
        self._deepest = len(intermediates) - 1
        # Extra private-bus hops a bypassed request crosses on its way to
        # the LLC: one per intermediate beyond the first.
        self._bypass_hops = intermediates[1:]
        self.l1_prefetcher = l1_prefetcher or NullPrefetcher()
        self.l2_prefetcher = l2_prefetcher or NullPrefetcher()
        self.energy = EnergyAccount()
        self.stats = HierarchyStats()
        self.core_id = core_id
        self._block_size = l1_spec.block_size
        # Hot-path precomputation: block mask (power-of-two line sizes),
        # per-level latencies as floats and per-structure energies, so
        # access() performs no repeated config/dataclass attribute chains.
        bs = self._block_size
        self._block_mask = ~(bs - 1) if (bs & (bs - 1)) == 0 else None
        # Page decomposition parameters of the first-level TLB, so access()
        # and the columnar replay path compute identical page numbers.
        self._l1_page_size = self.tlb.l1.page_size
        self._page_shift = self.tlb.l1._page_shift
        self._l1_hit_latency = float(l1_spec.hit_latency)
        self._l1_miss_detect = float(l1_spec.tag_latency)
        self._chain_hit_latency = tuple([float(level.hit_latency)
                                         for level in inter_specs])
        self._chain_miss_detect = tuple([float(level.tag_latency)
                                         for level in inter_specs])
        self._l3_hit_latency = float(shared_llc.hit_latency)
        self._l3_tag_latency = float(shared_llc.tag_latency)
        self._port_penalty = spec.parallel_port_penalty
        self._memory_speculative = spec.memory_speculative_launch
        # Bus hop latencies are constant per instance.  Every hop into a
        # shared resource (the LLC, memory, a recovery or a cache-to-cache
        # forward) also pays the contention of each active core beyond the
        # first, a stand-in for LLC queueing and bus arbitration.
        ic_spec = spec.interconnect
        contention = (max(1, active_cores) - 1) \
            * ic_spec.contention_per_extra_core
        self._ic_l1_l2 = float(ic_spec.l1_to_l2)
        self._ic_l2_llc = ic_spec.l2_to_llc + contention
        self._ic_llc_mem = ic_spec.llc_to_memory + contention
        self._ic_recovery = ic_spec.recovery_transaction + contention
        self._ic_cache_to_cache = ic_spec.l2_to_llc + ic_spec.l1_to_l2 \
            + contention
        # Spec-level read_energy_nj overrides replace the role-based default
        # for the full per-access energy of that level (for the LLC it also
        # stands in for the tag-only probe — a documented simplification);
        # write_energy_nj prices the dirty-writeback deposit into the LLC.
        l1_read = l1_spec.read_energy_nj
        self._l1_nj = L1_ACCESS_NJ if l1_read is None else l1_read
        self._tlb_l1_nj = TLB_ACCESS_NJ + self._l1_nj
        self._chain_nj = tuple([
            L2_ACCESS_NJ if level.read_energy_nj is None
            else level.read_energy_nj
            for level in inter_specs])
        llc_read = llc_spec.read_energy_nj
        if llc_read is None:
            self._l3_nj = LLC_TAG_ACCESS_NJ + LLC_DATA_ACCESS_NJ
            self._l3_tag_nj = LLC_TAG_ACCESS_NJ
        else:
            self._l3_nj = llc_read
            self._l3_tag_nj = llc_read
        llc_write = llc_spec.write_energy_nj
        self._l3_wb_nj = self._l3_nj if llc_write is None else llc_write
        self._dram_nj = DRAM_ACCESS_NJ
        self._bus_nj = BUS_TRANSFER_NJ
        self._directory_nj = DIRECTORY_ACCESS_NJ
        # The walker and the replay add these straight into the energy
        # account's categories, not through EnergyAccount.charge: none can
        # be negative, since LevelSpec rejects a negative override.
        budget = inter_specs[-1] if inter_specs else l1_spec
        self._prefetch_budget = (1.0 - budget.mshr_demand_reserve) \
            * budget.mshr_entries
        # One mutable PrefetchAccess record reused for every prefetcher
        # observation; no prefetcher retains the record past _generate().
        self._pf_access = PrefetchAccess(0, 0, False, True)
        # Prefetches issued per recent demand access, used to bound the
        # prefetch issue rate to the non-reserved MSHR share.
        self._recent_prefetches: Deque[int] = deque(
            maxlen=spec.prefetch_inflight_window)
        self._recent_prefetch_count = 0
        self._prefetches_this_access = 0
        # The Walk being recorded and its bound appenders (see _record).
        self._recording: Optional[Walk] = None
        self._hier_add = None
        self._note_code = self._note_block = None
        # Per walk ``where`` code, the outcome it names: (level, holder,
        # remote).
        self._outcomes = ((_L3, -1, False), (_L3, -1, True),
                          (_MEM, -1, False)) + tuple([
                              (_L2, index, False) for index, _ in probe_order])
        # Replay memo: one timed-path shape per (predicted levels, where)
        # outcome.
        self._paths: Dict[tuple, tuple] = {}

    # ==================================================================
    # Public API
    # ==================================================================
    def access(self, access: MemoryAccess) -> AccessResult:
        """Service one demand :class:`MemoryAccess` record and return its
        outcome: a one-access walk on this hierarchy's own caches, then
        its replay — the same two stages :meth:`run_buffer` runs, so
        servicing a buffer's rows one by one gives bit-identical results.
        The access mispredicted if its replay ran a recovery.
        """
        atype = access.access_type
        if atype is not _LOAD and atype is not _STORE:
            raise ValueError("access() only services demand loads and stores")
        address = access.address
        mask = self._block_mask
        block = (address & mask) if mask is not None \
            else block_address(address, self._block_size)
        shift = self._page_shift
        page = (address >> shift) if shift >= 0 \
            else address // self._l1_page_size
        walk = self._walk_columns(((address,), (block,), (page,),
                                   (atype is _STORE,), (access.pc,)))
        recoveries = self.stats.recoveries
        latency, = self.replay(walk, 0, 1)
        level, = self.hit_levels(walk)
        return AccessResult(level, latency,
                            self.stats.recoveries != recoveries)

    # Read by perfbench until ROADMAP item 6 (its ``hierarchy.run_buffer``
    # span).
    def run_buffer(self, buffer: "TraceBuffer",
                   walk: Optional[Walk] = None) -> List[float]:
        """Service a whole columnar trace buffer: its walk, then the replay.

        Given ``walk`` — a walk of the buffer's root trace, made elsewhere —
        this replays the buffer's rows of it (``buffer.origin`` names where
        they start) and walks nothing; otherwise it walks the buffer on
        this hierarchy's own caches (:meth:`walk`) first.  Returns the
        per-access load latencies the core model consumes.

        Raises:
            ValueError: if the buffer contains non-demand records, or runs
                past the end of ``walk``.
        """
        if walk is None:
            walk = self.walk(buffer)
            return self.replay(walk, 0, len(walk))
        _, offset = buffer.origin
        stop = offset + len(buffer)
        if stop > len(walk):
            raise ValueError(
                f"a {len(buffer)}-access buffer at row {offset} runs past "
                f"the end of a {len(walk)}-access walk")
        return self.replay(walk, offset, stop)

    def walk(self, buffer: "TraceBuffer") -> Walk:
        """Walk a whole buffer through this hierarchy's own caches (stage
        one) and return the record its replays need."""
        return self._walk_columns(buffer.replay_columns(self._block_size,
                                                        self._l1_page_size))

    def hit_levels(self, walk: Walk) -> List[Level]:
        """The level that served each access of ``walk``, in order: L1
        for an L1 hit, otherwise the level its ``where`` code names (a
        private intermediate is ``Level.L2``, another core's private
        cache ``Level.L3``)."""
        levels = [_L1] * len(walk)
        outcomes = self._outcomes
        for index, where in zip(walk.index, walk.where):
            levels[index] = outcomes[where][0]
        return levels

    # ==================================================================
    # Stage one: the walk
    # ==================================================================
    def _walk_columns(self, columns: Sequence[Sequence]) -> Walk:
        """Walk ``(addresses, blocks, pages, is_store, pcs)`` columns on
        this hierarchy's own caches."""
        walk = Walk()
        self._record(walk)
        step = self._step
        load, store = _LOAD, _STORE
        for address, block, page, stored, pc in zip(*columns):
            step(address, block, page, store if stored else load, pc)
        self._seal()
        return walk

    def _record(self, walk: Walk) -> None:
        """Start recording this hierarchy's walk into ``walk``."""
        self._recording = walk
        self._hier_add = walk.hier.append
        self._note_code = walk.note_code.append
        self._note_block = walk.note_block.append

    def _seal(self) -> None:
        """Close the walk being recorded (its final boundary mark)."""
        self._recording.mark()
        self._recording = None
        self._hier_add = None
        self._note_code = self._note_block = None

    def _step(self, address: int, block: int, page: int,
              atype: AccessType, pc: int) -> None:
        """Walk one demand access (stage one of :meth:`access`).

        Args:
            address: Full byte address.
            block: Block-aligned address (``address`` masked to the line).
            page: Page number under the first-level TLB's page size.
            atype: ``AccessType.LOAD`` or ``AccessType.STORE`` (validated
                by :meth:`access` and the buffer's replay columns).
            pc: Program counter of the issuing instruction.
        """
        walk = self._recording
        walk.mark()
        is_load = atype is _LOAD
        if is_load:
            walk.loads += 1
        translation_latency = self.tlb.translate_latency_page(page, address)

        # L1 lookup (the level predictor never targets L1).
        l1_hit, l1_was_prefetched = self.l1.access_block(block, atype)
        self._hier_add(self._tlb_l1_nj)
        self._train_prefetcher(self.l1_prefetcher, _L1, address, pc,
                               is_load, l1_hit)

        # The prefetch-budget window (see _issue_prefetch).
        recent = self._recent_prefetches
        prefetches = self._prefetches_this_access
        if len(recent) == recent.maxlen:
            self._recent_prefetch_count -= recent[0]
        recent.append(prefetches)
        if prefetches:
            self._recent_prefetch_count += prefetches
            self._prefetches_this_access = 0

        if l1_hit:
            if l1_was_prefetched:
                self.l1_prefetcher.record_useful()
            if translation_latency:
                walk.hit_index.append(len(walk.marks) // _MARK_FIELDS - 1)
                walk.hit_translation.append(translation_latency)
            return

        # L1 miss: the predict point, then the prediction-independent rest.
        actual, holder, where = self._locate(block)
        hier_at, dram_at = len(walk.hier), walk.dram_charges
        notes_at = len(walk.note_code)
        dram_latency = self._serve(address, block, atype, pc, actual, holder)
        self._fill_on_response(block, atype, actual, holder)
        walk.index.append(len(walk.marks) // _MARK_FIELDS - 1)
        walk.block.append(block)
        walk.pc.append(pc)
        walk.where.append(where)
        walk.translation.append(translation_latency)
        walk.dram_latency.append(dram_latency)
        walk.hier_at.append(hier_at)
        walk.dram_at.append(dram_at)
        walk.notes_at.append(notes_at)

    def _locate(self, block: int) -> Tuple[Level, int, int]:
        """Find where the block currently resides (after the L1 miss).

        Returns ``(level, holder, where)``: ``holder`` is the index of the
        private intermediate that holds the block (``-1`` unless ``level``
        is the private group ``Level.L2``), and ``where`` is the walk's
        code for the outcome (see ``_WHERE_L3``).
        """
        for index, cache in self._probe_order:
            if cache.contains_block(block):
                return _L2, index, _WHERE_L2 + index
        if self.shared.l3.contains_block(block):
            return _L3, -1, _WHERE_L3
        if self.shared.directory.remote_holder(block, self.core_id) \
                is not None:
            # Supplied by another core's private cache through the directory;
            # classified as an LLC-level hit for prediction purposes.
            return _L3, -1, _WHERE_REMOTE
        return _MEM, -1, _WHERE_MEM

    def _serve(self, address: int, block: int, atype: AccessType, pc: int,
               actual: Level, holder: int):
        """The prediction-independent part of an L1 miss's path: the
        access at the level that holds the block, the L2 and LLC
        prefetchers' training on it, and the DRAM access of a block in
        memory (whose latency it returns; 0 otherwise).

        A private-level hit trains the L2 prefetcher as a hit whether the
        predictor probed the group or recovery re-issued the request
        there.  An access that reaches the LLC missed the private levels:
        the L2 prefetcher trains on it as a miss, the LLC prefetcher on
        the LLC outcome.  A demand hit on a prefetched line counts as
        useful for the prefetcher that brought it in: the L2 prefetcher's
        at the first intermediate (the level it fills for), the LLC
        prefetcher's at the LLC.
        """
        is_load = atype is _LOAD
        if actual is _L2:
            _, was_prefetched = self._intermediates[holder].access_block(
                block, atype)
            if was_prefetched and holder == 0:
                self.l2_prefetcher.record_useful()
            self._train_prefetcher(self.l2_prefetcher, _L2, address, pc,
                                   is_load, True)
            return 0.0
        shared = self.shared
        _, was_prefetched = shared.l3.access_block(block, atype)
        if was_prefetched:
            shared.llc_prefetcher.record_useful()
        self._train_prefetcher(self.l2_prefetcher, _L2, address, pc,
                               is_load, False)
        if actual is _L3:
            self._train_prefetcher(shared.llc_prefetcher, _L3, address, pc,
                                   is_load, True)
            return 0.0
        self._train_prefetcher(shared.llc_prefetcher, _L3, address, pc,
                               is_load, False)
        dram_latency = shared.dram.access(address)
        self._recording.dram_charges += 1
        return dram_latency

    # ------------------------------------------------------------------
    # Data movement (fills, evictions, writebacks)
    # ------------------------------------------------------------------
    def _fill_on_response(self, block: int, atype: AccessType,
                          actual: Level, holder: int) -> None:
        """Move the block up the hierarchy after the response returns.

        Fills propagate deepest-first through every private intermediate
        (each is inclusive of the levels above it), then into L1.  In a
        2-level hierarchy L1 *is* the deepest private level, so the
        directory tracks L1 fills directly and the private-group
        (``Level.L2``) predictor notifications are skipped — the group is
        empty.
        """
        dirty = atype is _STORE
        note_code, note_block = self._note_code, self._note_block

        if actual is _MEM:
            # Memory fills also populate the (non-inclusive) LLC.
            l3_eviction = self.shared.l3.fill_block(block, atype)
            if l3_eviction is not None:
                self._handle_l3_eviction(l3_eviction)
            note_code(_FILL_L3)
            note_block(block)

        if actual is _MEM or actual is _L3:
            fill_order = self._fill_order
            if fill_order:
                for index, cache in fill_order:
                    eviction = cache.fill_block(block, atype, dirty)
                    if eviction is not None:
                        self._handle_intermediate_eviction(eviction, index)
                note_code(_FILL_L2)
                note_block(block)
            self.shared.directory.record_private_fill(block, self.core_id)
        elif actual is _L2:
            # The L1 fill from the holder is a demand fill observed on the
            # private bus, so the predictor's location metadata is refreshed
            # with the truth (this is what repairs stale LocMap entries left
            # by unrecorded prefetch fills).
            note_code(_FILL_L2)
            note_block(block)
            if dirty:
                self._intermediates[holder].mark_dirty(block)
            # Inclusion upward: levels between the holder and L1 also fill.
            for index, cache in self._above[holder]:
                eviction = cache.fill_block(block, atype, dirty)
                if eviction is not None:
                    self._handle_intermediate_eviction(eviction, index)

        l1_eviction = self.l1.fill_block(block, atype, dirty)
        if l1_eviction is not None:
            self._handle_l1_eviction(l1_eviction)

    def _handle_l1_eviction(self, eviction: EvictionInfo) -> None:
        if eviction.prefetched_unused:
            self.l1_prefetcher.record_useless()
        intermediates = self._intermediates
        if intermediates:
            if eviction.dirty:
                # The next private level is inclusive of L1: merge.
                intermediates[0].mark_dirty(eviction.block_addr)
            return
        # 2-level hierarchy: L1 is the deepest private level — the
        # directory tracked this block, and dirty victims write back
        # straight into the (non-inclusive) LLC.  The predictor hears of
        # the move through the note a deeper chain's last private level
        # records (_handle_intermediate_eviction), before the LLC fill.
        block_addr = eviction.block_addr
        self.shared.directory.record_private_eviction(block_addr,
                                                      self.core_id)
        if eviction.dirty:
            self._note_code(_EVICT_L2_DIRTY)
            self._note_block(block_addr)
            l3_eviction = self.shared.l3.fill_block(block_addr,
                                                    _WRITEBACK, True)
            self._hier_add(self._l3_wb_nj)
            self._handle_l3_eviction(l3_eviction)

    def _handle_intermediate_eviction(self, eviction: EvictionInfo,
                                      index: int) -> None:
        """Eviction from the private intermediate at ``index``."""
        if eviction.prefetched_unused and index == 0:
            self.l2_prefetcher.record_useless()
        block_addr = eviction.block_addr
        # Inclusion: a block leaving this level leaves every closer level.
        self.l1.invalidate(block_addr)
        for _, cache in self._above[index]:
            cache.invalidate(block_addr)
        if index == self._deepest:
            # Leaving the deepest private level: the block leaves this
            # core's private group entirely.
            self.shared.directory.record_private_eviction(block_addr,
                                                          self.core_id)
            self._note_code(_EVICT_L2_DIRTY if eviction.dirty
                            else _EVICT_L2)
            self._note_block(block_addr)
            if eviction.dirty:
                # Dirty victims are written back into the non-inclusive LLC.
                l3_eviction = self.shared.l3.fill_block(block_addr,
                                                        _WRITEBACK, True)
                self._hier_add(self._l3_wb_nj)
                self._handle_l3_eviction(l3_eviction)
        elif eviction.dirty:
            # Dirty victims merge into the next-deeper private level.
            self._intermediates[index + 1].mark_dirty(block_addr)

    def _handle_l3_eviction(self, eviction: Optional[EvictionInfo]) -> None:
        if eviction is None:
            return
        if self.shared.l3_eviction_to_memory(eviction):
            self._recording.dram_charges += 1
        self._note_code(_EVICT_L3_DIRTY if eviction.dirty else _EVICT_L3)
        self._note_block(eviction.block_addr)

    # ------------------------------------------------------------------
    # Prefetching
    # ------------------------------------------------------------------
    def _train_prefetcher(self, prefetcher: Prefetcher, level: Level,
                          address: int, pc: int, is_load: bool,
                          hit: bool) -> None:
        """Feed one access to ``prefetcher`` and issue its candidates at
        ``level``.

        The shared PrefetchAccess record is filled in place.  Each
        candidate then meets the MSHR budget gate (described at
        :meth:`_issue_prefetch`) here, so a dropped prefetch is counted
        without a call; the gate is re-checked per candidate because each
        issued prefetch uses budget.
        """
        record = self._pf_access
        record.address = address
        record.pc = pc
        record.hit = hit
        record.is_load = is_load
        for candidate in prefetcher.observe(record):
            if (self._recent_prefetch_count + self._prefetches_this_access
                    >= self._prefetch_budget):
                self._recording.dropped += 1
            else:
                self._issue_prefetch(candidate, level)

    def _issue_prefetch(self, address: int, level: Level) -> None:
        """Install a prefetched block at ``level`` (and maintain inclusion).

        The caller, :meth:`_train_prefetcher`, checks the MSHR budget before
        each call and counts a dropped prefetch itself.  The budget
        approximates the 25 %-MSHR-reservation throttle
        (Section IV.A): the functional model retires each access before the
        next begins, so true MSHR occupancy is not observable; instead the
        prefetch *issue rate* over the last ``prefetch_inflight_window``
        demand accesses (tracked by the window bookkeeping in
        :meth:`_step`) is bounded by the non-reserved share of the MSHR
        entries of the deepest private level — the behaviour the
        reservation produces under load.

        A private-level prefetch keeps inclusion by filling every private
        intermediate deepest-first; an L1-targeted prefetch additionally
        fills L1.  In a 2-level hierarchy both private targets collapse to
        an L1 install (L1 is the only private level), recorded with the
        directory.
        """
        mask = self._block_mask
        block = (address & mask) if mask is not None \
            else block_address(address, self._block_size)
        self._recording.issued += 1
        self._prefetches_this_access += 1
        if level is _L3:
            installed, l3_eviction = self.shared.l3.prefetch_install(block)
            if not installed:
                return
            if l3_eviction is not None:
                self._handle_l3_eviction(l3_eviction)
            self._note_code(_PREFETCH_L3)
            self._note_block(block)
            self._hier_add(self._l3_nj)
            return
        intermediates = self._intermediates
        target_l1 = level is _L1 or not intermediates
        if target_l1:
            if self.l1.contains_block(block):
                return
        elif intermediates[0].contains_block(block):
            return
        for index, cache in self._fill_order:
            eviction = cache.fill_block(block, _PREFETCH)
            if eviction is not None:
                self._handle_intermediate_eviction(eviction, index)
        if target_l1:
            l1_eviction = self.l1.fill_block(block, _PREFETCH)
            if l1_eviction is not None:
                self._handle_l1_eviction(l1_eviction)
        if intermediates:
            self._note_code(_PREFETCH_L2)
            self._note_block(block)
        self.shared.directory.record_private_fill(block, self.core_id)
        self._hier_add(self._l1_nj if target_l1 else self._chain_nj[0])

    # ==================================================================
    # Stage two: the replay
    # ==================================================================
    def replay(self, walk: Walk, start: int, stop: int) -> List[float]:
        """Replay accesses ``[start, stop)`` of ``walk`` through this
        hierarchy's predictor, timing, statistics and energy (stage two),
        and return their load latencies.

        The accesses before ``start`` must have been replayed by this
        hierarchy already (the warm-up split replays ``[0, w)``, resets
        the statistics, then replays ``[w, n)``).
        """
        count = stop - start
        if not count:
            return []
        # Every access's L1-hit latency; the few hits that missed the
        # first-level TLB add their translation, and the range's misses
        # overwrite their slots below.
        l1_hit = self._l1_hit_latency
        latencies = [l1_hit] * count
        hit_index = walk.hit_index
        at = bisect_left(hit_index, start)
        end = bisect_left(hit_index, stop, at)
        for index, translation_latency in zip(hit_index[at:end],
                                              walk.hit_translation[at:end]):
            latencies[index - start] = l1_hit + translation_latency
        marks = walk.marks
        at = start * _MARK_FIELDS
        hier_at, dram_at, notes_at, first, loads, issued, dropped = \
            marks[at:at + _MARK_FIELDS]
        at = stop * _MARK_FIELDS
        hier_end, dram_end, notes_end, last, loads_end, issued_end, \
            dropped_end = marks[at:at + _MARK_FIELDS]

        stats = self.stats
        energy = self.energy.by_category
        # The first access of any range charges "hierarchy" first, so the
        # category is created here and accumulated locally.
        hierarchy = energy.get("hierarchy", 0.0)
        energy["hierarchy"] = hierarchy
        hier = walk.hier
        dram_nj = self._dram_nj
        predictor = self.predictor
        predictor_type = type(predictor)
        # Per notification code, the predictor call and its two arguments;
        # none when the predictor keeps the interface's no-op handlers.
        calls = None
        if (predictor_type.on_fill is not _LevelPredictor.on_fill
                or predictor_type.on_eviction
                is not _LevelPredictor.on_eviction):
            calls = [(predictor.on_fill if fill else predictor.on_eviction,
                      level, flag) for fill, level, flag in _NOTE_CALLS]
            # The range's notifications, consumed in order.
            notes = zip(walk.note_code[notes_at:notes_end],
                        walk.note_block[notes_at:notes_end])
        predict = predictor.predict
        train = predictor.train
        on_hit = predictor.on_hit
        oracle = predictor.oracle
        free = predictor.free
        miss_detect = self._l1_miss_detect
        l3_tag_latency = self._l3_tag_latency
        paths = self._paths
        outcomes = self._outcomes
        miss_latency = stats.miss_latency
        l2_hits = l3_hits = memory = remote_hits = 0
        recoveries = parallel = cancelled = speculative = 0

        for (index, block, pc, where, translation_latency, dram_latency,
             hier_point, dram_point, notes_point) in zip(*[
                getattr(walk, name)[first:last]
                for name, _ in _MISS_COLUMNS]):
            # The prediction-independent charges and notifications since
            # the previous miss's predict point, in their original order.
            if hier_point != hier_at:
                for value in hier[hier_at:hier_point]:
                    hierarchy += value
                hier_at = hier_point
            if dram_point != dram_at:
                total = energy.get("dram", 0.0)
                for _ in range(dram_point - dram_at):
                    total += dram_nj
                energy["dram"] = total
                dram_at = dram_point
            if calls is not None and notes_point != notes_at:
                for code, note_block in islice(notes,
                                               notes_point - notes_at):
                    call, level, flag = calls[code]
                    call(note_block, level, flag)
                notes_at = notes_point

            actual, holder, remote = outcomes[where]
            prediction = (_ORACLE_PREDICTIONS[actual] if oracle
                          else predict(block, pc))
            train(block, pc, prediction, actual)
            on_hit(actual)
            latency = miss_detect + translation_latency
            if not free:
                # Charged after train: D2D's energy reads the Hub lookup
                # its train makes.
                latency += predictor.prediction_latency
                predictor_nj = predictor.energy_per_prediction_nj()
                if predictor_nj < 0:
                    raise ValueError("cannot charge negative energy")
                energy["predictor"] = energy.get("predictor", 0.0) \
                    + predictor_nj

            levels = prediction.levels
            key = (levels, where)
            path = paths.get(key)
            if path is None:
                path = paths[key] = self._path(levels, actual, holder, remote)
            (path_latency, memory_hop, port_penalty, hier_adds, recovery_nj,
             cancel, probes, recovered) = path
            if memory_hop is not None:
                # Block in main memory: the DRAM access either follows
                # the LLC tag check or, launched speculatively, overlaps
                # it.
                if cancel:
                    speculative += 1
                    path_latency += max(l3_tag_latency,
                                        memory_hop + dram_latency)
                else:
                    path_latency += l3_tag_latency + memory_hop \
                        + dram_latency
                path_latency += port_penalty
            elif cancel:
                # A speculative DRAM access was launched and must be
                # cancelled by the return-path address-matching logic:
                # energy, no time.
                energy["dram"] = energy.get("dram", 0.0) + dram_nj
                cancelled += 1
            for value in hier_adds:
                hierarchy += value
            if recovered:
                energy["recovery"] = energy.get("recovery", 0.0) \
                    + recovery_nj
                recoveries += 1
            parallel += probes
            latency += path_latency

            if actual is _L2:
                l2_hits += 1
            elif actual is _L3:
                l3_hits += 1
                if remote:
                    remote_hits += 1
            else:
                memory += 1
            miss_latency += latency
            latencies[index - start] = latency

        # The charges and notifications after the range's last predict
        # point.
        for value in hier[hier_at:hier_end]:
            hierarchy += value
        energy["hierarchy"] = hierarchy
        if dram_end != dram_at:
            total = energy.get("dram", 0.0)
            for _ in range(dram_end - dram_at):
                total += dram_nj
            energy["dram"] = total
        if calls is not None:
            for code, note_block in notes:
                call, level, flag = calls[code]
                call(note_block, level, flag)

        misses = last - first
        stats.demand_accesses += count
        stats.loads += loads_end - loads
        stats.stores += count - (loads_end - loads)
        stats.l1_hits += count - misses
        stats.l2_hits += l2_hits
        stats.l3_hits += l3_hits
        stats.memory_accesses += memory
        stats.remote_cache_hits += remote_hits
        stats.predictions += misses
        stats.recoveries += recoveries
        stats.parallel_cache_probes += parallel
        stats.speculative_dram_launches += speculative
        stats.cancelled_dram_launches += cancelled
        stats.prefetches_issued += issued_end - issued
        stats.prefetches_dropped_mshr += dropped_end - dropped
        stats.miss_latency = miss_latency
        total_latency = stats.total_demand_latency
        for latency in latencies:
            total_latency += latency
        stats.total_demand_latency = total_latency
        return latencies

    def _path(self, levels: Tuple[Level, ...], actual: Level,
              holder: int, remote: bool) -> tuple:
        """The prediction-dependent shape of one L1 miss's post-L1 path.

        Returns ``(latency, memory_hop, port_penalty, hier_adds,
        recovery_nj, cancel, probes, recovered)``.  For a block in memory
        ``latency`` stops at the LLC tag and :meth:`replay` adds the DRAM
        part (``memory_hop`` is the LLC-to-memory hop, ``cancel`` marks a
        speculative launch); otherwise ``memory_hop`` is ``None`` and
        ``cancel`` marks a speculative DRAM launch to cancel.

        A ``Level.L2`` prediction probes the whole private intermediate
        group in order; the private-only sequential fallback serialises
        each level's miss detection before forwarding.  Hop latencies:
        ``l1_to_l2`` per hop between private levels, ``l2_to_llc`` into
        the shared LLC (a 2-level hierarchy pays only the LLC hop).
        Every float is summed in the order of a single pass over the
        path.
        """
        levels = levels or _SEQUENTIAL
        probe_l2 = _L2 in levels
        probe_l3 = _L3 in levels
        probe_mem = _MEM in levels

        # Port-pressure penalty when more than one on-chip cache is probed in
        # parallel (multi-way predictions, Section V.A / V.C).
        cache_probes = probe_l2 + probe_l3 + (_L1 in levels)
        if cache_probes > 1:
            port_penalty = self._port_penalty * (cache_probes - 1)
            probes = 1
        else:
            port_penalty = 0.0
            probes = 0

        # "hierarchy"-category energy is accumulated locally and charged once
        # per path.
        if not self._intermediates:
            latency = 0.0
            hierarchy_nj = 0.0
        else:
            latency = self._ic_l1_l2
            hierarchy_nj = self._bus_nj

            # ---------------- Private intermediate stage ----------------
            if probe_l2:
                sequential = not (probe_l3 or probe_mem)
                for index, _ in self._probe_order:
                    if index:
                        latency += self._ic_l1_l2
                        hierarchy_nj += self._bus_nj
                    hierarchy_nj += self._chain_nj[index]
                    if index == holder:
                        latency += self._chain_hit_latency[index] \
                            + port_penalty
                        return (latency, None, port_penalty, (hierarchy_nj,),
                                0.0, False, probes, False)
                    if sequential:
                        # Wait for this level's miss before forwarding.
                        latency += self._chain_miss_detect[index]
            elif actual is _L2:
                # Harmful misprediction: a private level held the block
                # but the whole group was bypassed.  The collocated
                # directory detects it during the LLC tag access and a
                # recovery transaction re-issues the request to the
                # holder.
                recovery = self._ic_l2_llc
                recovery += self._l3_tag_latency
                recovery += self._ic_recovery
                recovery += self._chain_hit_latency[holder]
                latency += recovery
                latency += port_penalty
                hier_adds = (hierarchy_nj, self._bus_nj, self._l3_tag_nj,
                             self._directory_nj, self._chain_nj[holder])
                return (latency, None, port_penalty, hier_adds,
                        self._bus_nj + self._directory_nj, False, probes,
                        True)
            else:
                # Bypassed but absent: the request still traverses the
                # private chain's bus on the way to the LLC.
                for _ in self._bypass_hops:
                    latency += self._ic_l1_l2
                    hierarchy_nj += self._bus_nj

        # ---------------- LLC / directory stage ----------------
        latency += self._ic_l2_llc
        hierarchy_nj += self._bus_nj + self._directory_nj
        speculative = probe_mem and self._memory_speculative
        if actual is _L3:
            hierarchy_nj += self._l3_nj
            llc_latency = self._l3_hit_latency
            if remote:
                # Data forwarded from another core's private cache.
                llc_latency = self._l3_tag_latency + self._ic_cache_to_cache
            latency += llc_latency + port_penalty
            return (latency, None, port_penalty, (hierarchy_nj,), 0.0,
                    speculative, probes, False)

        # Block is in main memory.
        hierarchy_nj += self._l3_tag_nj
        return (latency, self._ic_llc_mem, port_penalty, (hierarchy_nj,), 0.0,
                speculative, probes, False)

    # ==================================================================
    # Reporting
    # ==================================================================
    def miss_counts(self) -> Dict[str, int]:
        """Demand miss counts per level (the quantities behind Figures 1-2)."""
        return {
            "l1_misses": self.stats.l1_misses,
            "l2_misses": self.stats.l2_misses,
            "l3_misses": self.stats.l3_misses,
        }

    def reset_statistics(self) -> None:
        self.stats.reset()
        self.energy.reset()
        self.predictor.reset_statistics()
