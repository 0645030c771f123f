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
:meth:`~CoreMemoryHierarchy._timed_path`,
:meth:`~CoreMemoryHierarchy._fill_on_response`) traverses the private
intermediates in order, and the paper's three-level chain is simply the case
with one intermediate.  The level predictor's target space stays the
paper's — the whole private intermediate group is classified as
``Level.L2`` and the shared LLC as ``Level.L3`` — so predictors, statistics
and stored results keep their exact shapes at any depth.

The model is trace driven: :meth:`CoreMemoryHierarchy.access` services one
memory reference, returning an :class:`AccessResult` with the load latency,
the levels looked up (for energy), the predicted levels and the misprediction
outcome.  The out-of-order core model (``repro.cpu``) converts these per-access
latencies into cycles and IPC.

Timing model
============

For a block found at level ``A`` with prediction set ``P``:

* Levels closer than ``A`` that appear in ``P`` are looked up (energy + port
  pressure) but, because predicted levels are probed in parallel, they do not
  serialise the path unless the prediction *is* the sequential fallback.
* Levels closer than ``A`` that are *not* in ``P`` are skipped entirely: no tag
  energy, no added latency beyond the bus hop (an MSHR entry is still
  allocated on the way, as the paper requires for the fill path).
* Bypassing the private L2 when it actually holds the block is the *harmful*
  case: the collocated directory detects it during the LLC tag access and a
  recovery transaction re-issues the request to L2 (Section III.E).
* Predicting main memory launches the DRAM access as soon as the request
  reaches the LLC/directory (Figure 6(c)); the directory check overlaps with
  the DRAM access, so a correct MEM prediction hides the LLC tag latency.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from typing import TYPE_CHECKING

from ..energy.model import EnergyAccount, EnergyParameters
from ..prefetch.base import NullPrefetcher, PrefetchAccess, Prefetcher
from .block import (
    AccessResult,
    AccessType,
    CoherenceState,
    Level,
    MemoryAccess,
    block_address,
)
from .cache import Cache, EvictionInfo
from .directory import Directory
from .dram import DRAMModel
from .interconnect import Interconnect
from .spec import HierarchySpec
from .tlb import TLBHierarchy

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from ..core.base import LevelPredictor, Prediction

# Lazily bound references to repro.core.base types (a module-scope import
# would be circular: repro.core imports Level from this package).  Bound once
# by the first CoreMemoryHierarchy construction instead of re-importing on
# every access() call, which showed up in profiles.
_Prediction = None
_HARMFUL = None
_SequentialPredictor = None
#: Per-level singletons for the Ideal system's oracle predictions.
_IDEAL_PREDICTIONS: Dict[Level, "Prediction"] = {}

#: Module-level bindings of the hot enum members (LOAD_GLOBAL is cheaper
#: than the two-step attribute chain in the per-access paths).
_LOAD = AccessType.LOAD
_STORE = AccessType.STORE
_PREFETCH = AccessType.PREFETCH
_WRITEBACK = AccessType.WRITEBACK
_MODIFIED = CoherenceState.MODIFIED
_EXCLUSIVE = CoherenceState.EXCLUSIVE
_L1 = Level.L1
_L2 = Level.L2
_L3 = Level.L3
_MEM = Level.MEM

#: Shared per-access tuples (avoid re-allocating on every access).
_LOOKED_L1 = (Level.L1,)
_NO_LEVELS: tuple = ()
_BYPASSED_L2 = (Level.L2,)
_BYPASSED_L3 = (Level.L3,)
_BYPASSED_L2_L3 = (Level.L2, Level.L3)
#: The six fixed shapes of the post-L1 lookup path (see _timed_path).
_PATH_L2 = (Level.L2,)
_PATH_L3 = (Level.L3,)
_PATH_L2_L3 = (Level.L2, Level.L3)
_PATH_L3_MEM = (Level.L3, Level.MEM)
_PATH_L2_L3_MEM = (Level.L2, Level.L3, Level.MEM)
_PATH_RECOVERY = (Level.L3, Level.L2)


def _bind_core_types() -> None:
    global _Prediction, _HARMFUL, _SequentialPredictor
    if _Prediction is None:
        from ..core.base import (
            Prediction,
            PredictionOutcome,
            SequentialPredictor,
        )

        _Prediction = Prediction
        _HARMFUL = PredictionOutcome.HARMFUL
        _SequentialPredictor = SequentialPredictor
        for level in (Level.L2, Level.L3, Level.MEM):
            _IDEAL_PREDICTIONS[level] = Prediction(levels=(level,),
                                                   source="ideal")


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

    @property
    def average_miss_latency(self) -> float:
        misses = self.l1_misses
        return self.miss_latency / misses if misses else 0.0

    def reset(self) -> None:
        for name, f in self.__dataclass_fields__.items():
            setattr(self, name, 0.0 if isinstance(f.default, float) else 0)


class SharedMemorySystem:
    """Resources shared by every core: the LLC, directory, DRAM and the
    LLC prefetcher."""

    def __init__(self, config: HierarchySpec, num_cores: int = 1,
                 llc_prefetcher: Optional[Prefetcher] = None,
                 energy_params: Optional[EnergyParameters] = None) -> None:
        self.config = config
        self.num_cores = num_cores
        self.l3 = Cache(config.levels[-1])
        self.dram = DRAMModel(config.memory)
        self.directory = Directory(num_cores=num_cores)
        self.llc_prefetcher = llc_prefetcher or NullPrefetcher()
        self.energy_params = energy_params or EnergyParameters()
        self.dram_writebacks = 0

    def l3_eviction_to_memory(self, eviction: EvictionInfo,
                              account: EnergyAccount) -> None:
        """Handle an LLC eviction: dirty lines are written back to DRAM."""
        if eviction.dirty:
            self.dram.access(eviction.block_addr, is_write=True)
            account.charge("dram", self.energy_params.dram_access_nj)
            self.dram_writebacks += 1
        if eviction.prefetched_unused:
            self.llc_prefetcher.record_useless()


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
        "l1_prefetcher", "l2_prefetcher", "interconnect", "energy", "stats",
        "core_id", "_block_size", "_block_mask", "_page_shift",
        "_l1_page_size",
        "_intermediates", "_probe_order", "_fill_order", "_above",
        "_deepest", "_bypass_hops", "_deposit_mshrs",
        "_chain_hit_latency", "_chain_miss_detect", "_chain_nj",
        "_l1_hit_latency", "_l1_miss_detect", "_l3_hit_latency",
        "_l3_tag_latency",
        "_port_penalty", "_memory_speculative", "_ideal_miss_latency",
        "_ic_l1_l2", "_ic_l2_llc", "_ic_llc_mem",
        "_l1_nj", "_tlb_l1_nj", "_l3_nj", "_l3_tag_nj",
        "_l3_wb_nj",
        "_dram_nj", "_bus_nj", "_directory_nj", "_prefetch_budget",
        "_l1_hit_result", "_pf_access",
        "_inflight_misses", "_inflight_miss_count", "_recent_prefetches",
        "_recent_prefetch_count", "_prefetches_this_access",
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
        if _Prediction is None:
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
        # The return path's MSHR entry lives at the deepest private
        # intermediate — the fill deposit point.
        self._deposit_mshrs = intermediates[-1].mshrs if intermediates \
            else None
        self.l1_prefetcher = l1_prefetcher or NullPrefetcher()
        self.l2_prefetcher = l2_prefetcher or NullPrefetcher()
        self.interconnect = Interconnect(spec.interconnect,
                                         active_cores=active_cores)
        self.energy = EnergyAccount(params=self.shared.energy_params)
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
        self._ideal_miss_latency = spec.ideal_miss_latency
        # Interconnect hop latencies are constant per instance (contention
        # depends only on active_cores); precompute them and bump the
        # transfer counters inline instead of calling per hop.
        ic_spec = spec.interconnect
        contention = self.interconnect.contention
        self._ic_l1_l2 = float(ic_spec.l1_to_l2)
        self._ic_l2_llc = ic_spec.l2_to_llc + contention
        self._ic_llc_mem = ic_spec.llc_to_memory + contention
        params = self.shared.energy_params
        # Spec-level read_energy_nj overrides replace the role-based default
        # for the full per-access energy of that level (for the LLC it also
        # stands in for the tag-only probe — a documented simplification);
        # write_energy_nj prices the dirty-writeback deposit into the LLC.
        l1_read = l1_spec.read_energy_nj
        self._l1_nj = params.l1_access_nj if l1_read is None else l1_read
        self._tlb_l1_nj = params.tlb_access_nj + self._l1_nj
        self._chain_nj = tuple([
            params.l2_access_nj if level.read_energy_nj is None
            else level.read_energy_nj
            for level in inter_specs])
        llc_read = llc_spec.read_energy_nj
        if llc_read is None:
            self._l3_nj = params.llc_tag_access_nj \
                + params.llc_data_access_nj
            self._l3_tag_nj = params.llc_tag_access_nj
        else:
            self._l3_nj = llc_read
            self._l3_tag_nj = llc_read
        llc_write = llc_spec.write_energy_nj
        self._l3_wb_nj = self._l3_nj if llc_write is None else llc_write
        self._dram_nj = params.dram_access_nj
        self._bus_nj = params.bus_transfer_nj
        self._directory_nj = params.directory_access_nj
        # The walker adds these constants straight into the energy
        # account's categories, so they are checked once here instead of
        # by EnergyAccount.charge on every access.
        if min((self._tlb_l1_nj, self._l1_nj, self._l3_nj, self._l3_tag_nj,
                self._l3_wb_nj, self._dram_nj, self._bus_nj,
                self._directory_nj) + self._chain_nj) < 0:
            raise ValueError("cannot charge negative energy")
        budget = inter_specs[-1] if inter_specs else l1_spec
        self._prefetch_budget = (1.0 - budget.mshr_demand_reserve) \
            * budget.mshr_entries
        # Shared result object for the overwhelmingly common outcome: an L1
        # hit with a first-level TLB hit (translation latency 0).  The object
        # is read-only by every consumer (the core model reads .latency).
        self._l1_hit_result = AccessResult(Level.L1, self._l1_hit_latency,
                                           _LOOKED_L1)
        # One mutable PrefetchAccess record reused for every prefetcher
        # observation; no prefetcher retains the record past _generate().
        self._pf_access = PrefetchAccess(0, 0, False, True)
        self._inflight_misses: Deque[bool] = deque(
            maxlen=spec.prefetch_inflight_window)
        self._inflight_miss_count = 0
        # Prefetches issued per recent demand access (same sliding window),
        # used to bound the prefetch issue rate to the non-reserved MSHR share.
        self._recent_prefetches: Deque[int] = deque(
            maxlen=spec.prefetch_inflight_window)
        self._recent_prefetch_count = 0
        self._prefetches_this_access = 0

    # ==================================================================
    # Public API
    # ==================================================================
    def access(self, access: MemoryAccess) -> AccessResult:
        """Service one demand :class:`MemoryAccess` record and return its
        outcome.

        Record-level entry point: validates the access type, decomposes the
        address into its block/page components once, and delegates to
        :meth:`access_decomposed` — the single exact scalar path that
        :meth:`run_buffer` also replays through.  Because the record path
        and the buffer replay path share it, they cannot drift:
        :meth:`run_buffer` over a :class:`~repro.trace.TraceBuffer` and
        :meth:`access` over the equivalent record list produce
        bit-identical results.
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
        return self.access_decomposed(address, block, page, atype, access.pc)

    def access_decomposed(self, address: int, block: int, page: int,
                          atype: AccessType, pc: int) -> AccessResult:
        """Service one demand access from its pre-decomposed components.

        Args:
            address: Full byte address.
            block: Block-aligned address (``address`` masked to the line).
            page: Page number under the first-level TLB's page size.
            atype: ``AccessType.LOAD`` or ``AccessType.STORE`` (not checked
                here — :meth:`access` and the buffer replay validate).
            pc: Program counter of the issuing instruction.
        """
        stats = self.stats
        stats.demand_accesses += 1
        if atype is _LOAD:
            stats.loads += 1
        else:
            stats.stores += 1

        translation_latency = self.tlb.translate_latency_page(page, address)

        # ------------------------------------------------------------------
        # L1 lookup (the level predictor never targets L1).
        # ------------------------------------------------------------------
        l1 = self.l1
        l1_hit, l1_was_prefetched = l1.access_block(block, atype)
        # The walker charges energy by adding into the account's categories
        # directly, in EnergyAccount.charge's order and arithmetic.  This
        # first charge creates the "hierarchy" category, so the rest of the
        # access may add to it with ``+=``.
        energy = self.energy.by_category
        energy["hierarchy"] = energy.get("hierarchy", 0.0) + self._tlb_l1_nj
        self._train_prefetcher(self.l1_prefetcher, _L1, address, pc,
                               atype is _LOAD, l1_hit)

        # Inlined _note_inflight (once per access, both branches).
        inflight = self._inflight_misses
        if len(inflight) == inflight.maxlen and inflight[0]:
            self._inflight_miss_count -= 1
        inflight.append(not l1_hit)
        if not l1_hit:
            self._inflight_miss_count += 1
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
            stats.l1_hits += 1
            if translation_latency == 0:
                stats.total_demand_latency += self._l1_hit_latency
                return self._l1_hit_result
            latency = self._l1_hit_latency + translation_latency
            stats.total_demand_latency += latency
            return AccessResult(_L1, latency, _LOOKED_L1)

        # ------------------------------------------------------------------
        # L1 miss: consult the level predictor, find the block, time the path.
        # ------------------------------------------------------------------
        latency = self._l1_miss_detect + translation_latency
        l1.mshrs.allocate(block, atype)

        predictor = self.predictor
        actual, remote_core, holder = self._locate(block)
        if self._ideal_miss_latency:
            # The paper's Ideal system: a perfect, zero-cost level prediction
            # on every L1 miss — the request goes straight to the level that
            # holds the block with no predictor latency and no wasted lookups.
            prediction = _IDEAL_PREDICTIONS[actual]
        else:
            prediction = predictor.predict(block, pc)
            latency += predictor.prediction_latency
            predictor_nj = predictor.energy_per_prediction_nj()
            if predictor_nj < 0:
                raise ValueError("cannot charge negative energy")
            energy["predictor"] = energy.get("predictor", 0.0) + predictor_nj
        stats.predictions += 1

        outcome = predictor.train(block, pc, prediction, actual)
        predictor.on_hit(actual)

        path_latency, looked_up, recovered = self._timed_path(
            prediction, actual, address, pc, atype, remote_core, block,
            holder)
        latency += path_latency
        if recovered:
            stats.recoveries += 1

        # Inlined _account_hit_level (once per miss).
        if actual is _L2:
            stats.l2_hits += 1
        elif actual is _L3:
            stats.l3_hits += 1
            if remote_core is not None:
                stats.remote_cache_hits += 1
        else:
            stats.memory_accesses += 1
        self._fill_on_response(block, atype, actual, holder)
        l1.mshrs.release(block)

        stats.total_demand_latency += latency
        stats.miss_latency += latency
        return AccessResult(
            actual,
            latency,
            looked_up,
            self._bypassed(prediction, actual),
            prediction.levels,
            outcome is _HARMFUL,
            prediction.used_pld,
        )

    def run_trace(self, accesses) -> List[AccessResult]:
        """Convenience helper: service a trace buffer or access iterable.

        Buffers delegate to :meth:`run_buffer`; legacy record iterables are
        serviced one :meth:`access` at a time — both representations
        produce bit-identical results.
        """
        from ..trace import TraceBuffer

        if isinstance(accesses, TraceBuffer):
            return self.run_buffer(accesses)
        service = self.access
        return [service(access) for access in accesses]

    def run_buffer(self, buffer) -> List[AccessResult]:
        """Service a whole columnar trace buffer, one access at a time.

        This is the simulator's replay loop: every access goes through
        :meth:`access_decomposed`, in trace order, with its block and page
        taken from the buffer's vectorised columns.  Returns the per-access
        :class:`AccessResult` list the core model consumes.

        Raises:
            ValueError: if the buffer contains non-demand records.
        """
        addresses, blocks, pages, is_store, pcs = buffer.replay_columns(
            self._block_size, self._l1_page_size)
        service = self.access_decomposed
        load = _LOAD
        store = _STORE
        return [
            service(address, block, page, store if stored else load, pc)
            for address, block, page, stored, pc in zip(
                addresses, blocks, pages, is_store, pcs)
        ]

    # ==================================================================
    # Location and classification helpers
    # ==================================================================
    def _locate(self, block: int
                ) -> Tuple[Level, Optional[int], Optional[int]]:
        """Find where the block currently resides (after the L1 miss).

        Returns ``(level, remote_core, holder)`` where ``holder`` is the
        index of the private intermediate that holds the block (``None``
        unless ``level`` is the private group ``Level.L2``).
        """
        for index, cache in self._probe_order:
            if cache.contains_block(block):
                return _L2, None, index
        if self.shared.l3.contains_block(block):
            return _L3, None, None
        remote = self.shared.directory.remote_holder(block, self.core_id)
        if remote is not None:
            # Supplied by another core's private cache through the directory;
            # classified as an LLC-level hit for prediction purposes.
            return _L3, remote, None
        return _MEM, None, None

    @staticmethod
    def _bypassed(prediction: Prediction, actual: Level) -> Tuple[Level, ...]:
        levels = prediction.levels or _BYPASSED_L2
        l2_bypassed = Level.L2 not in levels and Level.L2 < actual
        l3_bypassed = Level.L3 not in levels and Level.L3 < actual
        if l2_bypassed:
            return _BYPASSED_L2_L3 if l3_bypassed else _BYPASSED_L2
        if l3_bypassed:
            return _BYPASSED_L3
        return _NO_LEVELS

    # ==================================================================
    # Timing
    # ==================================================================
    def _timed_path(
        self,
        prediction: Prediction,
        actual: Level,
        address: int,
        pc: int,
        atype: AccessType,
        remote_core: Optional[int],
        block: int,
        holder: Optional[int],
    ) -> Tuple[float, Tuple[Level, ...], bool]:
        """Latency of the post-L1 path, levels probed, recovery flag.

        A ``Level.L2`` prediction probes the whole private intermediate
        group in order; the private-only sequential fallback serialises
        each level's miss detection before forwarding.  Hop latencies:
        ``l1_to_l2`` per hop between private levels, ``l2_to_llc`` into
        the shared LLC (a 2-level hierarchy pays only the LLC hop).  The
        MSHR entry for the return path is allocated at the deepest
        private intermediate — the fill deposit point — even when the
        group is bypassed (Section III.E).  The probed-level sequence is
        one of six fixed shapes, so shared tuples are returned instead of
        building a list per miss.
        """
        levels = prediction.levels or _BYPASSED_L2
        probe_l2 = _L2 in levels
        probe_l3 = _L3 in levels
        probe_mem = _MEM in levels
        energy = self.energy.by_category
        is_load = atype is _LOAD

        # Port-pressure penalty when more than one on-chip cache is probed in
        # parallel (multi-way predictions, Section V.A / V.C).
        cache_probes = probe_l2 + probe_l3 + (_L1 in levels)
        if cache_probes > 1:
            port_penalty = self._port_penalty * (cache_probes - 1)
            self.stats.parallel_cache_probes += 1
        else:
            port_penalty = 0.0

        # "hierarchy"-category energy is accumulated locally and charged once
        # per path (one dict update instead of four-six).
        interconnect = self.interconnect
        deposit_mshrs = self._deposit_mshrs
        if deposit_mshrs is None:
            latency = 0.0
            hierarchy_nj = 0.0
        else:
            deposit_mshrs.allocate(block, atype)
            interconnect.transfers += 1
            latency = self._ic_l1_l2
            hierarchy_nj = self._bus_nj

            # ---------------- Private intermediate stage ----------------
            if probe_l2:
                sequential = not (probe_l3 or probe_mem)
                for index, cache in self._probe_order:
                    if index:
                        interconnect.transfers += 1
                        latency += self._ic_l1_l2
                        hierarchy_nj += self._bus_nj
                    cache.access_block(block, atype)
                    hierarchy_nj += self._chain_nj[index]
                    if index == holder:
                        latency += self._chain_hit_latency[index] \
                            + port_penalty
                        energy["hierarchy"] += hierarchy_nj
                        self._train_prefetcher(self.l2_prefetcher, _L2,
                                               address, pc, is_load, True)
                        deposit_mshrs.release(block)
                        return latency, _PATH_L2, False
                    if sequential:
                        # Wait for this level's miss before forwarding.
                        latency += self._chain_miss_detect[index]
            elif actual is _L2:
                # Harmful misprediction: a private level held the block
                # but the whole group was bypassed.
                energy["hierarchy"] += hierarchy_nj
                latency += self._recover(atype, block, holder)
                latency += port_penalty
                self._train_prefetcher(self.l2_prefetcher, _L2, address, pc,
                                       is_load, True)
                deposit_mshrs.release(block)
                return latency, _PATH_RECOVERY, True
            else:
                # Bypassed but absent: the request still traverses the
                # private chain's bus on the way to the LLC.
                for _ in self._bypass_hops:
                    interconnect.transfers += 1
                    latency += self._ic_l1_l2
                    hierarchy_nj += self._bus_nj

        # ---------------- LLC / directory stage ----------------
        interconnect.transfers += 1
        latency += self._ic_l2_llc
        hierarchy_nj += self._bus_nj + self._directory_nj

        # An access that reaches the LLC missed the private levels: the L2
        # prefetcher trains on it as a miss, the LLC prefetcher on the LLC
        # outcome.
        if actual is _L3:
            self.shared.l3.access_block(block, atype)
            hierarchy_nj += self._l3_nj
            llc_latency = self._l3_hit_latency
            if remote_core is not None:
                # Data forwarded from another core's private cache.
                llc_latency = (self._l3_tag_latency
                               + interconnect.cache_to_cache_latency())
            if probe_mem and self._memory_speculative:
                # A speculative DRAM access was launched and must be cancelled
                # by the return-path address-matching logic: energy, no time.
                energy["dram"] = energy.get("dram", 0.0) + self._dram_nj
                self.stats.cancelled_dram_launches += 1
            latency += llc_latency + port_penalty
            energy["hierarchy"] += hierarchy_nj
            self._train_prefetcher(self.l2_prefetcher, _L2, address, pc,
                                   is_load, False)
            self._train_prefetcher(self.shared.llc_prefetcher, _L3, address,
                                   pc, is_load, True)
            if deposit_mshrs is not None:
                deposit_mshrs.release(block)
            return latency, (_PATH_L2_L3 if probe_l2 else _PATH_L3), False

        # Block is in main memory.
        self.shared.l3.access_block(block, atype)
        hierarchy_nj += self._l3_tag_nj
        energy["hierarchy"] += hierarchy_nj
        self._train_prefetcher(self.l2_prefetcher, _L2, address, pc,
                               is_load, False)
        self._train_prefetcher(self.shared.llc_prefetcher, _L3, address, pc,
                               is_load, False)
        dram_latency = self.shared.dram.access(address)
        energy["dram"] = energy.get("dram", 0.0) + self._dram_nj
        interconnect.transfers += 1
        hop_to_memory = self._ic_llc_mem

        if probe_mem and self._memory_speculative:
            # DRAM access launched in parallel with the directory/tag check;
            # the response is released once the check confirms the block is
            # uncached, so the tag latency is hidden behind DRAM.
            self.stats.speculative_dram_launches += 1
            latency += max(self._l3_tag_latency,
                           hop_to_memory + dram_latency)
        else:
            latency += self._l3_tag_latency + hop_to_memory + dram_latency
        latency += port_penalty
        if deposit_mshrs is not None:
            deposit_mshrs.release(block)
        return latency, (_PATH_L2_L3_MEM if probe_l2 else _PATH_L3_MEM), False

    def _recover(self, atype: AccessType, block: int, holder: int) -> float:
        """Misprediction recovery: the directory re-issues the request to
        the private intermediate that holds the block."""
        energy = self.energy.by_category
        latency = self.interconnect.l2_to_llc_latency()
        energy["hierarchy"] += self._bus_nj
        # The collocated directory is consulted during the LLC tag access.
        latency += self._l3_tag_latency
        energy["hierarchy"] += self._l3_tag_nj
        energy["hierarchy"] += self._directory_nj
        self.shared.directory.detect_bypass_misprediction(block, self.core_id)
        # Recovery transaction back to the holder, then its access itself.
        latency += self.interconnect.recovery_latency()
        energy["recovery"] = energy.get("recovery", 0.0) \
            + (self._bus_nj + self._directory_nj)
        self._intermediates[holder].access_block(block, atype)
        energy["hierarchy"] += self._chain_nj[holder]
        latency += self._chain_hit_latency[holder]
        # Deallocate MSHR entries allocated past the actual level.
        self.shared.l3.mshrs.force_release(block)
        return latency

    # ==================================================================
    # Data movement (fills, evictions, writebacks)
    # ==================================================================
    def _fill_on_response(self, block: int, atype: AccessType,
                          actual: Level, holder: Optional[int]) -> None:
        """Move the block up the hierarchy after the response returns.

        Fills propagate deepest-first through every private intermediate
        (each is inclusive of the levels above it), then into L1.  In a
        2-level hierarchy L1 *is* the deepest private level, so the
        directory tracks L1 fills directly and the private-group
        (``Level.L2``) predictor notifications are skipped — the group is
        empty.
        """
        dirty = atype is _STORE
        state = _MODIFIED if dirty else _EXCLUSIVE
        predictor = self.predictor

        if actual is _MEM:
            # Memory fills also populate the (non-inclusive) LLC.
            l3_eviction = self.shared.l3.fill_block(block, atype,
                                                    dirty=False, state=state)
            if l3_eviction is not None:
                self._handle_l3_eviction(l3_eviction)
            predictor.on_fill(block, _L3)

        if actual is _MEM or actual is _L3:
            fill_order = self._fill_order
            if fill_order:
                for index, cache in fill_order:
                    eviction = cache.fill_block(block, atype,
                                                dirty=dirty, state=state)
                    if eviction is not None:
                        self._handle_intermediate_eviction(eviction, index)
                predictor.on_fill(block, _L2)
            self.shared.directory.record_private_fill(block, self.core_id,
                                                      dirty=dirty)
        elif actual is _L2:
            # The L1 fill from the holder is a demand fill observed on the
            # private bus, so the predictor's location metadata is refreshed
            # with the truth (this is what repairs stale LocMap entries left
            # by unrecorded prefetch fills).
            predictor.on_fill(block, _L2)
            if dirty:
                self._intermediates[holder].mark_dirty(block)
            # Inclusion upward: levels between the holder and L1 also fill.
            for index, cache in self._above[holder]:
                eviction = cache.fill_block(block, atype,
                                            dirty=dirty, state=state)
                if eviction is not None:
                    self._handle_intermediate_eviction(eviction, index)

        l1_eviction = self.l1.fill_block(block, atype,
                                         dirty=dirty, state=state)
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
        # straight into the (non-inclusive) LLC.
        self.shared.directory.record_private_eviction(eviction.block_addr,
                                                      self.core_id)
        if eviction.dirty:
            l3_eviction = self.shared.l3.fill_block(
                eviction.block_addr, _WRITEBACK, dirty=True, state=_MODIFIED)
            self.energy.by_category["hierarchy"] += self._l3_wb_nj
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
            self.predictor.on_eviction(block_addr, _L2,
                                       dirty=eviction.dirty)
            if eviction.dirty:
                # Dirty victims are written back into the non-inclusive LLC.
                l3_eviction = self.shared.l3.fill_block(
                    block_addr, _WRITEBACK, dirty=True, state=_MODIFIED)
                self.energy.by_category["hierarchy"] += self._l3_wb_nj
                self._handle_l3_eviction(l3_eviction)
        elif eviction.dirty:
            # Dirty victims merge into the next-deeper private level.
            self._intermediates[index + 1].mark_dirty(block_addr)

    def _handle_l3_eviction(self, eviction: Optional[EvictionInfo]) -> None:
        if eviction is None:
            return
        self.shared.l3_eviction_to_memory(eviction, self.energy)
        self.predictor.on_eviction(eviction.block_addr, _L3,
                                   dirty=eviction.dirty)

    # ==================================================================
    # Prefetching
    # ==================================================================
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
                self.stats.prefetches_dropped_mshr += 1
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
        demand accesses (tracked by the inlined window bookkeeping in
        :meth:`access`) is bounded by the non-reserved share of the MSHR
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
        self.stats.prefetches_issued += 1
        self._prefetches_this_access += 1
        if level is _L3:
            installed, l3_eviction = self.shared.l3.prefetch_install(block)
            if not installed:
                return
            if l3_eviction is not None:
                self._handle_l3_eviction(l3_eviction)
            self.predictor.on_fill(block, _L3, from_prefetch=True)
            self.energy.by_category["hierarchy"] += self._l3_nj
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
            self.predictor.on_fill(block, _L2, from_prefetch=True)
        self.shared.directory.record_private_fill(block, self.core_id)
        self.energy.by_category["hierarchy"] += \
            self._l1_nj if target_l1 else self._chain_nj[0]

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
        self.l1.reset_statistics()
        for cache in self._intermediates:
            cache.reset_statistics()
        self.predictor.reset_statistics()
        self.tlb.reset_statistics()
        self.interconnect.reset_statistics()
