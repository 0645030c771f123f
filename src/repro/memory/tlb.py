"""TLB hierarchy and page-table walker.

Table I / Section IV.A of the paper configure a 64-entry first-level TLB, a
3072-entry second-level TLB split evenly between 4 KiB and 2 MiB pages, 4-way
set associative with a 4-cycle access latency, and two page walkers per core.

The simulator translates addresses with an identity mapping (virtual ==
physical) because the synthetic workloads already generate physical-like
addresses; what matters to the study is the *latency and energy* of
translation, which the TLB model provides, plus the eTLB cost hook used by the
D2D/D2M baseline (which enlarges TLB entries and charges 10 % extra energy per
access, Section IV.C).

A TLB set is laid out as a cache set is (:mod:`repro.memory.cache`): one
plain ``dict`` whose keys are the resident page numbers in LRU order, the
first key the least recently used.  A hit moves its page to the end (pop,
then insert again) and a full set evicts its first key.  A dict of ints is
never tracked by the cyclic garbage collector, unlike an ``OrderedDict``,
and it is less than half the size.

TLB sets are allocated on first insert, as cache sets are on first fill.
Every job builds fresh TLBs and most of them never fill more than a
handful of second-level sets, so an untouched set shares one read-only
empty mapping (a probe needs nothing more) until its first insert gives it
a dict of its own.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from .spec import TLBSpec

#: The entries of every never-filled TLB set: read-only, so a stray write
#: fails loudly instead of leaking into every untouched set.
_EMPTY_SET: Mapping[int, bool] = MappingProxyType({})


class TLB:
    """A set-associative TLB modelled with per-set LRU-ordered dicts, each
    built by the first insert into its set."""

    __slots__ = ("associativity", "page_size", "name", "_num_sets", "_sets",
                 "_page_shift")

    def __init__(self, entries: int, associativity: int, page_size: int,
                 name: str = "tlb") -> None:
        if entries <= 0:
            raise ValueError("TLB must have at least one entry")
        if entries % associativity != 0:
            raise ValueError("TLB entries must be divisible by associativity")
        self.associativity = associativity
        self.page_size = page_size
        self.name = name
        self._num_sets = entries // associativity
        self._sets = [_EMPTY_SET] * self._num_sets
        self._page_shift = (page_size.bit_length() - 1
                            if (page_size & (page_size - 1)) == 0 else -1)

    def lookup(self, address: int) -> bool:
        """Probe the TLB for the page containing ``address``."""
        shift = self._page_shift
        page = (address >> shift) if shift >= 0 \
            else address // self.page_size
        entries = self._sets[page % self._num_sets]
        if page in entries:
            del entries[page]
            entries[page] = True
            return True
        return False

    def insert(self, address: int) -> None:
        """Install a translation for the page containing ``address``."""
        page = address // self.page_size
        index = page % self._num_sets
        entries = self._sets[index]
        if page in entries:
            del entries[page]
        elif entries is _EMPTY_SET:
            entries = self._sets[index] = {}
        elif len(entries) >= self.associativity:
            del entries[next(iter(entries))]
        entries[page] = True


class TLBHierarchy:
    """Two-level TLB with a fixed-cost page walker, built from a
    :class:`~repro.memory.spec.TLBSpec`.

    A first-level hit is free: the L1 TLB is accessed in parallel with
    the VIPT L1 cache.  A second-level hit costs ``l2_latency``; a miss in
    both adds ``page_walk_latency``.  The paper uses 2 hardware walkers;
    their effect is modelled as a fixed average walk latency since walks
    are rare for the synthetic traces.
    """

    __slots__ = ("l1", "l2", "l2_latency", "page_walk_latency")

    def __init__(self, spec: TLBSpec) -> None:
        self.l1 = TLB(spec.l1_entries, spec.l1_associativity, spec.page_size,
                      name="L1TLB")
        self.l2 = TLB(spec.l2_entries, spec.l2_associativity, spec.page_size,
                      name="L2TLB")
        self.l2_latency = spec.l2_latency
        self.page_walk_latency = spec.page_walk_latency

    def translate_latency_page(self, page: int, address: int) -> int:
        """Translate one address and return the latency it contributes.

        ``page`` is the page number of ``address``: the columnar replay path
        decomposes whole traces into page-number columns up front (see
        :meth:`repro.trace.TraceBuffer.page_column`), so the per-access hot
        path performs no shift at all.  The first-level probe is inlined —
        it hits for almost every access.
        """
        l1 = self.l1
        entries = l1._sets[page % l1._num_sets]
        if page in entries:
            del entries[page]
            entries[page] = True
            return 0
        if self.l2.lookup(address):
            l1.insert(address)
            return self.l2_latency
        self.l2.insert(address)
        l1.insert(address)
        return self.l2_latency + self.page_walk_latency
