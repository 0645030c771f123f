"""Shared access-construction helpers for the reproduction test suite.

Kept in a dedicated module (not ``conftest.py``) so test modules can import
them absolutely: pytest imports every ``conftest.py`` under the plain module
name ``conftest``, which collides between ``tests/`` and ``benchmarks/``.
"""

from __future__ import annotations

import dataclasses
from typing import List

from hypothesis import strategies as st

from repro.memory.block import AccessType, MemoryAccess
from repro.memory.spec import HierarchySpec, LevelSpec
from repro.trace import KIND_CODES, KIND_LOAD, KIND_STORE, TraceBuffer

_KIND_TYPES = {code: access_type for access_type, code in KIND_CODES.items()}


def make_load(address: int, pc: int = 0x100,
              dependent: bool = False) -> MemoryAccess:
    """Convenience constructor used across test modules."""
    return MemoryAccess(address=address, access_type=AccessType.LOAD, pc=pc,
                        depends_on_previous=dependent)


def make_store(address: int, pc: int = 0x200) -> MemoryAccess:
    return MemoryAccess(address=address, access_type=AccessType.STORE, pc=pc)


def records(buffer: TraceBuffer) -> List[MemoryAccess]:
    """A buffer's rows as :class:`MemoryAccess` records, for the
    one-access-at-a-time path and record-shaped assertions."""
    return [
        MemoryAccess(address=address, access_type=_KIND_TYPES[kind], pc=pc,
                     size=size, depends_on_previous=dependent,
                     non_memory_instructions=non_memory, thread_id=thread)
        for address, pc, kind, size, dependent, non_memory, thread in zip(
            buffer.address.tolist(), buffer.pc.tolist(),
            buffer.kind.tolist(), buffer.size.tolist(),
            buffer.dependent.tolist(), buffer.non_memory.tolist(),
            buffer.thread_id.tolist())
    ]


def run_by_access(system, buffer: TraceBuffer, name: str = "trace"):
    """What ``system.run_trace(buffer, name)`` returns, computed with one
    ``hierarchy.access()`` call per row instead of one whole walk."""
    latencies = [system.hierarchy.access(access).latency
                 for access in records(buffer)]
    return system._collect(name, system.core.execute(buffer, latencies))


# ======================================================================
# Randomised hierarchies and traffic (hypothesis strategies)
# ======================================================================
_BLOCK = 64


@st.composite
def hierarchy_specs(draw):
    """Random valid specs: 2-5 levels, power-of-two set counts, capacities
    and hit latencies non-decreasing down the chain."""
    depth = draw(st.integers(min_value=2, max_value=5))
    ways = draw(st.lists(st.sampled_from((1, 2, 4, 8)),
                         min_size=depth, max_size=depth))
    sets = draw(st.lists(st.sampled_from((4, 8, 16, 32, 64)),
                         min_size=depth, max_size=depth))
    sizes = sorted(_BLOCK * w * s for w, s in zip(ways, sets))
    latencies = sorted(draw(st.lists(st.integers(min_value=1, max_value=30),
                                     min_size=depth, max_size=depth)))
    mshrs = draw(st.lists(st.integers(min_value=2, max_value=32),
                          min_size=depth, max_size=depth))
    levels = []
    for index, (size, latency, entries) in enumerate(
            zip(sizes, latencies, mshrs)):
        # Pick a way count that divides this level's capacity.
        assoc = next(w for w in (8, 4, 2, 1) if size % (_BLOCK * w) == 0)
        levels.append(LevelSpec(name=f"C{index}", size_bytes=size,
                                associativity=assoc, tag_latency=latency,
                                mshr_entries=entries))
    llc = dataclasses.replace(
        levels[-1], sequential_tag_data=True,
        data_latency=draw(st.integers(min_value=0, max_value=40)))
    return HierarchySpec(levels=tuple(levels[:-1]) + (llc,))


@st.composite
def traffic(draw):
    """A trace of linear, random and stride segments (in the style of a
    traffic generator's state machine), each with its own store mix."""
    footprint = draw(st.sampled_from((16, 256, 4096))) * _BLOCK
    addresses, kinds = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        mode = draw(st.sampled_from(("linear", "random", "stride")))
        count = draw(st.integers(min_value=1, max_value=60))
        if mode == "random":
            segment = draw(st.lists(
                st.integers(min_value=0, max_value=footprint - 1),
                min_size=count, max_size=count))
        else:
            start = draw(st.integers(min_value=0, max_value=footprint - 1))
            step = 8 if mode == "linear" else _BLOCK * draw(
                st.integers(min_value=1, max_value=64))
            segment = [(start + i * step) % footprint for i in range(count)]
        store_share = draw(st.sampled_from((0.0, 0.3, 1.0)))
        stores = draw(st.lists(st.floats(min_value=0.0, max_value=1.0,
                                         exclude_max=True),
                               min_size=count, max_size=count))
        addresses.extend(segment)
        kinds.extend(KIND_STORE if u < store_share else KIND_LOAD
                     for u in stores)
    n = len(addresses)
    return TraceBuffer(addresses, [0x400 + 4 * (i % 16) for i in range(n)],
                       kinds, [8] * n, [False] * n, [0] * n, [0] * n)
