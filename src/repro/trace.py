"""Columnar trace substrate on stdlib ``array`` columns.

Every figure in the paper is trace driven: the synthetic workloads generate
their memory references from a seeded state machine, in memory, and the
hierarchy replays them.  :class:`TraceBuffer` is the one trace form, a
struct-of-arrays layout of about 23 bytes per access.  Each column is a
``memoryview`` over packed machine values (:mod:`array` typecodes):

======================  ========  ==========================================
column                  typecode  meaning
======================  ========  ==========================================
``address``             ``Q``     byte address of the reference
``pc``                  ``Q``     program counter of the issuing load/store
``kind``                ``B``     :data:`KIND_LOAD` / :data:`KIND_STORE` /
                                  :data:`KIND_PREFETCH` / :data:`KIND_WRITEBACK`
``size``                ``B``     bytes accessed
``dependent``           ``?``     pointer-chasing dependence flag
``non_memory``          ``H``     non-memory instructions before the access
``thread_id``           ``H``     issuing logical thread
======================  ========  ==========================================

A value that does not fit its column (a negative address, a 300-byte size)
raises :class:`OverflowError` when the buffer is built.

On top of the packed columns the buffer derives (lazily, once per root
trace, and caches) the two decompositions every simulation layer needs per
access: the block-aligned address column (consumed by the cache hierarchy)
and the page-number column (consumed by the TLB).  Replay therefore performs
**no** per-access address arithmetic — see :meth:`TraceBuffer.replay_columns`.

Buffers slice without copying (``buffer[warmup:]`` slices the memoryviews),
compare exactly, pickle as their packed bytes, and round-trip losslessly
through ``.npz`` files (:meth:`save` / :meth:`load`, what
``python -m repro trace --save`` writes).  Nothing in a simulation reads or
writes trace files: generating a default-scale trace (5,200 accesses) takes
about 15 ms.  numpy is imported by :meth:`save` and :meth:`load` alone, so
importing :mod:`repro` and running any simulation never loads it.
"""

from __future__ import annotations

import itertools
import os
import threading
from array import array
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .memory.block import (
    AccessType,
    DEFAULT_BLOCK_SIZE,
    DEFAULT_PAGE_SIZE,
    MemoryAccess,
)

#: ``kind`` column codes.  Demand accesses are the two low codes, so a
#: demand-only trace satisfies ``max(kind) <= KIND_STORE``.
KIND_LOAD = 0
KIND_STORE = 1
KIND_PREFETCH = 2
KIND_WRITEBACK = 3

#: AccessType -> kind code.
KIND_CODES = {
    AccessType.LOAD: KIND_LOAD,
    AccessType.STORE: KIND_STORE,
    AccessType.PREFETCH: KIND_PREFETCH,
    AccessType.WRITEBACK: KIND_WRITEBACK,
}

#: Format marker written into every ``.npz`` file; bump on layout changes so
#: stale ``.npz`` files are rejected instead of silently misread.
NPZ_SCHEMA = "repro-trace-npz/1"

#: Per-process serial for :meth:`TraceBuffer.save` temp names — combined
#: with pid and thread id it makes every in-flight write's temp file
#: unique (``itertools.count`` is atomic under the GIL).
_SAVE_SERIAL = itertools.count()

#: (name, typecode) of every packed column, in canonical order.  The
#: typecodes are also numpy dtype codes (``Q`` is uint64, ``?`` bool), which
#: is all :meth:`TraceBuffer.save` / :meth:`TraceBuffer.load` need.
_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("address", "Q"),
    ("pc", "Q"),
    ("kind", "B"),
    ("size", "B"),
    ("dependent", "?"),
    ("non_memory", "H"),
    ("thread_id", "H"),
)

#: The demand ``kind`` codes, as bytes for :meth:`bytes.translate`.
_DEMAND_KINDS = bytes((KIND_LOAD, KIND_STORE))


def _pack(typecode: str, values) -> memoryview:
    """``values`` packed into a column (``?`` is bytes holding 0 or 1)."""
    if typecode == "?":
        return memoryview(array("B", [bool(value) for value in values])
                          ).cast("?")
    return memoryview(array(typecode, values))


class TraceBuffer:
    """A packed, columnar memory-access trace.

    Construct one from columns of values, from a hand-made access list
    (:meth:`from_accesses`), from a generator stream (:meth:`from_stream` —
    what :meth:`repro.workloads.base.Workload.generate_buffer` uses), or
    from an ``.npz`` file (:meth:`load`).
    """

    __slots__ = ("address", "pc", "kind", "size", "dependent", "non_memory",
                 "thread_id", "_derived", "_root", "_start")

    def __init__(self, address, pc, kind, size, dependent, non_memory,
                 thread_id) -> None:
        self._adopt([_pack(typecode, values) for (_, typecode), values in
                     zip(_COLUMNS, (address, pc, kind, size, dependent,
                                    non_memory, thread_id))])

    def _adopt(self, columns: Sequence[memoryview]) -> None:
        """Take ``columns`` (in :data:`_COLUMNS` order) as this buffer's."""
        length = len(columns[0])
        for (name, _), column in zip(_COLUMNS, columns):
            if len(column) != length:
                raise ValueError(
                    f"column {name!r} has {len(column)} rows, "
                    f"expected {length}")
            setattr(self, name, column)
        #: Cached derived columns: ("block"|"page", size) -> memoryview.
        self._derived: Dict[Tuple[str, int], memoryview] = {}
        #: The buffer this one is a contiguous view of (None: itself),
        #: and the view's first row in it (see :attr:`origin`).
        self._root: Optional["TraceBuffer"] = None
        self._start = 0

    @classmethod
    def _of(cls, columns: Sequence[memoryview]) -> "TraceBuffer":
        """A buffer over already-packed ``columns`` (no copy)."""
        buffer = cls.__new__(cls)
        buffer._adopt(columns)
        return buffer

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_stream(cls, stream: Iterator[MemoryAccess],
                    num_accesses: int) -> "TraceBuffer":
        """Pack the next ``num_accesses`` records of a generator stream.

        Raises:
            ValueError: if ``num_accesses`` is not positive, or the stream
                ends before yielding that many records.
        """
        if num_accesses <= 0:
            raise ValueError("num_accesses must be positive")
        address: List[int] = [0] * num_accesses
        pc: List[int] = [0] * num_accesses
        kind: List[int] = [0] * num_accesses
        size: List[int] = [0] * num_accesses
        dependent: List[bool] = [False] * num_accesses
        non_memory: List[int] = [0] * num_accesses
        thread_id: List[int] = [0] * num_accesses
        codes = KIND_CODES
        index = -1
        for index, access in enumerate(
                itertools.islice(stream, num_accesses)):
            address[index] = access.address
            pc[index] = access.pc
            kind[index] = codes[access.access_type]
            size[index] = access.size
            dependent[index] = access.depends_on_previous
            non_memory[index] = access.non_memory_instructions
            thread_id[index] = access.thread_id
        if index + 1 < num_accesses:
            raise ValueError(f"stream ended after {index + 1} records, "
                             f"expected {num_accesses}")
        return cls(address, pc, kind, size, dependent, non_memory, thread_id)

    @classmethod
    def from_accesses(cls, accesses: Sequence[MemoryAccess]) -> "TraceBuffer":
        """Pack a hand-made list of :class:`MemoryAccess` records."""
        if not len(accesses):
            raise ValueError("cannot build an empty TraceBuffer")
        return cls.from_stream(iter(accesses), len(accesses))

    # ------------------------------------------------------------------
    # Size / slicing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.address)

    @property
    def nbytes(self) -> int:
        """Bytes held by the packed columns (derived columns excluded)."""
        return sum(getattr(self, name).nbytes for name, _ in _COLUMNS)

    def __getitem__(self, index: slice) -> "TraceBuffer":
        view = TraceBuffer._of([getattr(self, name)[index]
                                for name, _ in _COLUMNS])
        # Derived columns slice to views too, so a warmup/measure split
        # never recomputes block/page decompositions.
        for key, column in self._derived.items():
            view._derived[key] = column[index]
        start, _, step = index.indices(len(self))
        if step == 1:
            view._root = self if self._root is None else self._root
            view._start = self._start + start
        return view

    @property
    def origin(self) -> Tuple["TraceBuffer", int]:
        """``(root, start)``: the buffer this one is a contiguous slice of
        (itself when it is not a slice) and the slice's first row there.
        The hierarchy uses it to replay a warm-up/measure split of a
        cached trace from that trace's one shared walk."""
        root = self._root
        return (self, 0) if root is None else (root, self._start)

    # ------------------------------------------------------------------
    # Derived columns
    # ------------------------------------------------------------------
    def _derive(self, key: Tuple[str, int], build) -> memoryview:
        """The cached derived column ``key``: ``build(addresses)`` on the
        root trace, which a contiguous slice then views."""
        column = self._derived.get(key)
        if column is None:
            root = self._root
            if root is None:
                column = memoryview(array("Q", build(self.address.tolist())))
            else:
                column = root._derive(key, build)[
                    self._start:self._start + len(self)]
            self._derived[key] = column
        return column

    def block_column(self, block_size: int = DEFAULT_BLOCK_SIZE) -> memoryview:
        """Block-aligned address per access (cached per block size)."""
        # block.block_address's mask, even for non-power-of-two sizes, so
        # replay stays bit-identical to the per-record path.
        mask = ~(block_size - 1)
        return self._derive(("block", block_size), lambda addresses: [
            address & mask for address in addresses])

    def page_column(self, page_size: int = DEFAULT_PAGE_SIZE) -> memoryview:
        """Page number per access (cached per page size)."""
        return self._derive(("page", page_size), lambda addresses: [
            address // page_size for address in addresses])

    def replay_columns(self, block_size: int = DEFAULT_BLOCK_SIZE,
                       page_size: int = DEFAULT_PAGE_SIZE
                       ) -> Tuple[List[int], List[int], List[int],
                                  List[bool], List[int]]:
        """The per-access values the demand replay loop consumes.

        Returns ``(addresses, blocks, pages, is_store, pcs)`` as plain Python
        lists — native ints are what the simulator's integer-heavy hot path
        wants.  The block/page decompositions come from the cached derived
        columns, so no per-access masking or shifting remains in the replay
        loop.

        Raises:
            ValueError: if the buffer contains non-demand records (prefetch
                or writeback kinds), which the demand path must not replay.
        """
        kinds = self.kind.tobytes()
        # What is left once the demand codes are deleted is non-demand.
        if kinds.translate(None, _DEMAND_KINDS):
            raise ValueError("trace contains non-demand accesses; the "
                             "demand replay path only services loads/stores")
        return (self.address.tolist(),
                self.block_column(block_size).tolist(),
                self.page_column(page_size).tolist(),
                # Every code is now 0 or 1, which reads as a bool.
                memoryview(kinds).cast("?").tolist(),
                self.pc.tolist())

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------
    def summary(self, block_size: int = DEFAULT_BLOCK_SIZE,
                page_size: int = DEFAULT_PAGE_SIZE) -> Dict[str, object]:
        """Footprint / mix statistics (what ``python -m repro trace`` prints)."""
        kinds = self.kind.tolist()
        loads = kinds.count(KIND_LOAD)
        stores = kinds.count(KIND_STORE)
        unique_blocks = len(set(self.block_column(block_size).tolist()))
        unique_pages = len(set(self.page_column(page_size).tolist()))
        total = len(self)
        return {
            "accesses": total,
            "loads": loads,
            "stores": stores,
            "store_fraction": stores / total if total else 0.0,
            "dependent_fraction":
                sum(self.dependent.tolist()) / total if total else 0.0,
            "unique_blocks": unique_blocks,
            "unique_pages": unique_pages,
            "footprint_bytes": unique_blocks * block_size,
            "buffer_bytes": self.nbytes,
            "non_memory_instructions": sum(self.non_memory.tolist()),
        }

    # ------------------------------------------------------------------
    # Equality
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Exact, field-for-field comparison with another buffer."""
        if isinstance(other, TraceBuffer):
            return all(getattr(self, name) == getattr(other, name)
                       for name, _ in _COLUMNS)
        return NotImplemented

    __hash__ = None  # mutable container

    # ------------------------------------------------------------------
    # Pickling (slots classes have no default __dict__ state)
    # ------------------------------------------------------------------
    def __getstate__(self):
        # Ship only the packed bytes; derived columns are recomputed
        # cheaply on the other side and would double the payload.
        return tuple(getattr(self, name).tobytes() for name, _ in _COLUMNS)

    def __setstate__(self, state) -> None:
        self._adopt([memoryview(data).cast(typecode)
                     for (_, typecode), data in zip(_COLUMNS, state)])

    # ------------------------------------------------------------------
    # Persistence (the only numpy users; numpy is imported on call)
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Write the packed columns to ``path`` as an uncompressed ``.npz``.

        The write is atomic (temp file + rename) and the temp name is
        unique per (process, thread, call), so concurrent savers of one
        path never promote a torn archive: last rename wins.
        """
        import numpy as np

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / (
            f".{path.stem}.{os.getpid()}.{threading.get_ident()}."
            f"{next(_SAVE_SERIAL)}.tmp.npz")
        columns = {name: np.frombuffer(getattr(self, name).tobytes(),
                                       dtype=typecode)
                   for name, typecode in _COLUMNS}
        try:
            with tmp.open("wb") as handle:
                np.savez(handle, schema=np.array(NPZ_SCHEMA), **columns)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    # Read by perfbench until ROADMAP item 6 (its ``trace.load`` span).
    @classmethod
    def load(cls, path: Union[str, Path]) -> "TraceBuffer":
        """Read a buffer written by :meth:`save` (exact round-trip)."""
        import numpy as np

        with np.load(Path(path)) as archive:
            schema = str(archive["schema"])
            if schema != NPZ_SCHEMA:
                raise ValueError(
                    f"{path}: unsupported trace schema {schema!r} "
                    f"(expected {NPZ_SCHEMA!r})")
            return cls._of([memoryview(np.ascontiguousarray(
                archive[name], dtype=typecode).tobytes()).cast(typecode)
                for name, typecode in _COLUMNS])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"TraceBuffer(len={len(self)}, "
                f"nbytes={self.nbytes})")
