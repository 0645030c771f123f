"""Columnar, numpy-backed trace substrate.

Every figure in the paper is trace driven: millions of memory references are
generated by the synthetic workloads and replayed through the hierarchy.  The
original pipeline materialised each trace as a Python list of
:class:`~repro.memory.block.MemoryAccess` objects — convenient, but ~200
bytes per access, slow to pickle across worker processes, and impossible to
persist cheaply.  :class:`TraceBuffer` replaces that representation with a
struct-of-arrays layout:

======================  ==========  ========================================
column                  dtype       meaning
======================  ==========  ========================================
``address``             uint64      byte address of the reference
``pc``                  uint64      program counter of the issuing load/store
``kind``                uint8       :data:`KIND_LOAD` / :data:`KIND_STORE` /
                                    :data:`KIND_PREFETCH` / :data:`KIND_WRITEBACK`
``size``                uint8       bytes accessed
``dependent``           bool        pointer-chasing dependence flag
``non_memory``          uint16      non-memory instructions before the access
``thread_id``           uint16      issuing logical thread
======================  ==========  ========================================

On top of the packed columns the buffer derives (lazily, and caches) the two
decompositions every simulation layer needs per access: the block-aligned
address column (consumed by the cache hierarchy) and the page-number column
(consumed by the TLB).  Replay therefore performs **no** per-access address
arithmetic — see :meth:`TraceBuffer.replay_columns`.

Buffers slice without copying (``buffer[warmup:]`` is a numpy view), compare
exactly (:meth:`TraceBuffer.__eq__` accepts another buffer *or* a legacy
``MemoryAccess`` sequence), pickle compactly, and round-trip losslessly
through ``.npz`` files (:meth:`save` / :meth:`load`) — the on-disk trace
cache the simulation engine maintains under ``<store>/traces/``.

The whole reproduction depends on numpy; the import error below says so
explicitly instead of failing deep inside a simulation.
"""

from __future__ import annotations

import errno
import itertools
import os
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - exercised only without numpy
    raise ImportError(
        "repro's columnar trace substrate requires numpy (declared in "
        "pyproject.toml). Install it with 'pip install numpy' and retry."
    ) from exc

from .faults import fault_point
from .memory.block import (
    AccessType,
    DEFAULT_BLOCK_SIZE,
    DEFAULT_PAGE_SIZE,
    MemoryAccess,
)

#: ``kind`` column codes.  Demand accesses are the two low codes, so a
#: demand-only trace satisfies ``kind.max() <= KIND_STORE``.
KIND_LOAD = 0
KIND_STORE = 1
KIND_PREFETCH = 2
KIND_WRITEBACK = 3

#: AccessType -> kind code, and its inverse (index == code).
KIND_CODES = {
    AccessType.LOAD: KIND_LOAD,
    AccessType.STORE: KIND_STORE,
    AccessType.PREFETCH: KIND_PREFETCH,
    AccessType.WRITEBACK: KIND_WRITEBACK,
}
KIND_TYPES: Tuple[AccessType, ...] = (
    AccessType.LOAD, AccessType.STORE, AccessType.PREFETCH,
    AccessType.WRITEBACK,
)

#: Format marker written into every ``.npz`` file; bump on layout changes so
#: stale on-disk traces are rejected instead of silently misread.
NPZ_SCHEMA = "repro-trace-npz/1"

#: Per-process serial for :meth:`TraceBuffer.save` temp names — combined
#: with pid and thread id it makes every in-flight write's temp file
#: unique (``itertools.count`` is atomic under the GIL).
_SAVE_SERIAL = itertools.count()

#: (name, dtype) of every packed column, in canonical order.
_COLUMNS: Tuple[Tuple[str, object], ...] = (
    ("address", np.uint64),
    ("pc", np.uint64),
    ("kind", np.uint8),
    ("size", np.uint8),
    ("dependent", np.bool_),
    ("non_memory", np.uint16),
    ("thread_id", np.uint16),
)


def _shift_for(size: int) -> int:
    """log2(size) for powers of two, -1 otherwise."""
    return size.bit_length() - 1 if size > 0 and (size & (size - 1)) == 0 \
        else -1


class TraceBuffer:
    """A packed, columnar memory-access trace.

    Construct one from arrays (internal), from a legacy access list
    (:meth:`from_accesses`), from a generator stream (:meth:`from_stream` —
    what :meth:`repro.workloads.base.Workload.generate_buffer` uses), or
    from disk (:meth:`load`).
    """

    __slots__ = ("address", "pc", "kind", "size", "dependent", "non_memory",
                 "thread_id", "_derived", "_root", "_start")

    def __init__(self, address, pc, kind, size, dependent, non_memory,
                 thread_id) -> None:
        self.address = np.asarray(address, dtype=np.uint64)
        self.pc = np.asarray(pc, dtype=np.uint64)
        self.kind = np.asarray(kind, dtype=np.uint8)
        self.size = np.asarray(size, dtype=np.uint8)
        self.dependent = np.asarray(dependent, dtype=np.bool_)
        self.non_memory = np.asarray(non_memory, dtype=np.uint16)
        self.thread_id = np.asarray(thread_id, dtype=np.uint16)
        length = len(self.address)
        for name, _ in _COLUMNS[1:]:
            if len(getattr(self, name)) != length:
                raise ValueError(
                    f"column {name!r} has {len(getattr(self, name))} rows, "
                    f"expected {length}")
        #: Cached derived columns: ("block"|"page", size) -> ndarray.
        self._derived: Dict[Tuple[str, int], np.ndarray] = {}
        #: The buffer this one is a contiguous view of (None: itself),
        #: and the view's first row in it (see :attr:`origin`).
        self._root: Optional["TraceBuffer"] = None
        self._start = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_stream(cls, stream: Iterator[MemoryAccess],
                    num_accesses: int) -> "TraceBuffer":
        """Materialise ``num_accesses`` records from a generator stream.

        Consumes the stream exactly like the legacy list materialisation in
        :meth:`~repro.workloads.base.Workload.generate`, so for the same RNG
        state the columns are field-for-field identical to the legacy trace.
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
        for index in range(num_accesses):
            access = next(stream)
            address[index] = access.address
            pc[index] = access.pc
            kind[index] = codes[access.access_type]
            size[index] = access.size
            dependent[index] = access.depends_on_previous
            non_memory[index] = access.non_memory_instructions
            thread_id[index] = access.thread_id
        return cls(address, pc, kind, size, dependent, non_memory, thread_id)

    @classmethod
    def from_accesses(cls, accesses: Sequence[MemoryAccess]) -> "TraceBuffer":
        """Pack a legacy list of :class:`MemoryAccess` records."""
        if not len(accesses):
            raise ValueError("cannot build an empty TraceBuffer")
        return cls.from_stream(iter(accesses), len(accesses))

    # ------------------------------------------------------------------
    # Size / indexing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.address)

    @property
    def nbytes(self) -> int:
        """Bytes held by the packed columns (derived columns excluded)."""
        return sum(getattr(self, name).nbytes for name, _ in _COLUMNS)

    def __getitem__(self, index: Union[int, slice]
                    ) -> Union[MemoryAccess, "TraceBuffer"]:
        if isinstance(index, slice):
            view = TraceBuffer(*(getattr(self, name)[index]
                                 for name, _ in _COLUMNS))
            # Derived columns slice to views too, so a warmup/measure split
            # never recomputes block/page decompositions.
            for key, column in self._derived.items():
                view._derived[key] = column[index]
            start, _, step = index.indices(len(self))
            if step == 1:
                view._root = self if self._root is None else self._root
                view._start = self._start + start
            return view
        return self.access_at(int(index))

    @property
    def origin(self) -> Tuple["TraceBuffer", int]:
        """``(root, start)``: the buffer this one is a contiguous slice of
        (itself when it is not a slice) and the slice's first row there.
        The hierarchy uses it to replay a warm-up/measure split of a
        cached trace from that trace's one shared walk."""
        root = self._root
        return (self, 0) if root is None else (root, self._start)

    def access_at(self, index: int) -> MemoryAccess:
        """Rebuild one access record (slow path; iteration/compat only)."""
        return MemoryAccess(
            address=int(self.address[index]),
            access_type=KIND_TYPES[int(self.kind[index])],
            pc=int(self.pc[index]),
            size=int(self.size[index]),
            depends_on_previous=bool(self.dependent[index]),
            non_memory_instructions=int(self.non_memory[index]),
            thread_id=int(self.thread_id[index]),
        )

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self.to_accesses())

    def to_accesses(self) -> List[MemoryAccess]:
        """Unpack into the legacy list-of-objects representation."""
        return [
            MemoryAccess(address=addr, access_type=KIND_TYPES[code], pc=pc,
                         size=size, depends_on_previous=dep,
                         non_memory_instructions=non_mem, thread_id=tid)
            for addr, pc, code, size, dep, non_mem, tid in zip(
                self.address.tolist(), self.pc.tolist(), self.kind.tolist(),
                self.size.tolist(), self.dependent.tolist(),
                self.non_memory.tolist(), self.thread_id.tolist())
        ]

    # ------------------------------------------------------------------
    # Derived columns
    # ------------------------------------------------------------------
    def block_column(self, block_size: int = DEFAULT_BLOCK_SIZE) -> np.ndarray:
        """Block-aligned address per access (cached per block size)."""
        key = ("block", block_size)
        column = self._derived.get(key)
        if column is None:
            shift = _shift_for(block_size)
            if shift >= 0:
                column = (self.address >> shift) << shift
            else:
                # Mirror block.block_address exactly (mask semantics, even
                # for non-power-of-two sizes), so replay stays bit-identical
                # to the per-record path.
                mask = np.uint64(~(block_size - 1) & ((1 << 64) - 1))
                column = self.address & mask
            self._derived[key] = column
        return column

    def page_column(self, page_size: int = DEFAULT_PAGE_SIZE) -> np.ndarray:
        """Page number per access (cached per page size)."""
        key = ("page", page_size)
        column = self._derived.get(key)
        if column is None:
            shift = _shift_for(page_size)
            if shift >= 0:
                column = self.address >> shift
            else:
                column = self.address // np.uint64(page_size)
            self._derived[key] = column
        return column

    def replay_columns(self, block_size: int = DEFAULT_BLOCK_SIZE,
                       page_size: int = DEFAULT_PAGE_SIZE
                       ) -> Tuple[List[int], List[int], List[int],
                                  List[bool], List[int]]:
        """The per-access values the demand replay loop consumes.

        Returns ``(addresses, blocks, pages, is_store, pcs)`` as plain Python
        lists — native ints are what the simulator's integer-heavy hot path
        wants (numpy scalars are several times slower in scalar arithmetic).
        The block/page decompositions come from the vectorised columns, so no
        per-access masking or shifting remains in the replay loop.

        Raises:
            ValueError: if the buffer contains non-demand records (prefetch
                or writeback kinds), which the demand path must not replay.
        """
        if len(self) and int(self.kind.max()) > KIND_STORE:
            raise ValueError("trace contains non-demand accesses; the "
                             "demand replay path only services loads/stores")
        return (self.address.tolist(),
                self.block_column(block_size).tolist(),
                self.page_column(page_size).tolist(),
                (self.kind == KIND_STORE).tolist(),
                self.pc.tolist())

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------
    def summary(self, block_size: int = DEFAULT_BLOCK_SIZE,
                page_size: int = DEFAULT_PAGE_SIZE) -> Dict[str, object]:
        """Footprint / mix statistics (what ``python -m repro trace`` prints)."""
        kinds = self.kind
        loads = int(np.count_nonzero(kinds == KIND_LOAD))
        stores = int(np.count_nonzero(kinds == KIND_STORE))
        unique_blocks = int(np.unique(self.block_column(block_size)).size)
        unique_pages = int(np.unique(self.page_column(page_size)).size)
        total = len(self)
        return {
            "accesses": total,
            "loads": loads,
            "stores": stores,
            "store_fraction": stores / total if total else 0.0,
            "dependent_fraction":
                int(np.count_nonzero(self.dependent)) / total if total else 0.0,
            "unique_blocks": unique_blocks,
            "unique_pages": unique_pages,
            "footprint_bytes": unique_blocks * block_size,
            "buffer_bytes": self.nbytes,
            "non_memory_instructions": int(self.non_memory.sum()),
        }

    # ------------------------------------------------------------------
    # Equality
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Exact, field-for-field comparison.

        Accepts another buffer or a legacy sequence of ``MemoryAccess``
        records, so equivalence tests (and callers migrating incrementally)
        can compare representations directly.
        """
        if isinstance(other, TraceBuffer):
            return all(np.array_equal(getattr(self, name),
                                      getattr(other, name))
                       for name, _ in _COLUMNS)
        if isinstance(other, (list, tuple)):
            if len(other) != len(self) or not all(
                    isinstance(item, MemoryAccess) for item in other):
                return False
            return self == TraceBuffer.from_accesses(other) if other else True
        return NotImplemented

    __hash__ = None  # mutable container

    # ------------------------------------------------------------------
    # Pickling (slots classes have no default __dict__ state)
    # ------------------------------------------------------------------
    def __getstate__(self):
        # Ship only the packed columns; derived columns are recomputed
        # cheaply on the other side and would double the payload.
        return tuple(np.ascontiguousarray(getattr(self, name))
                     for name, _ in _COLUMNS)

    def __setstate__(self, state) -> None:
        for (name, _), column in zip(_COLUMNS, state):
            object.__setattr__(self, name, column)
        object.__setattr__(self, "_derived", {})
        object.__setattr__(self, "_root", None)
        object.__setattr__(self, "_start", 0)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Write the packed columns to ``path`` as an uncompressed ``.npz``.

        The write is atomic (temp file + rename) and the temp name is
        unique per (process, thread, call): a pid alone is not enough once
        the daemon's worker *threads* spill concurrently — two threads
        sharing one temp path would truncate each other mid-write and
        ``os.replace`` could promote the torn archive.  With unique temp
        files every rename installs a complete archive; concurrent savers
        of the same trace key simply race benignly, last rename wins.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Fault site: a dying disk under the trace cache.  A ``torn``
        # fault leaves a garbage partial archive at the destination (the
        # worst case a non-atomic writer could produce) so the cache's
        # load-and-regenerate recovery gets exercised end to end.
        torn = fault_point("trace.save", max(int(self.nbytes), 1))
        if torn is not None:
            with path.open("wb") as handle:
                handle.write(b"\x00" * torn)
            raise OSError(errno.EIO, f"injected torn trace write: {path}")
        tmp = path.parent / (
            f".{path.stem}.{os.getpid()}.{threading.get_ident()}."
            f"{next(_SAVE_SERIAL)}.tmp.npz")
        columns = {name: np.ascontiguousarray(getattr(self, name))
                   for name, _ in _COLUMNS}
        try:
            with tmp.open("wb") as handle:
                np.savez(handle, schema=np.array(NPZ_SCHEMA), **columns)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TraceBuffer":
        """Read a buffer written by :meth:`save` (exact round-trip)."""
        fault_point("trace.load")
        with np.load(Path(path)) as archive:
            schema = str(archive["schema"])
            if schema != NPZ_SCHEMA:
                raise ValueError(
                    f"{path}: unsupported trace schema {schema!r} "
                    f"(expected {NPZ_SCHEMA!r})")
            return cls(*(archive[name] for name, _ in _COLUMNS))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"TraceBuffer(len={len(self)}, "
                f"nbytes={self.nbytes})")


def as_trace_buffer(trace: Union[TraceBuffer, Sequence[MemoryAccess]]
                    ) -> TraceBuffer:
    """Coerce a legacy access list to a buffer (no-op for buffers)."""
    if isinstance(trace, TraceBuffer):
        return trace
    return TraceBuffer.from_accesses(trace)
