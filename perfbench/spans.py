"""Span tracing from outside the simulator, and cProfile module buckets.

The benchmark never edits the simulator: :class:`Tracer` wraps public
functions and methods at run time and restores them afterwards.  Each
call of a wrapped function becomes one span — name, start, end and the
span that was open on the same thread when it started (its parent).
Spans stay in memory until :meth:`Tracer.report`.  A span's *self time*
is its duration minus the durations of its children; children on one
thread run inside their parent and one after another, so self time is
never negative.
"""

from __future__ import annotations

import cProfile
import functools
import itertools
import pstats
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (owner path, attribute, span name).  The owner path is a module or a
#: class in it; module-level functions are also replaced in every
#: ``repro`` module that imported them by name.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.engine:TraceCache", "get", "trace.get"),
    ("repro.workloads.base:Workload", "generate_buffer", "trace.generate"),
    ("repro.trace:TraceBuffer", "load", "trace.load"),
    ("repro.sim.system:SimulatedSystem", "__init__", "system.build"),
    ("repro.sim.multicore:MultiCoreSystem", "__init__", "system.build"),
    ("repro.sim.system:SimulatedSystem", "run_trace", "system.run_trace"),
    ("repro.memory.hierarchy:CoreMemoryHierarchy", "run_buffer",
     "hierarchy.run_buffer"),
    ("repro.cpu.ooo_core:OutOfOrderCore", "execute", "cpu.execute"),
    ("repro.sim.multicore:MultiCoreSystem", "run_traces",
     "multicore.run_traces"),
    ("repro.sim.store", "job_spec", "store.job_spec"),
    ("repro.sim.store", "spec_key", "store.spec_key"),
    ("repro.sim.store", "serialize_result", "store.serialize"),
    ("repro.sim.store", "deserialize_result", "store.deserialize"),
    ("repro.sim.store:ResultStore", "get", "store.get"),
    ("repro.sim.store:ResultStore", "put", "store.put"),
    ("repro.sim.store:ResultStore", "refresh", "store.refresh"),
    ("repro.sim.store:ResultStore", "claim", "store.claim"),
    ("repro.service:SimulationService", "submit", "service.submit"),
    ("repro.service:SimulationService", "result", "service.result"),
    ("repro.service:SimulationService", "dispatch", "service.dispatch"),
    ("repro.service:ServiceClient", "request", "service.request"),
)

#: Every ``summarize`` override in the experiment registry is one span.
SUMMARIZE_SPAN = "experiments.summarize"


class Tracer:
    """Records spans around wrapped calls while installed."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count()
        #: span id -> [name, start, end, parent id, thread id, accesses]
        #: (accesses: the buffer length of a ``run_buffer`` call, else None)
        self.spans: Dict[int, List[Any]] = {}
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _wrap(self, function: Callable, name: str,
              sized: bool = False) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            size = len(args[1]) if sized else None
            record = [name, time.perf_counter(), None,
                      stack[-1] if stack else None,
                      threading.get_ident(), size]
            tracer.spans[span_id] = record
            stack.append(span_id)
            try:
                return function(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return traced

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every function in :data:`WRAPPED` and every summarize."""
        import importlib

        for path, attribute, name in WRAPPED:
            module_name, _, class_name = path.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                owner = getattr(module, class_name)
                raw = owner.__dict__[attribute]
                sized = attribute == "run_buffer"
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(
                        self._wrap(raw.__func__, name))
                else:
                    wrapped = self._wrap(raw, name, sized=sized)
                self._patch(owner, attribute, wrapped)
                continue
            original = getattr(module, attribute)
            wrapped = self._wrap(original, name)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and \
                        loaded.__dict__.get(attribute) is original:
                    self._patch(loaded, attribute, wrapped)
        from repro import experiments

        for value in list(vars(experiments).values()):
            if isinstance(value, type) and \
                    issubclass(value, experiments.Experiment) and \
                    "summarize" in value.__dict__:
                self._patch(value, "summarize",
                            self._wrap(value.__dict__["summarize"],
                                       SUMMARIZE_SPAN))

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def finished(self) -> Dict[int, List[Any]]:
        """Spans whose call returned (a daemon thread may still be inside
        one when the pass ends; it is left out)."""
        return {span_id: record for span_id, record in self.spans.items()
                if record[2] is not None}

    def self_times(self) -> Dict[int, float]:
        spans = self.finished()
        self_time = {span_id: record[2] - record[1]
                     for span_id, record in spans.items()}
        for record in spans.values():
            parent = record[3]
            if parent in self_time:
                self_time[parent] -= record[2] - record[1]
        return self_time

    def report(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total and self seconds."""
        self_time = self.self_times()
        totals: Dict[str, Dict[str, float]] = {}
        for span_id, record in self.finished().items():
            entry = totals.setdefault(
                record[0], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += record[2] - record[1]
            entry["self_s"] += self_time[span_id]
        return totals

    def name_of(self, span_id: Optional[int]) -> Optional[str]:
        record = self.spans.get(span_id) if span_id is not None else None
        return record[0] if record else None

    def check_nesting(self) -> List[str]:
        """Violations of the span invariants (empty when all hold)."""
        problems: List[str] = []
        spans = self.finished()
        for span_id, record in spans.items():
            parent = spans.get(record[3]) if record[3] is not None else None
            if record[3] is not None and parent is None:
                problems.append(f"span {span_id} ({record[0]}) outlived "
                                f"or lost its parent")
            elif parent is not None and not (
                    parent[1] <= record[1] and record[2] <= parent[2]
                    and parent[4] == record[4]):
                problems.append(f"span {span_id} ({record[0]}) is not "
                                f"inside its parent {parent[0]}")
        for span_id, value in self.self_times().items():
            if value < -1e-9:
                problems.append(f"span {span_id} has negative self time")
        return problems


# ----------------------------------------------------------------------
# cProfile buckets
# ----------------------------------------------------------------------
#: Module path fragment -> bucket.  Everything else that runs inside the
#: hierarchy walk falls in ``hierarchy`` (the walk's own code).
BUCKETS: Tuple[Tuple[str, str], ...] = (
    ("repro/memory/cache.py", "cache"),
    ("repro/memory/replacement.py", "cache"),
    ("repro/memory/block.py", "cache"),
    ("repro/memory/tlb.py", "tlb"),
    ("repro/memory/mshr.py", "mshr"),
    ("repro/memory/dram.py", "dram"),
    ("repro/core/", "core"),
    ("repro/prefetch/", "prefetch"),
    ("repro/energy/", "energy"),
    ("repro/sim/kernels.py", "kernels"),
    ("repro/memory/", "hierarchy"),
)
BUCKET_NAMES = ("hierarchy", "cache", "tlb", "mshr", "dram", "core",
                "prefetch", "energy", "kernels")


def profile_call(call: Callable[[], Any]) -> Tuple[Any, Dict[str, float]]:
    """Run ``call`` under cProfile; return its result and the shares.

    ``walk`` is the self time of every function in the hierarchy walk's
    modules (memory, predictors, prefetchers, energy, kernels).
    ``hierarchy_share`` is the walk's share of all profiled time; each
    other share is a bucket's part of the walk.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = call()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    buckets = {name: 0.0 for name in BUCKET_NAMES}
    total = 0.0
    for (filename, _, _), row in stats.stats.items():  # type: ignore[attr-defined]
        self_seconds = row[2]
        total += self_seconds
        normalised = filename.replace("\\", "/")
        for fragment, bucket in BUCKETS:
            if fragment in normalised:
                buckets[bucket] += self_seconds
                break
    walk = sum(buckets.values())
    shares = {f"prof.{name}_share": (value / walk if walk else 0.0)
              for name, value in buckets.items() if name != "hierarchy"}
    shares["prof.hierarchy_share"] = walk / total if total else 0.0
    shares["prof.walk_self_share"] = (buckets["hierarchy"] / walk
                                      if walk else 0.0)
    return result, shares
