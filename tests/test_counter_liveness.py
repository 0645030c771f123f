"""Every counter the simulator writes must be read by a result.

The outputs' twin of ``test_spec_liveness.py``: that test makes every
*input* field prove it moves a byte of the stored results; this one asks
the same of the simulator's *state*.  For each compared system on the
paper spec and on ``scaled.json`` (an LLC that evicts), a system walks
its own trace (no shared walk), and every non-bool int or float
attribute reachable from it (through ``__slots__``, ``__dict__`` and
nested ``repro`` objects) is read before and after the measured run.
Each one that changed was written; the run is then repeated with that
attribute perturbed at the warm-up/measured boundary, just after
``reset_statistics``, and the perturbation must move a byte of
:func:`~repro.sim.store.serialize_result`.  An attribute whose
perturbation moves nothing is a counter no result reads: it is either
deleted or named in :data:`ALLOWED` with the reason it stays.

An attribute counts as read once a perturbation of its instances (every
cache's, say) moves a byte in some system, so the costly perturbations
run only until then.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

from repro.memory.spec import load_hierarchy
from repro.sim.config import SystemConfig
from repro.sim.store import serialize_result
from repro.sim.system import SimulatedSystem
from repro.workloads import build_workload

HIERARCHIES = Path(__file__).resolve().parent.parent / "examples" \
    / "hierarchies"
SPECS = ("paper", "scaled")
PREDICTORS = ("baseline", "lp", "tage-2kb", "d2d", "ideal")
WORKLOAD, ACCESSES, WARMUP = "nas.ua", 1500, 300

#: ``(class, attribute) -> reason`` for the written values no stored
#: byte reads.
ALLOWED: Dict[Tuple[str, str], str] = {
    ("PrefetcherStats", "useful"): "bench_fig03 reads a prefetcher's "
                                   "accuracy (ROADMAP item 16)",
    ("PrefetcherStats", "useless"): "bench_fig03 reads a prefetcher's "
                                    "accuracy (ROADMAP item 16)",
    ("PrefetcherStats", "issued"): "the walker tests cross-check it "
                                   "against the issued and dropped "
                                   "prefetch counts",
    **{("ThrottledPrefetcher", name): "the throttle's epoch is longer "
                                      "than any job, so it never decides "
                                      "(ROADMAP item 11)"
       for name in ("_epoch_position", "_sample_useful", "_sample_useless")},
    ("PrefetchAccess", "address"): "one scratch record the walker refills "
                                   "before every prefetcher observation",
}

#: A path from a system to one attribute: attribute names and, as
#: 1-tuples, container keys, in order.
Path_ = Tuple[Any, ...]


def _is_model(value: Any) -> bool:
    """A simulator object whose attributes are followed."""
    return type(value).__module__.startswith("repro.") \
        and not isinstance(value, (type, int, float, str))


def _attributes(obj: Any) -> Iterator[Tuple[str, Any]]:
    names = dict.fromkeys(getattr(obj, "__dict__", {}))
    for klass in type(obj).__mro__:
        slots = klass.__dict__.get("__slots__", ())
        names.update(dict.fromkeys((slots,) if isinstance(slots, str)
                                   else slots))
    for name in names:
        if name in ("__dict__", "__weakref__"):
            continue
        try:
            yield name, getattr(obj, name)
        except AttributeError:
            continue


def _counters(root: Any) -> Dict[Path_, Tuple[str, Any]]:
    """``path -> (class.attribute, value)`` for every non-bool number an
    attribute of a simulator object reachable from ``root`` holds."""
    found: Dict[Path_, Tuple[str, Any]] = {}
    seen = set()
    stack: List[Tuple[Path_, Any]] = [((), root)]
    while stack:
        path, value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if _is_model(value):
            owner = type(value).__name__
            for name, item in _attributes(value):
                if isinstance(item, bool):
                    continue
                if isinstance(item, (int, float)):
                    found[path + (name,)] = (f"{owner}.{name}", item)
                else:
                    stack.append((path + (name,), item))
        elif isinstance(value, (list, tuple)):
            stack.extend((path + ((index,),), item)
                         for index, item in enumerate(value)
                         if _is_model(item) or isinstance(item,
                                                          (list, tuple)))
        elif isinstance(value, dict):
            stack.extend((path + ((key,),), item)
                         for key, item in value.items()
                         if _is_model(item))
    return found


def _config(spec: str, predictor: str) -> SystemConfig:
    return SystemConfig(name=f"liveness-{spec}", predictor=predictor,
                        hierarchy=load_hierarchy(HIERARCHIES / f"{spec}.json"))


TRACE = build_workload(WORKLOAD).generate_buffer(WARMUP + ACCESSES)


def _run(config: SystemConfig, perturb=None) -> Tuple[str, SimulatedSystem]:
    """The serialized result of the stimulus on a system that walks its
    own trace; ``perturb(system)`` runs at the warm-up boundary."""
    system = SimulatedSystem(config)
    system.hierarchy.run_buffer(TRACE[:WARMUP])
    system.reset_statistics()
    if perturb is not None:
        perturb(system)
    result = system.run_trace(TRACE[WARMUP:], WORKLOAD)
    return json.dumps(serialize_result(result), sort_keys=True), system


def _setter(paths: List[Tuple[Path_, Any]]):
    """Set the attribute at each ``path`` to its value."""
    def perturb(system: SimulatedSystem) -> None:
        for path, value in paths:
            owner = system
            for step in path[:-1]:
                owner = owner[step[0]] if isinstance(step, tuple) \
                    else getattr(owner, step)
            setattr(owner, path[-1], value)
    return perturb


def _nudged(value: Any, large: bool) -> Any:
    """A small step, or a large one (an address moved by one byte stays
    in its block)."""
    if isinstance(value, int):
        return 2 * value + 4096 if large else value + 1
    if large:
        return value + 4096.0
    return value * 1.5 if value else value + 0.5


def _moves(config: SystemConfig, written: List[Tuple[Path_, Any]],
           reference: str) -> bool:
    """Whether perturbing every written instance at once moves a byte."""
    for large in (False, True):
        perturb = _setter([(path, _nudged(value, large))
                           for path, value in written])
        try:
            if _run(config, perturb)[0] != reference:
                return True
        except Exception:  # noqa: BLE001 - a crash reads the value
            return True
    return False


def test_every_written_counter_changes_a_result():
    """Every instance of an attribute written in one system is perturbed
    at once, system by system, until a perturbation moves a byte; an
    allow-listed attribute only in the first system that writes it."""
    read: Dict[str, bool] = {}
    for spec in SPECS:
        for predictor in PREDICTORS:
            config = _config(spec, predictor)
            captured: Dict[Path_, Tuple[str, Any]] = {}
            reference, system = _run(
                config, lambda system: captured.update(_counters(system)))
            after = _counters(system)
            written: Dict[str, List[Tuple[Path_, Any]]] = {}
            for path, (name, value) in captured.items():
                if after.get(path, (name, value))[1] != value:
                    written.setdefault(name, []).append((path, value))
            for name, instances in written.items():
                if read.get(name) or (name in read and tuple(
                        name.split(".")) in ALLOWED):
                    continue
                read[name] = _moves(config, instances, reference)
    dead = sorted(name for name, moved in read.items()
                  if not moved and tuple(name.split(".")) not in ALLOWED)
    stale = sorted(f"{owner}.{name}" for owner, name in ALLOWED
                   if read.get(f"{owner}.{name}"))
    assert not (dead or stale), (
        f"written counters no result reads: {dead}; allow-listed "
        f"counters that do change a result: {stale}")
