"""Deterministic, seedable fault-injection plane.

The service's north star is surviving real traffic, and a robustness claim
nobody can exercise is not a claim.  This module turns every failure mode
the stack recovers from — a disk throwing ``EIO`` mid-append, a torn write,
a crashing worker, a hung simulation, a dropped connection — into a
*scheduled, reproducible event*: a declarative fault schedule names a
**site** (a choke point the production code calls through), a **kind** of
fault and the deterministic parameters deciding when it fires.

Fault sites
===========

======================  ====================================================
site                    where the hook sits
======================  ====================================================
``store.append``        :func:`repro.sim.store._append_payload`, after the
                        torn-tail repair and before the single ``write``
``store.read``          :meth:`repro.sim.store.ResultStore.get`
``trace.save``          :meth:`repro.trace.TraceBuffer.save`
``trace.load``          :meth:`repro.trace.TraceBuffer.load`
``worker.job``          :func:`repro.sim.engine.execute_job`
``service.response``    the daemon's socket handler, before the response
                        line is written; a fired fault closes the
                        connection
``client.connect``      :meth:`repro.service.ServiceClient._connect`, once
                        per new connection (not per request: a client
                        reuses its thread's open connection)
======================  ====================================================

Fault kinds
===========

=============  ============================================================
kind           effect at the site
=============  ============================================================
``eio``        raise ``OSError(EIO)`` — a failing disk / torn socket
``enospc``     raise ``OSError(ENOSPC)`` — media full
``torn``       at byte-writing sites (``store.append``, ``trace.save``):
               write only a prefix of the payload, then raise
               ``OSError(EIO)`` — a process killed mid-write; elsewhere
               equivalent to ``eio``
``crash``      raise :class:`InjectedCrashError` — an exception escaping a
               worker the way a real bug would
``kill``       ``os._exit(86)`` — genuine process death.  Acts only in a
               worker *child* process (a process-pool worker); in the main
               or daemon process the rule is evaluated but inert, so a
               schedule can never take the process under test down (use
               ``crash`` for thread-pool workers)
``latency``    sleep ``ms`` milliseconds, then continue (a slow disk / GC
               pause); the only kind that does not raise
``drop``       raise ``ConnectionResetError`` — a dropped connection
=============  ============================================================

Schedules
=========

A schedule is a ``;``-separated list of rules::

    store.append:eio@p=0.05,seed=7
    worker.job:crash@p=0.3,seed=3,times=5;service.response:drop@times=2

Each rule is ``site:kind`` plus optional ``@key=value`` parameters:

``p``      firing probability per evaluation (default 1.0), drawn from the
           rule's **own** seeded RNG — the decision sequence depends only on
           ``seed`` and the evaluation count, never on wall clock or PID;
``seed``   RNG seed (default 0);
``times``  cap on total fires (default unbounded) — the knob that makes
           chaos tests convergent: retries always win eventually;
``after``  evaluations to skip before the rule may fire (default 0);
``ms``     latency duration for ``latency`` rules (default 10).

Schedules come from the ``REPRO_FAULTS`` environment variable (so engine
worker processes inherit them) or programmatically via :func:`install`.
**Off by default with zero hot-path overhead**: the hooks sit at
store/trace/job/connection granularity — never inside the per-access replay
loop — and with no plane installed :func:`fault_point` is one global load
and a ``None`` check (see the ``fault_plane`` section of
``BENCH_throughput.json`` for the pinned numbers).

Faults may cost retries; they must never cost correctness.  The chaos
harness (``tests/test_faults.py``) runs the golden grid under randomized
schedules and asserts the final stats are bit-identical to
``GOLDEN_stats.json``.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import random
import threading
import time
from typing import Any, Dict, List, Optional

#: Environment variable carrying the fault schedule ("" / unset disables).
REPRO_FAULTS_ENV = "REPRO_FAULTS"

#: Every hook site the production code calls through.
FAULT_SITES = (
    "store.append",
    "store.read",
    "trace.save",
    "trace.load",
    "worker.job",
    "service.response",
    "client.connect",
)

#: Injectable fault kinds (see the module docstring for semantics).
FAULT_KINDS = ("eio", "enospc", "torn", "crash", "kill", "latency", "drop")

#: Sites that pass a payload size and honour partial-write ``torn`` faults.
_TORN_SITES = frozenset({"store.append", "trace.save"})

#: Exit status of an injected ``kill`` (distinctive in waitpid output).
KILL_EXIT_STATUS = 86

#: Default latency fault duration (milliseconds).
DEFAULT_LATENCY_MS = 10.0


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` / ``--faults`` schedule that does not parse."""


class InjectedCrashError(RuntimeError):
    """An injected worker crash (the ``crash`` kind, and ``kill`` outside
    worker child processes)."""


def _injected_os_error(code: int, site: str) -> OSError:
    """A *genuine* OSError — recovery code must treat injected faults
    exactly like real ones, so nothing marks them as synthetic."""
    return OSError(code, f"injected fault at {site}: {os.strerror(code)}")


# ======================================================================
# Rules
# ======================================================================
class FaultRule:
    """One scheduled fault: a (site, kind) plus deterministic firing state.

    The decision sequence is a pure function of (seed, evaluation index):
    every evaluation draws from the rule's private ``random.Random``, so a
    schedule replays identically across runs with the same call sequence.
    """

    __slots__ = ("site", "kind", "p", "seed", "times", "after", "ms",
                 "evaluated", "fired", "_rng")

    def __init__(self, site: str, kind: str, p: float = 1.0, seed: int = 0,
                 times: Optional[int] = None, after: int = 0,
                 ms: float = DEFAULT_LATENCY_MS) -> None:
        if site not in FAULT_SITES:
            raise FaultSpecError(
                f"unknown fault site {site!r}; known: "
                f"{', '.join(FAULT_SITES)}")
        if kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r}; known: "
                f"{', '.join(FAULT_KINDS)}")
        if not 0.0 <= p <= 1.0:
            raise FaultSpecError(f"fault probability p={p} outside [0, 1]")
        if times is not None and times < 0:
            raise FaultSpecError(f"times={times} must be >= 0")
        if after < 0:
            raise FaultSpecError(f"after={after} must be >= 0")
        if ms < 0:
            raise FaultSpecError(f"ms={ms} must be >= 0")
        self.site = site
        self.kind = kind
        self.p = p
        self.seed = seed
        self.times = times
        self.after = after
        self.ms = ms
        self.evaluated = 0
        self.fired = 0
        self._rng = random.Random(seed)

    def decide(self) -> bool:
        """One deterministic firing decision.  Caller holds the plane lock.

        The RNG is always advanced (even while ``after`` suppresses or
        ``times`` exhausts the rule), so the decision at evaluation *i*
        depends only on the seed — never on the other parameters.
        """
        self.evaluated += 1
        draw = self._rng.random()
        if self.times is not None and self.fired >= self.times:
            return False
        if self.evaluated <= self.after:
            return False
        if draw < self.p:
            self.fired += 1
            return True
        return False

    def spec(self) -> str:
        """The rule back in schedule syntax (parse/format round-trip)."""
        params = []
        if self.p != 1.0:
            params.append(f"p={self.p}")
        if self.seed:
            params.append(f"seed={self.seed}")
        if self.times is not None:
            params.append(f"times={self.times}")
        if self.after:
            params.append(f"after={self.after}")
        if self.kind == "latency" and self.ms != DEFAULT_LATENCY_MS:
            params.append(f"ms={self.ms}")
        tail = "@" + ",".join(params) if params else ""
        return f"{self.site}:{self.kind}{tail}"


def parse_schedule(spec: str) -> List[FaultRule]:
    """Parse a schedule string into rules (see the module docstring).

    Raises :class:`FaultSpecError` with the offending entry named — a typo
    in a chaos schedule must fail loudly, not silently inject nothing.
    """
    rules: List[FaultRule] = []
    for raw_entry in spec.replace("\n", ";").split(";"):
        entry = raw_entry.strip()
        if not entry:
            continue
        head, _, param_text = entry.partition("@")
        site, sep, kind = head.strip().partition(":")
        if not sep or not site or not kind:
            raise FaultSpecError(
                f"malformed fault entry {entry!r} (expected "
                f"'site:kind[@p=..,seed=..,times=..,after=..,ms=..]')")
        params: Dict[str, Any] = {}
        for raw_param in param_text.split(","):
            param = raw_param.strip()
            if not param:
                continue
            key, sep, value = param.partition("=")
            key = key.strip()
            if not sep or key not in ("p", "seed", "times", "after", "ms"):
                raise FaultSpecError(
                    f"malformed fault parameter {param!r} in {entry!r}")
            try:
                params[key] = float(value) if key in ("p", "ms") \
                    else int(value)
            except ValueError:
                raise FaultSpecError(
                    f"non-numeric fault parameter {param!r} in "
                    f"{entry!r}") from None
        rules.append(FaultRule(site.strip(), kind.strip(), **params))
    return rules


# ======================================================================
# The plane
# ======================================================================
class FaultPlane:
    """An installed fault schedule plus its firing counters.

    One lock guards all decision state: fault sites are store appends,
    job launches and connection handshakes — never the per-access hot
    loop — so a mutex here costs nothing that matters.
    """

    def __init__(self, rules: List[FaultRule]) -> None:
        self.rules = list(rules)
        self._by_site: Dict[str, List[FaultRule]] = {}
        for rule in self.rules:
            self._by_site.setdefault(rule.site, []).append(rule)
        self._lock = threading.Lock()

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlane":
        return cls(parse_schedule(spec))

    def check(self, site: str,
              payload_size: Optional[int] = None) -> Optional[int]:
        """Evaluate the rules for ``site``; raise / sleep / return torn size.

        Returns ``None`` (no fault) or, for a fired ``torn`` rule at a site
        that passed ``payload_size``, the number of payload bytes the site
        must write before raising ``OSError(EIO)`` itself.
        """
        rules = self._by_site.get(site)
        if not rules:
            return None
        fired: List[FaultRule] = []
        torn_prefix: Optional[int] = None
        with self._lock:
            for rule in rules:
                if rule.decide():
                    fired.append(rule)
                    if rule.kind == "torn" and payload_size is not None \
                            and site in _TORN_SITES:
                        # Deterministic partial length from the same RNG.
                        torn_prefix = rule._rng.randrange(
                            max(payload_size, 1))
        for rule in fired:
            self._act(rule, site, torn_prefix)
        return None

    def _act(self, rule: FaultRule, site: str,
             torn_prefix: Optional[int]) -> Optional[int]:
        kind = rule.kind
        if kind == "latency":
            time.sleep(rule.ms / 1000.0)
            return None
        if kind == "eio":
            raise _injected_os_error(errno.EIO, site)
        if kind == "enospc":
            raise _injected_os_error(errno.ENOSPC, site)
        if kind == "torn":
            if torn_prefix is not None:
                raise TornWrite(torn_prefix, site)
            raise _injected_os_error(errno.EIO, site)
        if kind == "drop":
            raise ConnectionResetError(
                f"injected fault at {site}: connection dropped")
        if kind == "kill":
            # Genuine process death, but only in a pool worker *child*:
            # in the daemon / main process the rule is evaluated (its
            # times budget advances identically, keeping schedules
            # deterministic across processes) yet inert, so a schedule
            # can never take the process under test down — and the
            # pool's post-kill thread fallback completes instead of
            # re-dying on the same rule.  Use ``crash`` to fail
            # thread-pool workers.
            if _in_worker_child():
                os._exit(KILL_EXIT_STATUS)
            return None
        if kind == "crash":
            raise InjectedCrashError(
                f"injected fault at {site}: worker crash")
        raise AssertionError(f"unhandled fault kind {kind!r}")

    def counters(self) -> Dict[str, Dict[str, int]]:
        """Per-rule evaluation/fire counts, keyed by the rule's spec."""
        with self._lock:
            return {rule.spec(): {"evaluated": rule.evaluated,
                                  "fired": rule.fired}
                    for rule in self.rules}

    def total_fired(self) -> int:
        with self._lock:
            return sum(rule.fired for rule in self.rules)


class TornWrite(Exception):
    """Internal control flow: a fired ``torn`` rule at a payload site.

    :func:`fault_point` converts this into its return value; it never
    escapes to production code.
    """

    def __init__(self, prefix: int, site: str) -> None:
        super().__init__(f"injected torn write at {site} "
                         f"(prefix {prefix} bytes)")
        self.prefix = prefix


def _in_worker_child() -> bool:
    """True in a process spawned by a worker pool (never the daemon)."""
    return multiprocessing.parent_process() is not None


# ======================================================================
# The process-global hook
# ======================================================================
#: The installed plane; ``None`` when fault injection is off.
_PLANE: Optional[FaultPlane] = None

#: Whether ``REPRO_FAULTS`` has been consulted in this process.
_RESOLVED = False


def active_plane() -> Optional[FaultPlane]:
    """The installed plane, lazily resolving ``REPRO_FAULTS`` once.

    Lazy resolution is what lets engine *worker processes* — which never
    run a CLI entry point — inherit the parent's schedule through the
    environment.
    """
    global _PLANE, _RESOLVED
    if not _RESOLVED:
        spec = os.environ.get(REPRO_FAULTS_ENV, "").strip()
        _PLANE = FaultPlane.from_spec(spec) if spec else None
        _RESOLVED = True
    return _PLANE


def install(spec_or_plane: Any) -> FaultPlane:
    """Install a schedule programmatically (tests; ``--faults``)."""
    global _PLANE, _RESOLVED
    plane = spec_or_plane if isinstance(spec_or_plane, FaultPlane) \
        else FaultPlane.from_spec(str(spec_or_plane))
    _PLANE = plane
    _RESOLVED = True
    return plane


def uninstall() -> None:
    """Remove any installed plane and forget the env resolution."""
    global _PLANE, _RESOLVED
    _PLANE = None
    _RESOLVED = False


def fault_point(site: str, payload_size: Optional[int] = None
                ) -> Optional[int]:
    """The hook production code calls at every fault site.

    With no plane installed this is one global load, one branch and (the
    first time in a process) one environment lookup — nothing allocates,
    nothing locks.  With a plane installed, see :meth:`FaultPlane.check`:
    the call may raise (eio/enospc/crash/drop), sleep (latency), exit the
    worker process (kill) or return the byte count of a torn write for the
    site to honour.
    """
    plane = _PLANE if _RESOLVED else active_plane()
    if plane is None:
        return None
    try:
        return plane.check(site, payload_size)
    except TornWrite as torn:
        return torn.prefix


def counters_snapshot() -> Dict[str, Dict[str, int]]:
    """Per-rule counters of the installed plane ({} when off)."""
    plane = _PLANE if _RESOLVED else active_plane()
    return plane.counters() if plane is not None else {}
