"""On-chip interconnect latency and contention model.

The private L1/L2 caches talk to the shared LLC and the memory controller over
a shared bus (the paper describes the level predictor as "attached to the L2
bus" and misprediction recovery as "a new transaction over the shared bus").
This module provides a small latency model for those hops plus a utilisation-
based contention penalty for multi-core runs, where LLC contention is one of
the reasons multi-core prediction accuracy and speedup differ from single-core
(Section V.D).
"""

from __future__ import annotations

from .spec import InterconnectSpec


class Interconnect:
    """Latency calculator for hops between hierarchy levels.

    Hop latencies come from the :class:`~repro.memory.spec.InterconnectSpec`.
    Every shared-resource hop (into the LLC, to memory, recovery and
    cache-to-cache transfers) also pays :attr:`contention`: the spec's
    ``contention_per_extra_core`` for each active core beyond the first, a
    simple stand-in for queueing at the LLC and bus arbitration.  The
    walker reads :attr:`spec` and :attr:`contention` once and charges the
    L1-to-L2 and LLC-to-memory hops inline.
    """

    __slots__ = ("spec", "active_cores", "contention", "transfers",
                 "recovery_transactions")

    def __init__(self, spec: InterconnectSpec = InterconnectSpec(),
                 active_cores: int = 1) -> None:
        self.spec = spec
        self.active_cores = max(1, active_cores)
        self.contention = (self.active_cores - 1) \
            * spec.contention_per_extra_core
        self.transfers = 0
        self.recovery_transactions = 0

    def l2_to_llc_latency(self) -> float:
        self.transfers += 1
        return self.spec.l2_to_llc + self.contention

    def recovery_latency(self) -> float:
        """Latency of the directory-issued recovery transaction."""
        self.recovery_transactions += 1
        return self.spec.recovery_transaction + self.contention

    def cache_to_cache_latency(self) -> float:
        """Latency of a cache-to-cache forward between private caches."""
        self.transfers += 1
        return self.spec.l2_to_llc + self.spec.l1_to_l2 + self.contention

    def reset_statistics(self) -> None:
        self.transfers = 0
        self.recovery_transactions = 0
