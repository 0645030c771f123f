"""Prefetch throttling mechanisms.

Section IV.A of the paper describes two throttling mechanisms used by the
baseline because always-on aggressive prefetchers hurt some applications
(e.g. 605.mcf):

1. **MSHR reservation** — 25 % of MSHR entries are reserved for demand
   accesses.  The hierarchy walker implements it as a prefetch budget: the
   prefetches issued over its recent demand accesses may not exceed the
   non-reserved share of the deepest private level's ``mshr_entries``
   (``mshr_demand_reserve``; see
   :meth:`repro.memory.hierarchy.CoreMemoryHierarchy._issue_prefetch`).
2. **Accuracy-gated epochs** — in each epoch of N accesses the prefetcher runs
   for the first N/10 accesses ("sampling window"), its accuracy is measured,
   and it is disabled for the remaining 9N/10 accesses if accuracy fell below
   a threshold (40 % in the paper).

:class:`ThrottledPrefetcher` wraps any prefetcher with mechanism 2.
"""

from __future__ import annotations

from typing import List

from .base import PrefetchAccess, Prefetcher


class ThrottledPrefetcher(Prefetcher):
    """Accuracy-gated epoch throttling wrapper around another prefetcher.

    Args:
        inner: The prefetcher being throttled.
        epoch_accesses: Length of one epoch in observed demand accesses.  The
            paper uses 10 million; simulations over short synthetic traces use
            a proportionally smaller epoch.
        sample_fraction: Fraction of the epoch during which the prefetcher is
            always enabled and its accuracy sampled.
        accuracy_threshold: Minimum sampled accuracy to keep the prefetcher
            enabled for the rest of the epoch.
    """

    def __init__(self, inner: Prefetcher, epoch_accesses: int = 100_000,
                 sample_fraction: float = 0.1,
                 accuracy_threshold: float = 0.4) -> None:
        super().__init__(degree=inner.degree, block_size=inner.block_size)
        if epoch_accesses <= 0:
            raise ValueError("epoch_accesses must be positive")
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        self.inner = inner
        self.epoch_accesses = epoch_accesses
        self.sample_accesses = max(1, int(epoch_accesses * sample_fraction))
        self.accuracy_threshold = accuracy_threshold
        self._epoch_position = 0
        self._sample_useful = 0
        self._sample_useless = 0
        self._gated = False
        self.epochs_gated = 0
        self.epochs_completed = 0

    # ------------------------------------------------------------------
    # Prefetcher interface
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"Throttled({self.inner.name})"

    def _generate(self, access: PrefetchAccess) -> List[int]:
        self._advance_epoch()
        in_sample = self._epoch_position <= self.sample_accesses
        if in_sample or not self._gated:
            return self.inner._generate(access)
        # Gated: keep the inner predictor trained but drop its requests.
        self.inner._generate(access)
        return []

    def _advance_epoch(self) -> None:
        self._epoch_position += 1
        if self._epoch_position == self.sample_accesses + 1:
            # Sampling window just ended: decide whether to gate.
            accuracy = self._sample_accuracy()
            self._gated = accuracy < self.accuracy_threshold
            if self._gated:
                self.epochs_gated += 1
        if self._epoch_position >= self.epoch_accesses:
            self._epoch_position = 0
            self._sample_useful = 0
            self._sample_useless = 0
            self._gated = False
            self.epochs_completed += 1

    def _sample_accuracy(self) -> float:
        resolved = self._sample_useful + self._sample_useless
        if resolved == 0:
            # No feedback yet: give the prefetcher the benefit of the doubt.
            return 1.0
        return self._sample_useful / resolved

    # ------------------------------------------------------------------
    # Feedback (forwarded to the inner prefetcher and sampled)
    # ------------------------------------------------------------------
    def record_useful(self, count: int = 1) -> None:
        super().record_useful(count)
        self.inner.record_useful(count)
        if self._epoch_position <= self.sample_accesses:
            self._sample_useful += count

    def record_useless(self, count: int = 1) -> None:
        super().record_useless(count)
        self.inner.record_useless(count)
        if self._epoch_position <= self.sample_accesses:
            self._sample_useless += count

    @property
    def currently_gated(self) -> bool:
        return self._gated and self._epoch_position > self.sample_accesses

    def reset_statistics(self) -> None:
        super().reset_statistics()
        self.inner.reset_statistics()
        self.epochs_gated = 0
        self.epochs_completed = 0
