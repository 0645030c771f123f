"""Cache replacement policies.

The paper's configuration uses LRU everywhere (Table I).  We additionally
provide tree-PLRU, random and SRRIP policies, both so the cache model can be
reused as a general substrate and so ablation benchmarks can explore whether
the level-prediction results are sensitive to the replacement policy.

A replacement policy instance is owned by a single cache and tracks per-set
metadata keyed by ``(set_index, way)``.  Policies are deliberately stateless
with respect to addresses: the cache tells the policy which way was touched,
filled or invalidated and asks it which way to victimise.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence


class ReplacementPolicy(ABC):
    """Interface implemented by every replacement policy."""

    __slots__ = ("num_sets", "associativity")

    def __init__(self, num_sets: int, associativity: int) -> None:
        if num_sets <= 0:
            raise ValueError("num_sets must be positive")
        if associativity <= 0:
            raise ValueError("associativity must be positive")
        self.num_sets = num_sets
        self.associativity = associativity

    @abstractmethod
    def on_access(self, set_index: int, way: int) -> None:
        """Record a hit (or a fill immediately followed by use) on a way."""

    @abstractmethod
    def on_fill(self, set_index: int, way: int) -> None:
        """Record that a new line was installed into ``way``."""

    @abstractmethod
    def victim(self, set_index: int, valid_ways: Sequence[bool]) -> int:
        """Choose a way to evict.

        Invalid ways (``valid_ways[w]`` is False) are always preferred over
        evicting live data, matching real cache controllers.
        """

    def on_invalidate(self, set_index: int, way: int) -> None:
        """Record that a way was invalidated (default: no-op)."""

    def _first_invalid(self, valid_ways: Sequence[bool]) -> Optional[int]:
        # list.index runs at C speed; the common case (every way valid) is a
        # single containment scan with no Python-level iteration.
        if False in valid_ways:
            return valid_ways.index(False)
        return None


class LRUPolicy(ReplacementPolicy):
    """True least-recently-used replacement.

    Recency is tracked with a monotonically increasing logical clock; the
    victim is the valid way with the smallest timestamp.  A set's stamps
    are allocated on its first touch (``None`` until then), so a large,
    sparsely used cache pays only for the sets it uses.
    """

    __slots__ = ("_clock", "_timestamps")

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__(num_sets, associativity)
        self._clock = 0
        self._timestamps: List[Optional[List[int]]] = [None] * num_sets

    def _stamps(self, set_index: int) -> List[int]:
        stamps = self._timestamps[set_index]
        if stamps is None:
            stamps = self._timestamps[set_index] = [0] * self.associativity
        return stamps

    def on_access(self, set_index: int, way: int) -> None:
        self._clock += 1
        self._stamps(set_index)[way] = self._clock

    def on_fill(self, set_index: int, way: int) -> None:
        self._clock += 1
        self._stamps(set_index)[way] = self._clock

    def on_invalidate(self, set_index: int, way: int) -> None:
        self._stamps(set_index)[way] = 0

    def victim(self, set_index: int, valid_ways: Sequence[bool]) -> int:
        if False in valid_ways:
            return valid_ways.index(False)
        stamps = self._stamps(set_index)
        # index(min(...)) keeps the original first-minimum tie-break while
        # running both passes at C speed (no per-way lambda call).
        return stamps.index(min(stamps))


class TreePLRUPolicy(ReplacementPolicy):
    """Binary-tree pseudo-LRU, the common hardware approximation of LRU.

    The associativity must be a power of two.  Each set keeps
    ``associativity - 1`` direction bits arranged as an implicit binary tree;
    an access flips the bits along the path away from the touched way, and the
    victim is found by following the bits toward the least recently used side.
    """

    __slots__ = ("_bits",)

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__(num_sets, associativity)
        if associativity & (associativity - 1) != 0:
            raise ValueError("tree PLRU requires a power-of-two associativity")
        self._bits: List[List[bool]] = [
            [False] * max(associativity - 1, 1) for _ in range(num_sets)
        ]

    def _update_path(self, set_index: int, way: int) -> None:
        bits = self._bits[set_index]
        node = 0
        low, high = 0, self.associativity
        while high - low > 1:
            mid = (low + high) // 2
            go_right = way >= mid
            # Point the bit away from the accessed half.
            bits[node] = not go_right
            if go_right:
                node = 2 * node + 2
                low = mid
            else:
                node = 2 * node + 1
                high = mid

    def on_access(self, set_index: int, way: int) -> None:
        self._update_path(set_index, way)

    def on_fill(self, set_index: int, way: int) -> None:
        self._update_path(set_index, way)

    def victim(self, set_index: int, valid_ways: Sequence[bool]) -> int:
        invalid = self._first_invalid(valid_ways)
        if invalid is not None:
            return invalid
        bits = self._bits[set_index]
        node = 0
        low, high = 0, self.associativity
        while high - low > 1:
            mid = (low + high) // 2
            if bits[node]:
                node = 2 * node + 2
                low = mid
            else:
                node = 2 * node + 1
                high = mid
        return low


class RandomPolicy(ReplacementPolicy):
    """Random replacement with a seeded private RNG for reproducibility."""

    __slots__ = ("_rng",)

    def __init__(self, num_sets: int, associativity: int, seed: int = 0) -> None:
        super().__init__(num_sets, associativity)
        self._rng = random.Random(seed)

    def on_access(self, set_index: int, way: int) -> None:
        pass

    def on_fill(self, set_index: int, way: int) -> None:
        pass

    def victim(self, set_index: int, valid_ways: Sequence[bool]) -> int:
        invalid = self._first_invalid(valid_ways)
        if invalid is not None:
            return invalid
        return self._rng.randrange(self.associativity)


class SRRIPPolicy(ReplacementPolicy):
    """Static re-reference interval prediction (SRRIP) with 2-bit RRPVs.

    Lines are inserted with a long re-reference prediction and promoted to the
    shortest one on a hit; the victim is the first way holding the maximum
    RRPV, aging the whole set until one is found.
    """

    MAX_RRPV = 3

    __slots__ = ("_rrpv",)

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__(num_sets, associativity)
        self._rrpv: List[List[int]] = [
            [self.MAX_RRPV] * associativity for _ in range(num_sets)
        ]

    def on_access(self, set_index: int, way: int) -> None:
        self._rrpv[set_index][way] = 0

    def on_fill(self, set_index: int, way: int) -> None:
        self._rrpv[set_index][way] = self.MAX_RRPV - 1

    def on_invalidate(self, set_index: int, way: int) -> None:
        self._rrpv[set_index][way] = self.MAX_RRPV

    def victim(self, set_index: int, valid_ways: Sequence[bool]) -> int:
        invalid = self._first_invalid(valid_ways)
        if invalid is not None:
            return invalid
        rrpvs = self._rrpv[set_index]
        while True:
            for way in range(self.associativity):
                if rrpvs[way] >= self.MAX_RRPV:
                    return way
            for way in range(self.associativity):
                rrpvs[way] += 1


_POLICIES: Dict[str, type] = {
    "lru": LRUPolicy,
    "plru": TreePLRUPolicy,
    "random": RandomPolicy,
    "srrip": SRRIPPolicy,
}


def make_replacement_policy(
    name: str, num_sets: int, associativity: int
) -> ReplacementPolicy:
    """Instantiate a replacement policy by name.

    Args:
        name: One of ``lru``, ``plru``, ``random``, ``srrip``.
        num_sets: Number of sets in the owning cache.
        associativity: Ways per set.

    Raises:
        ValueError: If the policy name is unknown.
    """
    try:
        cls = _POLICIES[name.lower()]
    except KeyError as exc:
        raise ValueError(
            f"unknown replacement policy {name!r}; "
            f"choose from {sorted(_POLICIES)}"
        ) from exc
    return cls(num_sets, associativity)
