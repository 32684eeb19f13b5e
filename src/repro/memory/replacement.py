"""Cache replacement policies.

Each cache set owns one policy instance tracking way metadata.  Policies
are fully decoupled from the associative array (the paper stresses that
zsim's cache models keep array, replacement, and coherence separate for
modularity).
"""

from __future__ import annotations

import random


class ReplacementPolicy:
    """Interface: per-set policy over ``ways`` ways."""

    __slots__ = ("ways",)

    def __init__(self, ways):
        self.ways = ways

    def touch(self, way):
        """Record a hit/fill on ``way``."""
        raise NotImplementedError

    def victim(self):
        """Pick the way to evict (set is full)."""
        raise NotImplementedError


class LRU(ReplacementPolicy):
    """True least-recently-used, as per-way recency stamps.

    A touch writes one monotonically increasing stamp (O(1), ISSUE 10 —
    the recency-list representation paid an O(ways) ``list.remove`` on
    the walk's hottest op); the victim is the way with the smallest
    stamp.  Stamps are always distinct, so the victim sequence is
    exactly the recency-list one: initial stamps ``0..ways-1`` make way
    0 the first victim, and every touch moves a way logically to the
    end of the order.
    """

    __slots__ = ("_stamp", "_clock")

    def __init__(self, ways):
        super().__init__(ways)
        self._stamp = list(range(ways))
        self._clock = ways

    def __getstate__(self):
        # The most numerous object in a capsule: tuples pickle fastest.
        return self.ways, self._stamp, self._clock

    def __setstate__(self, state):
        self.ways, self._stamp, self._clock = state

    def touch(self, way):
        self._stamp[way] = self._clock
        self._clock += 1

    def victim(self):
        stamp = self._stamp
        return stamp.index(min(stamp))


class TreePLRU(ReplacementPolicy):
    """Tree pseudo-LRU, the common hardware approximation.

    Ways must be a power of two; the policy keeps a binary tree of
    direction bits.
    """

    __slots__ = ("_bits",)

    def __init__(self, ways):
        if ways & (ways - 1):
            raise ValueError("TreePLRU requires power-of-two ways")
        super().__init__(ways)
        self._bits = [0] * max(1, ways - 1)

    def touch(self, way):
        # Walk from root to the leaf for `way`, pointing bits away from it.
        node = 0
        lo, hi = 0, self.ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if way < mid:
                self._bits[node] = 1  # point at the right half
                node = 2 * node + 1
                hi = mid
            else:
                self._bits[node] = 0  # point at the left half
                node = 2 * node + 2
                lo = mid
        return None

    def victim(self):
        node = 0
        lo, hi = 0, self.ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._bits[node] == 0:
                node = 2 * node + 1
                hi = mid
            else:
                node = 2 * node + 2
                lo = mid
        return lo


class RandomRepl(ReplacementPolicy):
    """Random replacement with a deterministic per-set RNG."""

    __slots__ = ("_rng",)

    def __init__(self, ways, seed=0):
        super().__init__(ways)
        self._rng = random.Random(seed)

    def touch(self, way):
        return None

    def victim(self):
        return self._rng.randrange(self.ways)


_POLICIES = {"lru": LRU, "tree": TreePLRU, "random": RandomRepl}


def make_policy(name, ways, seed=0):
    """Instantiate a replacement policy by config name."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError("Unknown replacement policy: %r" % (name,))
    if cls is RandomRepl:
        return cls(ways, seed)
    return cls(ways)
