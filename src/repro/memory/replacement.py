"""Cache replacement policies that name ways.

True LRU needs no policy object: an LRU set is a line map whose
insertion order is the recency order (see repro.memory.cache_array).
The policies here pick a *way*, so each set of a ``tree`` or ``random``
array owns one instance, which also owns that set's way list and
line -> way map.  Policies stay decoupled from the associative array
(the paper stresses that zsim's cache models keep array, replacement,
and coherence separate for modularity).
"""

from __future__ import annotations

import random


class ReplacementPolicy:
    """Interface: per-set policy over ``ways`` ways.  Subclasses define
    ``touch`` and ``victim``; the way bookkeeping is shared."""

    __slots__ = ("ways", "_way_line", "_line_way")

    def __init__(self, ways):
        self.ways = ways
        self._way_line = [None] * ways   # way -> resident line
        self._line_way = {}              # resident line -> way

    def touch(self, way):
        """Record a hit/fill on ``way``."""
        raise NotImplementedError

    def victim(self):
        """Pick the way to evict (set is full)."""
        raise NotImplementedError

    def fill(self, line):
        """Place ``line`` in the lowest free way."""
        self._place(self._way_line.index(None), line)

    def replace(self, line):
        """Evict the victim way's line for ``line``; returns the evicted
        line."""
        way = self.victim()
        evicted = self._way_line[way]
        del self._line_way[evicted]
        self._place(way, line)
        return evicted

    def _place(self, way, line):
        self._way_line[way] = line
        self._line_way[line] = way
        self.touch(way)

    def hit(self, line):
        """Record a hit on resident ``line``."""
        self.touch(self._line_way[line])

    def free(self, line):
        """Forget invalidated ``line``: its way becomes free."""
        self._way_line[self._line_way.pop(line)] = None


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


_POLICIES = {"lru": None, "tree": TreePLRU, "random": RandomRepl}


def make_policy(name, ways, seed=0):
    """Instantiate a replacement policy by config name: None for
    ``lru``, whose sets need no policy object."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError("Unknown replacement policy: %r" % (name,))
    if cls is None:
        return None
    if cls is RandomRepl:
        return cls(ways, seed)
    return cls(ways)
