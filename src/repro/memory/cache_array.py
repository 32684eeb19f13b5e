"""Set-associative cache array, fully decoupled from coherence logic.

The array stores MESI states for lines and answers lookup /
invalidate; the coherence walk fills it in place (``_materialise``,
``_free``), delegating victim choice to a replacement policy.  Shared
caches are banked at a level above this (one array per bank).
"""

from __future__ import annotations

import zlib

from repro.memory.replacement import make_policy

#: The line map every untouched set shares.  Never written: the two fill
#: sites materialise a set first, and every other path only reads
#: (``get`` / ``pop`` with a default / ``in`` all miss on it).
_NO_LINES = {}


class CacheArray:
    """One bank's worth of sets x ways.

    Per-set state is sparse: a set that no fill has reached yet holds no
    dict, way list or policy object of its own — ``_repl[idx] is None``
    marks it, ``_lines[idx]`` is the shared empty map and ``_ways[idx]``
    a shared all-free tuple — and :meth:`_materialise` builds the real
    thing on the first fill.  Host cost then follows the sets a run
    touches, not the sets the chip was configured with.  ``_free`` (and
    the cheap integrity digest over it) deliberately stays dense, one
    byte per set: an array has at most 255 ways.
    """

    __slots__ = ("num_sets", "hash_sets", "ways", "repl", "seed", "_free",
                 "_lines", "_ways", "_repl")

    def __init__(self, num_sets, ways, repl="lru", seed=0,
                 hash_sets=False):
        if num_sets < 1 or not 1 <= ways <= 255:
            raise ValueError("Array needs at least one set and 1-255 ways")
        self.num_sets = num_sets
        #: XOR-fold the upper address bits into the set index (zsim's
        #: hashed arrays): spreads pathological strides across sets.
        self.hash_sets = hash_sets
        self.ways = ways
        #: Policy name and seed base: set ``idx`` gets its policy seeded
        #: ``seed + idx`` whenever it is materialised, so a lazily built
        #: ``random`` set draws the victims an eagerly built one would.
        self.repl = repl
        self.seed = seed
        make_policy(repl, ways, seed)  # reject a bad name or geometry now
        self._blank_sets()
        #: Free ways per set: lets a steady-state fill (full set) skip
        #: the way scan and go straight to the replacement policy.
        self._free = bytearray([ways]) * num_sets

    def _blank_sets(self):
        # Per set: line -> (way, state); way -> line; replacement policy.
        self._lines = [_NO_LINES] * self.num_sets
        self._ways = [(None,) * self.ways] * self.num_sets
        self._repl = [None] * self.num_sets

    def _materialise(self, idx):
        """Give untouched set ``idx`` its own line map, way list and
        replacement policy; returns the three."""
        lines = self._lines[idx] = {}
        ways = self._ways[idx] = [None] * self.ways
        repl = self._repl[idx] = make_policy(self.repl, self.ways,
                                             self.seed + idx)
        return lines, ways, repl

    def num_materialised(self):
        """How many sets own state (a C-speed count, for stats)."""
        return self.num_sets - self._repl.count(None)

    def materialised_sets(self):
        """Indices of the sets that own state, ascending."""
        return [idx for idx, repl in enumerate(self._repl)
                if repl is not None]

    def __getstate__(self):
        # Carry only materialised sets: capsules and snapshots shrink
        # with the array, and the placeholders are rebuilt on load
        # rather than pickled (an unpickled copy of the shared map would
        # no longer be the object the rest of the module knows).
        lines, ways, repl = self._lines, self._ways, self._repl
        return (self.num_sets, self.hash_sets, self.ways, self.repl,
                self.seed, self._free,
                {idx: (lines[idx], ways[idx], repl[idx])
                 for idx in self.materialised_sets()})

    def __setstate__(self, state):
        (self.num_sets, self.hash_sets, self.ways, self.repl, self.seed,
         self._free, sets) = state
        self._blank_sets()
        for idx, (lines, ways, repl) in sets.items():
            self._lines[idx] = lines
            self._ways[idx] = ways
            self._repl[idx] = repl

    def set_index(self, line):
        if self.hash_sets:
            line = line ^ (line // self.num_sets) \
                ^ (line // (self.num_sets * self.num_sets))
        return line % self.num_sets

    def lookup(self, line, touch=True):
        """Return the MESI state of ``line`` or None if not present."""
        idx = self.set_index(line)
        entry = self._lines[idx].get(line)
        if entry is None:
            return None
        way, state = entry
        if touch:
            self._repl[idx].touch(way)
        return state

    def update_state(self, line, state):
        """Change the state of a resident line."""
        idx = self.set_index(line)
        way, _ = self._lines[idx][line]
        self._lines[idx][line] = (way, state)

    def invalidate(self, line):
        """Remove ``line``; returns its state, or None if absent."""
        idx = self.set_index(line)
        entry = self._lines[idx].pop(line, None)
        if entry is None:
            return None
        way, state = entry
        self._ways[idx][way] = None
        self._free[idx] += 1
        return state

    def resident_lines(self):
        """All resident (line, state) pairs (test/debug helper)."""
        for lines in self._lines:
            for line, (_, state) in lines.items():
                yield line, state

    def integrity_items(self):
        """Digest items for the integrity sentinel: geometry, occupancy
        and the free-way vector (cheap, O(sets))."""
        # Occupancy is deliberately NOT summed here: the free-way
        # vector digest below already encodes per-set occupancy
        # exactly, and an O(sets) len() walk at every barrier blows
        # the sentinel's hotpath budget on large L3 arrays.
        yield (self.num_sets, self.ways,
               zlib.crc32(self._free) & 0xFFFFFFFF)

    def deep_items(self):
        """The full tag+MESI contents by value for a deep digest: one
        ``(idx, sorted line map)`` per non-empty set, ascending (see
        repro.resilience.integrity)."""
        return [(idx, sorted(lines.items()))
                for idx, lines in enumerate(self._lines) if lines]

    def audit_invariants(self, component):
        """Bookkeeping invariants the sentinel's auditor checks: the
        free-way count of every set matches its residency, and each
        resident line's way back-pointer agrees with the way array.
        Returns ``(component, excerpt)`` violation pairs."""
        violations = []
        if _NO_LINES:
            violations.append(
                (component, "the shared untouched-set map holds %d line(s): "
                 "a fill skipped materialisation" % len(_NO_LINES)))
        for idx in self.materialised_sets():
            lines = self._lines[idx]
            if self._free[idx] != self.ways - len(lines):
                violations.append(
                    (component,
                     "set %d free-way count %d != %d ways - %d resident"
                     % (idx, self._free[idx], self.ways, len(lines))))
            ways = self._ways[idx]
            for line, (way, _state) in lines.items():
                if ways[way] != line:
                    violations.append(
                        (component,
                         "set %d way %d holds %r but the line map says "
                         "0x%x" % (idx, way, ways[way], line)))
                    break
        return violations
