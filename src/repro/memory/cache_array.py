"""Set-associative cache array, fully decoupled from coherence logic.

The array stores MESI states for lines and answers lookup /
invalidate; the coherence walk fills it in place (``_materialise``,
``_free``).  A true-LRU set is one ``dict``, line -> state, in recency
order, least recent first: a hit moves its line to the end, a fill
appends, a full set's victim is its first key, and a state change
assigns in place.  A ``tree`` or ``random`` set also gets a policy
object that picks victims by way (repro.memory.replacement).  Shared
caches are banked at a level above this (one array per bank).
"""

from __future__ import annotations

import zlib

from repro.memory.replacement import make_policy

#: The line map every untouched set shares.  Never written: the two fill
#: sites materialise a set first, and every other path only reads
#: (``get`` / ``pop`` with a default / ``in`` all miss on it).  Compare
#: by identity: an emptied set's own map is ``== {}`` too.
_NO_LINES = {}


class CacheArray:
    """One bank's worth of sets x ways.

    Per-set state is sparse: a set that no fill has reached yet holds no
    dict (or policy object) of its own — ``_lines[idx] is _NO_LINES``
    marks it — and :meth:`_materialise` builds the real thing on the
    first fill.  Host cost then follows the sets a run touches, not the
    sets the chip was configured with.  ``_free`` (and the cheap
    integrity digest over it) deliberately stays dense, one byte per
    set: an array has at most 255 ways.
    """

    __slots__ = ("num_sets", "hash_sets", "ways", "repl", "seed", "_free",
                 "_lines", "_repl")

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
        self._lines = [_NO_LINES] * num_sets
        #: Per-set way-picking policies (None while untouched); an LRU
        #: array has none.
        self._repl = None if repl == "lru" else [None] * num_sets
        #: Free ways per set: lets a steady-state fill (full set) skip
        #: straight to the victim.
        self._free = bytearray([ways]) * num_sets

    def _materialise(self, idx):
        """Give untouched set ``idx`` its own line map (and policy);
        returns the map."""
        if self._repl is not None:
            self._repl[idx] = make_policy(self.repl, self.ways,
                                          self.seed + idx)
        lines = self._lines[idx] = {}
        return lines

    def materialised_sets(self):
        """Indices of the sets that own state, ascending."""
        return [idx for idx, lines in enumerate(self._lines)
                if lines is not _NO_LINES]

    def num_materialised(self):
        """How many sets own state (for stats)."""
        return len(self.materialised_sets())

    def __getstate__(self):
        # Carry only materialised sets: capsules and snapshots shrink
        # with the array, and the placeholders are rebuilt on load
        # rather than pickled (an unpickled copy of the shared map would
        # no longer be the object the rest of the module knows).  A
        # pickled dict keeps its order, so recency survives.
        return (self.num_sets, self.hash_sets, self.ways, self.repl,
                self.seed, self._free, self._repl,
                {idx: self._lines[idx] for idx in self.materialised_sets()})

    def __setstate__(self, state):
        (self.num_sets, self.hash_sets, self.ways, self.repl, self.seed,
         self._free, self._repl, sets) = state
        self._lines = [_NO_LINES] * self.num_sets
        for idx, lines in sets.items():
            self._lines[idx] = lines

    def set_index(self, line):
        if self.hash_sets:
            line = line ^ (line // self.num_sets) \
                ^ (line // (self.num_sets * self.num_sets))
        return line % self.num_sets

    def lookup(self, line, touch=True):
        """Return the MESI state of ``line`` or None if not present."""
        idx = self.set_index(line)
        lines = self._lines[idx]
        state = lines.get(line)
        if state is not None and touch:
            if self._repl is None:
                del lines[line]
                lines[line] = state
            else:
                self._repl[idx].hit(line)
        return state

    def update_state(self, line, state):
        """Change the state of a resident line (its recency stays)."""
        lines = self._lines[self.set_index(line)]
        if line not in lines:
            raise KeyError(line)
        lines[line] = state

    def invalidate(self, line):
        """Remove ``line``; returns its state, or None if absent."""
        idx = self.set_index(line)
        state = self._lines[idx].pop(line, None)
        if state is None:
            return None
        self._free[idx] += 1
        if self._repl is not None:
            self._repl[idx].free(line)
        return state

    def resident_lines(self):
        """All resident (line, state) pairs, set by set, each set least
        recently used first (test/debug helper)."""
        for lines in self._lines:
            yield from lines.items()

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
        ``(idx, line map items in recency order, way-picking policy's
        way list or None)`` per non-empty set, ascending (see
        repro.resilience.integrity)."""
        repl = self._repl
        return [(idx, list(lines.items()),
                 None if repl is None else repl[idx]._way_line)
                for idx, lines in enumerate(self._lines) if lines]

    def audit_invariants(self, component):
        """Bookkeeping invariants the sentinel's auditor checks: the
        free-way count of every set matches its residency, and a
        way-picking policy's way list holds exactly the resident lines.
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
            if self._repl is None:
                continue
            policy = self._repl[idx]
            held = {line: way for way, line in enumerate(policy._way_line)
                    if line is not None}
            if held != policy._line_way or held.keys() != lines.keys():
                violations.append(
                    (component,
                     "set %d way list %r disagrees with the line map %s"
                     % (idx, policy._way_line,
                        sorted("0x%x" % line for line in lines))))
        return violations
