"""A plain true-LRU model: the oracle for ``CacheArray``'s LRU sets.

One recency list per set, least recent first: a fill appends, a touch
is ``remove`` + ``append``, the victim of a full set is ``pop(0)``.  It
shares no code with ``repro.memory.cache_array``.
"""


class RecencyModel:
    """``num_sets`` x ``ways`` of true LRU over plain lists."""

    def __init__(self, num_sets, ways):
        self.num_sets = num_sets
        self.ways = ways
        self.order = [[] for _ in range(num_sets)]  # per set, LRU first
        self.state = {}                             # line -> MESI state

    def _set(self, line):
        return self.order[line % self.num_sets]

    def fill(self, line, state):
        """Insert absent ``line``; returns ``(victim, victim_state)`` or
        ``(None, None)``."""
        order = self._set(line)
        victim = vstate = None
        if len(order) == self.ways:
            victim = order.pop(0)
            vstate = self.state.pop(victim)
        order.append(line)
        self.state[line] = state
        return victim, vstate

    def touch(self, line):
        order = self._set(line)
        order.remove(line)
        order.append(line)

    def lookup(self, line, touch=True):
        state = self.state.get(line)
        if state is not None and touch:
            self.touch(line)
        return state

    def update_state(self, line, state):
        self.state[line] = state

    def invalidate(self, line):
        state = self.state.pop(line, None)
        if state is not None:
            self._set(line).remove(line)
        return state

    def next_victim(self, line):
        """What filling ``line`` would evict now, or None."""
        order = self._set(line)
        if line in self.state or len(order) < self.ways:
            return None
        return order[0]

    def resident(self):
        """(line, state) pairs, set by set, least recent first."""
        return [(line, self.state[line])
                for order in self.order for line in order]
