"""Weave-phase domains: vertical slices of the chip, one event queue each.

Components (cores, shared cache banks, memory controllers) are statically
partitioned into domains by tile (Section 3.2.2, Figure 3).  Each domain
owns a priority queue of events and — in real zsim — a host thread; here
domains are executed cooperatively by the engine, which always advances
the domain with the earliest pending event (a conservative, deterministic
emulation of the parallel execution).
"""

from __future__ import annotations

import heapq

from repro.errors import HorizonViolation
from repro.memory.weave import WeaveComponent


def horizon_violation(domain_id, cycle, floor):
    """The error for a pop below a domain's interval floor (one wording
    for every drain loop that checks it)."""
    return HorizonViolation(
        "domain %d popped an event at cycle %d below its interval floor "
        "%d: corrupt event timestamp or broken horizon discipline"
        % (domain_id, cycle, floor),
        cycle=cycle, floor=floor, phase="weave", domain=domain_id)


class Domain:
    """One weave domain: an event priority queue with its own clock."""

    def __init__(self, domain_id):
        self.domain_id = domain_id
        self._queue = []
        self._seq = 0
        self.current_cycle = 0
        self.events_executed = 0
        self.crossings = 0
        self.crossing_requeues = 0
        #: Horizon invariant floor, checked at every pop: an interval
        #: starts it at the bound phase's lower bound (IntervalFloor), and
        #: every push lands at or above the pop that caused it, so pops
        #: are nondecreasing from there in *every* legal execution.  A pop
        #: below it means a corrupt timestamp or a broken executor.
        self._pop_floor = 0

    def push(self, cycle, item):
        self._seq += 1
        heapq.heappush(self._queue, (cycle, self._seq, item))

    def pop(self):
        cycle, _seq, item = heapq.heappop(self._queue)
        if cycle < self._pop_floor:
            raise horizon_violation(self.domain_id, cycle, self._pop_floor)
        self._pop_floor = cycle
        if cycle > self.current_cycle:
            self.current_cycle = cycle
        return cycle, item

    def head_cycle(self):
        return self._queue[0][0] if self._queue else None

    def head_item(self):
        """Peek the earliest queued item without popping (execution
        backends use this to decide whether the head is independently
        executable or a domain-crossing synchronization point)."""
        return self._queue[0][2] if self._queue else None

    def __len__(self):
        return len(self._queue)

    def integrity_items(self):
        """Digest items for the integrity sentinel: clocks, counters,
        and queued (cycle, seq) pairs — normally none, since the weave
        phase drains every queue before the barrier."""
        yield (self.domain_id, self.current_cycle, self.events_executed,
               self.crossings, self.crossing_requeues, self._seq,
               len(self._queue))
        if self._queue:
            yield tuple(sorted((cycle, seq)
                               for cycle, seq, _item in self._queue))

    def reset_interval_stats(self, floor):
        self.events_executed = 0
        self.crossings = 0
        self.crossing_requeues = 0
        # New interval, new floor: delays from a congested interval may
        # legitimately exceed the next interval's earliest timestamps.
        self._pop_floor = floor

    def __repr__(self):
        return "Domain(%d, %d queued)" % (self.domain_id, len(self._queue))


class CoreWeave(WeaveComponent):
    """The weave-phase stand-in for a core: core events have no service
    time and no occupancy; the component exists to give core events a
    domain and to accumulate per-core contention delay."""

    __slots__ = ("core_id",)

    def __init__(self, name, core_id, tile=0):
        super().__init__(name, tile)
        self.core_id = core_id

    def occupy(self, cycle, kind, line=0):
        self.events_executed += 1
        return cycle

    def zero_load_service(self, kind):
        return 0


def assign_domains(components, num_tiles, num_domains):
    """Statically partition components into domains by tile (vertical
    slices).  Returns the list of :class:`Domain` objects."""
    if num_domains <= 0:
        num_domains = max(1, num_tiles)
    num_domains = min(num_domains, max(1, num_tiles))
    tiles_per_domain = max(1, (num_tiles + num_domains - 1) // num_domains)
    domains = [Domain(i) for i in range(num_domains)]
    for comp in components:
        comp.domain = min(comp.tile // tiles_per_domain, num_domains - 1)
    return domains
