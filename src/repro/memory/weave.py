"""Weave-phase timing models for contended memory-system components.

The bound phase records, for every access that escapes the private cache
levels, the chain of components it touched with zero-load offsets.  The
weave phase replays those chains through these models, which add the
*contention* the bound phase ignored:

* :class:`CacheBankWeave` — pipelined cache banks with limited address/
  data port occupancy and limited MSHRs (Section 3.2.2: "pipelined caches
  (including address and data port contention, and limited MSHRs)").
* :class:`MemCtrlWeave` — a detailed DDR3 memory controller: FCFS
  scheduling, closed-page policy, bank/command/data-bus conflicts, and
  the fast-powerdown exit penalty of Table 2.

Occupancy is tracked with busy-interval timelines
(:mod:`repro.memory.timeline`) rather than next-free frontiers: events
from differently-delayed cores arrive out of strict time order, and a
request must be able to claim a hole the resource still has at its own
arrival cycle.

Every model is *conservative in one direction*: the finish cycle it
returns is always >= the event's lower-bound cycle, the property the
bound-weave algorithm relies on.
"""

from __future__ import annotations

import heapq

from repro.memory.access import StepKind
from repro.memory.timeline import MultiTimeline, Timeline

_MISS = StepKind.MISS
_WBACK = StepKind.WBACK


class WeaveComponent:
    """Base class: a component that retimes weave events."""

    __slots__ = ("name", "tile", "domain", "events_executed")

    def __init__(self, name, tile=0):
        self.name = name
        self.tile = tile
        self.domain = 0          # assigned by the weave engine
        self.events_executed = 0

    def occupy(self, cycle, kind, line=0):
        """Admit an event arriving at ``cycle``; return its finish cycle
        (>= cycle + zero-load service)."""
        raise NotImplementedError

    def zero_load_service(self, kind):
        """Service time assumed by the bound phase for this component."""
        raise NotImplementedError

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.name)


class CacheBankWeave(WeaveComponent):
    """Pipelined cache bank: port occupancy plus limited MSHRs."""

    __slots__ = ("latency", "ports", "mshrs", "miss_hold_cycles",
                 "_port_timeline", "_mshr_release", "port_stall_cycles",
                 "mshr_stall_cycles")

    #: Cycles an access occupies a bank port (address + data slots).
    PORT_OCCUPANCY = 2

    def __init__(self, name, latency, ports=1, mshrs=16,
                 miss_hold_cycles=100, tile=0, floor=None):
        super().__init__(name, tile)
        self.latency = latency
        self.ports = max(1, ports)
        self.mshrs = max(1, mshrs)
        self.miss_hold_cycles = miss_hold_cycles
        self._port_timeline = MultiTimeline(self.ports, floor)
        self._mshr_release = []      # min-heap of release cycles
        self.port_stall_cycles = 0
        self.mshr_stall_cycles = 0

    def occupy(self, cycle, kind, line=0):
        self.events_executed += 1
        start = cycle
        if kind == _MISS:
            # A miss allocates an MSHR; when all are busy the access
            # stalls until the oldest outstanding miss completes.
            release = self._mshr_release
            while release and release[0] <= start:
                heapq.heappop(release)
            if len(release) >= self.mshrs:
                earliest = heapq.heappop(release)
                if earliest > start:
                    self.mshr_stall_cycles += earliest - start
                    start = earliest
            heapq.heappush(release, start + self.miss_hold_cycles)
        timelines = self._port_timeline._timelines
        if len(timelines) == 1:
            granted = timelines[0].reserve(start, self.PORT_OCCUPANCY)
        else:
            granted = self._port_timeline.reserve(start,
                                                  self.PORT_OCCUPANCY)
        self.port_stall_cycles += granted - start
        return granted + self.latency

    def zero_load_service(self, kind):
        return self.latency


class MemCtrlWeave(WeaveComponent):
    """DDR3 memory controller: FCFS, closed page, bank conflicts.

    All bookkeeping is done in core cycles; DDR parameters (given in
    memory-bus cycles) are scaled by ``ratio`` = core MHz / bus MHz.
    """

    __slots__ = ("cfg", "ratio", "num_banks", "channels", "access_cycles",
                 "bank_busy_cycles", "burst_core_cycles", "overhead",
                 "_pd_threshold", "_pd_exit", "_banks", "_data_bus",
                 "_last_activity", "bank_conflict_cycles",
                 "bus_conflict_cycles", "powerdown_exits")

    #: Data burst length (BL8 over a DDR bus), bus cycles.
    BURST_CYCLES = 4

    def __init__(self, name, mem_config, core_mhz, floor=None, tile=0):
        super().__init__(name, tile)
        self.cfg = mem_config
        t = mem_config.timing
        self.ratio = max(1.0, core_mhz / mem_config.bus_mhz)
        self.num_banks = t.banks_per_rank * t.ranks_per_channel
        self.channels = mem_config.channels_per_controller
        # Closed-page access: ACT -> CAS -> burst; the precharge tail
        # only occupies the bank.
        self.access_cycles = int(round(
            (t.tRCD + t.tCL + self.BURST_CYCLES) * self.ratio))
        self.bank_busy_cycles = int(round(
            max(t.tRAS + t.tRP,
                t.tRCD + t.tCL + self.BURST_CYCLES + t.tRP) * self.ratio))
        self.burst_core_cycles = max(1, int(round(
            self.BURST_CYCLES * self.ratio)))
        # Controller frontend overhead chosen so the zero-load service
        # matches the bound phase's configured zero-load latency.
        self.overhead = max(0, mem_config.zero_load_latency
                            - self.access_cycles)
        # Powerdown constants, core cycles (occupy runs once per event).
        self._pd_threshold = mem_config.powerdown_threshold * self.ratio
        self._pd_exit = int(round(
            mem_config.powerdown_exit_cycles * self.ratio))
        self._banks = [[Timeline(floor) for _ in range(self.num_banks)]
                       for _ in range(self.channels)]
        self._data_bus = [Timeline(floor) for _ in range(self.channels)]
        self._last_activity = [0] * self.channels
        self.bank_conflict_cycles = 0
        self.bus_conflict_cycles = 0
        self.powerdown_exits = 0

    def occupy(self, cycle, kind, line=0):
        self.events_executed += 1
        channel = (line >> 4) % self.channels
        bank = (line >> 1) % self.num_banks
        start = cycle
        # Fast powerdown: if the channel idled past the threshold, pay
        # the exit latency (Table 2: threshold timer = 15 mem cycles).
        # Stragglers arriving before the last activity are not charged.
        last_activity = self._last_activity
        if start - last_activity[channel] > self._pd_threshold:
            self.powerdown_exits += 1
            start += self._pd_exit
        # Bank occupancy (ACT..PRE), then the data burst on the channel.
        bank_start = self._banks[channel][bank].reserve(
            start, self.bank_busy_cycles)
        self.bank_conflict_cycles += bank_start - start
        burst = self.burst_core_cycles
        bus_start = self._data_bus[channel].reserve(bank_start, burst)
        self.bus_conflict_cycles += bus_start - bank_start
        if bus_start + burst > last_activity[channel]:
            last_activity[channel] = bus_start + burst
        if kind == _WBACK:
            # Writebacks occupy the bank and bus but need no response.
            return bus_start + burst
        return bus_start + self.overhead + self.access_cycles

    def zero_load_service(self, kind):
        if kind == StepKind.WBACK:
            return self.burst_core_cycles
        return self.cfg.zero_load_latency
