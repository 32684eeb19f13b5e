"""Host-parallelism model for the deterministic execution.

Python's GIL makes wall-clock thread scaling meaningless, so bound and
weave phases execute cooperatively and this model answers Figure 8's
question — how would the run scale with host threads? — from measured
work: per-interval per-core bound-phase times (in barrier wake-up order)
and per-domain weave-phase event counts.

Parallel time for H host threads follows the barrier's moderation policy
exactly: the first H cores start; each finishing core wakes the next in
wake-up order; the interval ends at the makespan.  The weave phase is
scheduled the same way over domains.  This is a *model of the algorithm's
parallelism*, not of a specific host's memory system (see DESIGN.md).
"""

from __future__ import annotations

import heapq


def makespan(work_items, workers):
    """Makespan of scheduling ``work_items`` (in wake order) onto
    ``workers`` identical workers, each finishing item waking the next."""
    if not work_items:
        return 0.0
    if workers <= 1 or len(work_items) == 1:
        return sum(work_items)
    free = [0.0] * min(workers, len(work_items))
    for item in work_items:
        start = heapq.heappop(free)
        heapq.heappush(free, start + item)
    return max(free)


class HostModel:
    """Accumulates per-interval work and models speedup vs host threads."""

    DEFAULT_THREADS = (1, 2, 4, 8, 16, 32)

    def __init__(self, host_threads=DEFAULT_THREADS):
        self.host_threads = tuple(host_threads)
        self.bound_serial = 0.0
        self.weave_serial = 0.0
        self.other_serial = 0.0
        self._bound_parallel = {h: 0.0 for h in self.host_threads}
        self._weave_parallel = {h: 0.0 for h in self.host_threads}
        self.intervals = 0
        #: Wall time actually spent per interval by the execution
        #: backend (measured makespans, reported next to the modeled
        #: ones) and which backend produced it.
        self.measured_wall = 0.0
        self.backend_name = None

    def record_interval(self, bound_times, weave_domain_events,
                        weave_seconds, other_seconds=0.0,
                        measured_seconds=None):
        """``bound_times``: [(core_id, seconds)] in wake order.
        ``weave_domain_events``: executed events per domain.
        ``weave_seconds``: measured wall time of the weave phase.
        ``measured_seconds``: the interval's actual wall time under the
        active execution backend (bound + weave makespan as executed,
        including handoff overhead)."""
        self.intervals += 1
        if measured_seconds is not None:
            self.measured_wall += measured_seconds
        times = [t for _cid, t in bound_times]
        self.bound_serial += sum(times)
        self.weave_serial += weave_seconds
        self.other_serial += other_seconds
        total_events = sum(weave_domain_events)
        if total_events > 0:
            per_event = weave_seconds / total_events
            domain_times = [n * per_event for n in weave_domain_events
                            if n > 0]
        else:
            domain_times = []
        for h in self.host_threads:
            self._bound_parallel[h] += makespan(times, h)
            self._weave_parallel[h] += makespan(domain_times, h)

    def serial_time(self):
        return self.bound_serial + self.weave_serial + self.other_serial

    def parallel_time(self, host_threads):
        """Modeled wall time with ``host_threads`` workers."""
        if host_threads not in self._bound_parallel:
            raise KeyError("host thread count %d was not tracked"
                           % host_threads)
        return (self._bound_parallel[host_threads]
                + self._weave_parallel[host_threads]
                + self.other_serial)

    def speedup(self, host_threads):
        par = self.parallel_time(host_threads)
        if par <= 0:
            return 1.0
        return self.serial_time() / par

    def speedup_curve(self):
        return [(h, self.speedup(h)) for h in self.host_threads]

    # The paper's stated future work: "we will pipeline the bound and
    # weave phases".  With pipelining, interval k's weave overlaps
    # interval k+1's bound, so steady-state wall time per interval is
    # max(bound, weave) instead of their sum.
    def pipelined_parallel_time(self, host_threads):
        if host_threads not in self._bound_parallel:
            raise KeyError("host thread count %d was not tracked"
                           % host_threads)
        return (max(self._bound_parallel[host_threads],
                    self._weave_parallel[host_threads])
                + self.other_serial)

    def pipelined_speedup(self, host_threads):
        par = self.pipelined_parallel_time(host_threads)
        if par <= 0:
            return 1.0
        return self.serial_time() / par

    # Measured makespans: what the active execution backend actually
    # achieved, reported next to the modeled curves so measured-vs-
    # modeled gaps (e.g. the GIL) are visible in one stats tree.
    def measured_speedup(self):
        """Measured speedup of the active backend over the serial work
        time (sum of per-core bound times + weave wall): ~1x for the
        serial backend, >1x only when the backend achieves real
        overlap."""
        if self.measured_wall <= 0:
            return 1.0
        return self.serial_time() / self.measured_wall

    def fill_stats(self, node):
        """Dump the measured phase costs, measured backend makespan, and
        modeled speedup curves into a :class:`~repro.stats.StatsNode`
        (Figure 8's raw material)."""
        node.set("intervals", self.intervals)
        node.set("backend", self.backend_name or "serial")
        node.set("bound_serial_seconds", self.bound_serial)
        node.set("weave_serial_seconds", self.weave_serial)
        node.set("other_serial_seconds", self.other_serial)
        node.set("measured_wall_seconds", self.measured_wall)
        node.set("measured_speedup", self.measured_speedup())
        speedup = node.child("speedup")
        pipelined = node.child("pipelined_speedup")
        for h in self.host_threads:
            speedup.set("x%d" % h, self.speedup(h))
            pipelined.set("x%d" % h, self.pipelined_speedup(h))
