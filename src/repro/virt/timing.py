"""Timing virtualization: simulated-time clocks.

The paper virtualizes rdtsc, time syscalls/vsyscalls, sleeps, and
timeouts so that instrumented processes see *simulated* time rather than
host time — essential for adaptive algorithms and client-server
protocols with timeouts.  :class:`VirtualClock` is the single source of
guest-visible time in this reproduction.
"""

from __future__ import annotations


class VirtualClock:
    """Maps core cycles to guest-visible timestamps."""

    def __init__(self, freq_mhz):
        if freq_mhz <= 0:
            raise ValueError("Frequency must be positive")
        self.freq_mhz = freq_mhz

    def rdtsc(self, cycle):
        """The virtualized timestamp counter is simply the simulated
        cycle count (TSC ticks at core frequency)."""
        return int(cycle)

    def cycles_to_ns(self, cycles):
        return cycles * 1000.0 / self.freq_mhz

    def ns_to_cycles(self, ns):
        return int(round(ns * self.freq_mhz / 1000.0))

    def cycles_to_us(self, cycles):
        return self.cycles_to_ns(cycles) / 1000.0

    def timeout_expired(self, start_cycle, now_cycle, timeout_ns):
        """Evaluate a guest timeout purely in simulated time."""
        return self.cycles_to_ns(now_cycle - start_cycle) >= timeout_ns
