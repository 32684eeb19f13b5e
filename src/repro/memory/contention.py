"""Analytical M/D/1 queueing contention model (the Graphite baseline).

Graphite models memory contention with queuing-theory models evaluated in
the (skewed) forward pass, because out-of-order event arrival precludes
microarchitectural contention models.  The paper (Section 4.1, Figure 6
right) shows this M/D/1 approach is inaccurate on bandwidth-saturating
workloads; we reproduce it as a baseline.

The model tracks the arrival rate over a sliding window and computes the
expected M/D/1 waiting time ``W = S * rho / (2 * (1 - rho))`` on top of
the deterministic service time ``S``.
"""

from __future__ import annotations

from collections import deque


class MD1Model:
    """Sliding-window M/D/1 latency estimator for one service center."""

    #: Load is clamped below 1 so the formula stays finite; queueing
    #: models degrade exactly this way near saturation, which is the
    #: source of their inaccuracy.
    MAX_RHO = 0.98

    def __init__(self, service_cycles, window=2000):
        if service_cycles <= 0:
            raise ValueError("Service time must be positive")
        self.service = service_cycles
        self.window = window
        self._arrivals = deque()

    def latency(self, cycle):
        """Register an arrival at ``cycle`` and return the modeled total
        latency (service + expected queueing wait)."""
        arrivals = self._arrivals
        horizon = cycle - self.window
        while arrivals and arrivals[0] <= horizon:
            arrivals.popleft()
        arrivals.append(cycle)
        rho = min(self.MAX_RHO,
                  len(arrivals) * self.service / float(self.window))
        wait = self.service * rho / (2.0 * (1.0 - rho))
        return int(round(self.service + wait))
