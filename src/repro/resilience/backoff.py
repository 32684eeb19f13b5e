"""Seeded decorrelated-jitter backoff (AWS-style).

One retry-pacing policy, shared by every layer that retries anything:

* the resilience :class:`~repro.resilience.supervisor.Supervisor`
  draws its post-recovery serial stretch (in *intervals*) from it, and
* the :mod:`repro.fleet` orchestrator draws the delay before a failed
  job's next attempt (in *seconds*) from it.

The draw is uniform in ``[base, min(3 * previous, cap * base)]``:
consecutive failures stretch the window geometrically, a success (or a
rung change) resets it, and because every draw is jittered, a periodic
external disturbance cannot phase-lock with the retry schedule.  The
RNG is seeded, so the schedule is random-looking but reproducible —
the same property the fault-injection grammar already relies on.
"""

from __future__ import annotations

import random

#: A draw never exceeds this multiple of the base.
DEFAULT_CAP = 8


class DecorrelatedJitter:
    """Stateful decorrelated-jitter draw sequence.

    ``base`` is the minimum (and first-draw maximum is ``3 * base``);
    ``cap`` bounds every draw to ``cap * base``.  A ``base`` of 0
    disables backoff (every draw is 0).  Draws are ints when ``base``
    is an int (the supervisor counts intervals), floats otherwise (the
    fleet counts seconds).
    """

    def __init__(self, base, cap=DEFAULT_CAP, seed=0):
        self.base = base
        self.cap = max(1, int(cap))
        self._rng = random.Random(seed)
        self._prev = 0

    def next(self):
        """Draw the next backoff; grows the window off the previous
        draw."""
        base = self.base
        if base <= 0:
            return 0
        prev = self._prev or base
        hi = max(base, min(prev * 3, base * self.cap))
        if isinstance(base, int):
            draw = self._rng.randint(base, int(hi))
        else:
            draw = self._rng.uniform(base, hi)
        self._prev = draw
        return draw

    def reset(self):
        """Shrink the window back to the base (call on success)."""
        self._prev = 0

    def __repr__(self):
        return ("DecorrelatedJitter(base=%r, cap=%d, prev=%r)"
                % (self.base, self.cap, self._prev))
