"""Path-altering interference profiler (the paper's Figure 2 machinery).

Two concurrent accesses suffer *path-altering* interference if simulating
them out of order changes their paths through the memory hierarchy —
same-line accesses (unless both are read hits), or an out-of-order access
evicting the other's line.  The bound phase only reorders accesses within
one interval, so interference is a function of the interval length.

The profiler tracks two counts per interval length of interest:

* ``interfering`` — accesses with *potential* path-altering interference:
  another core touched the same line in the same window and the pair is
  not two read hits.  This is what Figure 2 plots: it upper-bounds the
  error any wake-up order could introduce, and grows with the window.
* ``reordered`` — accesses *actually simulated out of order* (an
  earlier-simulated same-line access has a later bound cycle).  This is
  the runtime profile zsim uses: "we also profile accesses with
  path-altering interference that are incorrectly reordered.  If this
  count is not negligible, we select a shorter interval."

The hierarchy calls :meth:`record` on every access in simulation order;
several interval lengths can be profiled in one run.  With
``track_evictions=True`` the second interference class — an access whose
shared-cache fill evicts a line another core touched in the window — is
profiled too; the paper measures it to be negligible except for shared
caches with 1-2 ways, which the tests reproduce.
"""

from __future__ import annotations


class InterferenceProfiler:
    """Counts path-altering interference per candidate interval length."""

    def __init__(self, interval_lengths=(1_000, 10_000, 100_000),
                 track_evictions=False):
        self.interval_lengths = tuple(sorted(interval_lengths))
        self.track_evictions = track_evictions
        self.total_accesses = 0
        self.interfering = {n: 0 for n in self.interval_lengths}
        self.reordered = {n: 0 for n in self.interval_lengths}
        #: Eviction-driven path-altering interference: an access whose
        #: shared-cache fill evicted a line another core touched in the
        #: same window (the paper: "extremely rare unless we use shared
        #: caches with unrealistically low associativity").
        self.eviction_interfering = {n: 0 for n in self.interval_lengths}
        # Per interval length: ({line: [(bound_cycle, core, read_hit)]},
        # current interval index).
        self._state = {n: ({}, -1) for n in self.interval_lengths}

    def record(self, result, cycle):
        """Register one access (simulation order) at bound cycle
        ``cycle``."""
        self.total_accesses += 1
        pure_read_hit = (not result.write
                         and not result.missed_levels
                         and result.invalidations == 0)
        line = result.line
        core = result.core_id
        evictions = (result.shared_evictions
                     if self.track_evictions else ())
        for length in self.interval_lengths:
            lines, current = self._state[length]
            interval = cycle // length
            if interval != current:
                lines = {}
                self._state[length] = (lines, interval)
            if evictions:
                for victim in evictions:
                    victim_history = lines.get(victim)
                    if victim_history and any(
                            prev_core != core
                            for _c, prev_core, _p in victim_history):
                        self.eviction_interfering[length] += 1
                        break
            history = lines.get(line)
            if history is None:
                lines[line] = [(cycle, core, pure_read_hit)]
                continue
            interferes = False
            out_of_order = False
            for prev_cycle, prev_core, prev_prh in history:
                if prev_core == core or (prev_prh and pure_read_hit):
                    continue
                interferes = True
                if prev_cycle > cycle:
                    out_of_order = True
                    break
            if interferes:
                self.interfering[length] += 1
            if out_of_order:
                self.reordered[length] += 1
            history.append((cycle, core, pure_read_hit))

    def fraction(self, interval_length):
        """Fraction of accesses with potential path-altering
        interference (the Figure 2 metric)."""
        if self.total_accesses == 0:
            return 0.0
        return self.interfering[interval_length] / self.total_accesses

    def reordered_fraction(self, interval_length):
        """Fraction actually simulated out of order (zsim's runtime
        interval-length check)."""
        if self.total_accesses == 0:
            return 0.0
        return self.reordered[interval_length] / self.total_accesses

    def fractions(self):
        return {n: self.fraction(n) for n in self.interval_lengths}

    def eviction_fraction(self, interval_length):
        """Fraction of accesses whose shared-cache eviction interferes
        (requires ``track_evictions=True``)."""
        if self.total_accesses == 0:
            return 0.0
        return (self.eviction_interfering[interval_length]
                / self.total_accesses)
