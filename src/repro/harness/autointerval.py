"""Automatic interval-length selection (Section 3.2's manual loop).

The paper: "We also profile accesses with path-altering interference
that are incorrectly reordered.  If this count is not negligible, we
(for now, manually) select a shorter interval."  This module automates
that loop: probe-run the workload with the interference profiler over
candidate interval lengths and pick the longest one whose *reordered*
fraction stays below the threshold.
"""

from __future__ import annotations

import dataclasses

from repro.core.interference import InterferenceProfiler
from repro.core.simulator import ZSim

DEFAULT_CANDIDATES = (1_000, 2_000, 5_000, 10_000, 50_000, 100_000)
#: "Not negligible" threshold on the reordered-access fraction.
DEFAULT_THRESHOLD = 1e-3


def select_interval(config, make_threads, candidates=DEFAULT_CANDIDATES,
                    threshold=DEFAULT_THRESHOLD, probe_instrs=30_000):
    """Pick the longest candidate interval whose reordered fraction is
    below ``threshold``.

    ``make_threads()`` must return a fresh thread list per call (the
    probe consumes one).  Returns ``(interval, fractions)`` where
    ``fractions`` maps each candidate to its reordered fraction.  The
    probe runs once, bound-phase only, at the *longest* candidate (the
    most permissive reordering), and the profiler classifies every
    shorter window from the same trace.
    """
    candidates = tuple(sorted(candidates))
    profiler = InterferenceProfiler(candidates)
    sim = ZSim(configured_with_interval(config, candidates[-1]),
               threads=make_threads(),
               contention_model="none", profiler=profiler)
    sim.run(max_instrs=probe_instrs)
    fractions = {n: profiler.reordered_fraction(n) for n in candidates}
    chosen = candidates[0]
    for interval in candidates:
        if fractions[interval] <= threshold:
            chosen = interval
    return chosen, fractions


def configured_with_interval(config, interval):
    """Copy ``config`` with the chosen interval installed."""
    return dataclasses.replace(
        config, boundweave=dataclasses.replace(
            config.boundweave, interval_cycles=interval))
