"""Metrics registry: counters, log-2 histograms, interval samples.

A flat namespace of dotted metric names (``sched.context_switches``,
``mem.misses.l3``).  The registry also collects *per-interval
samples* — one row per simulated interval with the bound/weave phase
timings and progress counters — mirroring zsim's periodic HDF5 stats
dumps.  Serializes to JSON.  A number the stats tree already holds
(the access-latency histogram, the weave's event and interval counts)
is read from the stats tree, not counted here a second time.
"""

from __future__ import annotations

import json

from repro.obs.histogram import Log2Histogram


class MetricsRegistry:
    """Named counters and histograms plus an interval table."""

    def __init__(self):
        self._counters = {}
        self._histograms = {}
        #: Per-interval sample rows (dicts with an ``interval`` key).
        self.samples = []

    # ------------------------------------------------------------------
    # Scalars
    # ------------------------------------------------------------------

    def inc(self, name, amount=1):
        self._counters[name] = self._counters.get(name, 0) + amount

    def histogram(self, name):
        """Get-or-create the named :class:`Log2Histogram`."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = Log2Histogram(name)
            self._histograms[name] = hist
        return hist

    # ------------------------------------------------------------------
    # Interval sampling
    # ------------------------------------------------------------------

    def sample_interval(self, interval, **fields):
        """Append one per-interval sample row (zsim's periodic dump)."""
        row = {"interval": interval}
        row.update(fields)
        self.samples.append(row)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_dict(self):
        return {
            "counters": dict(self._counters),
            "histograms": {name: hist.to_dict()
                           for name, hist in self._histograms.items()},
            "samples": list(self.samples),
        }

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)

    def write(self, path, indent=2):
        with open(path, "w") as handle:
            handle.write(self.to_json(indent=indent))

    def __repr__(self):
        return ("MetricsRegistry(%d counters, %d histograms, %d samples)"
                % (len(self._counters), len(self._histograms),
                   len(self.samples)))

