"""Hierarchical simulation statistics.

zsim aggregates per-component stats into an HDF5 file.  We keep the same
shape — every simulated component owns a named stats node holding plain
counters and log-2 bucketed histograms (see
:class:`repro.obs.histogram.Log2Histogram`), collected into one tree —
but serialize to plain dicts/JSON, which is sufficient for a pure-Python
reproduction.  Histograms appear in ``to_dict``/``to_json`` as nested
objects with a ``buckets`` map.
"""

from __future__ import annotations

import json

from repro.obs.histogram import Log2Histogram


class StatsNode:
    """A named node in the stats tree: counters, histograms, children."""

    def __init__(self, name):
        self.name = name
        self._counters = {}
        self._histograms = {}
        self._children = {}

    def inc(self, name, amount=1):
        self._counters[name] = self._counters.get(name, 0) + amount

    def set(self, name, value):
        self._counters[name] = value

    def get(self, name, default=0):
        return self._counters.get(name, default)

    def histogram(self, name):
        """Get-or-create a named :class:`Log2Histogram` on this node."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = Log2Histogram(name)
            self._histograms[name] = hist
        return hist

    def child(self, name):
        """Get-or-create a child node."""
        node = self._children.get(name)
        if node is None:
            node = StatsNode(name)
            self._children[name] = node
        return node

    @property
    def histograms(self):
        return dict(self._histograms)

    def to_dict(self):
        """Serialize the subtree to nested dicts."""
        out = dict(self._counters)
        for name, hist in self._histograms.items():
            out[name] = hist.to_dict()
        for name, node in self._children.items():
            out[name] = node.to_dict()
        return out

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)

    def __repr__(self):
        return ("StatsNode(%r, %d counters, %d histograms, %d children)"
                % (self.name, len(self._counters), len(self._histograms),
                   len(self._children)))
