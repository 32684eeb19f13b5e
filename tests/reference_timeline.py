"""Reference timelines for the shipped one.

``repro.memory.timeline.Timeline.reserve`` merges every gap a
reservation leaves shorter than its own duration, because under the
single-size contract no later request can use it.  This module keeps
the ``reserve`` it replaced, which merges only touching intervals and so
keeps every gap.  ``first_gap`` and the prune (at the interval floor, or
``PRUNE_HORIZON`` behind the newest reservation) are the shipped code,
so any divergence a test finds is the merge's (the reference prunes
after every reservation past 64 intervals, not only one that grows
the list, which is exact as well).

:class:`UnprunedTimeline` is the shipped timeline with its prune turned
off: any divergence from it is the prune's.
"""

from bisect import bisect_right

from repro.memory.timeline import MultiTimeline, Timeline


class ReferenceTimeline(Timeline):
    """A :class:`Timeline` that merges only touching intervals."""

    __slots__ = ()

    def reserve(self, earliest, duration):
        if duration <= 0:
            return earliest
        starts, ends = self._starts, self._ends
        if not ends or earliest >= ends[-1]:
            if ends and ends[-1] == earliest:
                ends[-1] = earliest + duration
            else:
                starts.append(earliest)
                ends.append(earliest + duration)
            if len(starts) > 64:
                self._prune(earliest)
            return earliest
        idx = bisect_right(starts, earliest)
        if idx > 0 and ends[idx - 1] > earliest:
            candidate = ends[idx - 1]
        else:
            candidate = earliest
        n = len(starts)
        while idx < n and starts[idx] < candidate + duration:
            if ends[idx] > candidate:
                candidate = ends[idx]
            idx += 1
        starts.insert(idx, candidate)
        ends.insert(idx, candidate + duration)
        if idx + 1 < len(starts) and ends[idx] >= starts[idx + 1]:
            ends[idx] = max(ends[idx], ends[idx + 1])
            del starts[idx + 1], ends[idx + 1]
        if idx > 0 and ends[idx - 1] >= starts[idx]:
            ends[idx - 1] = max(ends[idx - 1], ends[idx])
            del starts[idx], ends[idx]
        if len(starts) > 64:
            self._prune(candidate)
        return candidate


class UnprunedTimeline(Timeline):
    """A :class:`Timeline` that keeps all of its history."""

    __slots__ = ()

    def _prune(self, newest):
        pass


def reference_multi_timeline(count, floor=None, server=ReferenceTimeline):
    """A :class:`MultiTimeline` whose servers are ``server`` timelines
    sharing ``floor``."""
    multi = MultiTimeline(count, floor)
    multi._timelines = [server(floor) for _ in multi._timelines]
    return multi
