"""Busy-interval timelines for weave-phase resources.

Weave events from different cores reach a component in rough — not
strict — time order: per-core contention feedback skews core timeframes
across intervals.  A resource modeled as a single "next free cycle"
frontier would serialize a straggler event behind occupancy that lies in
its future, creating spurious delay that compounds interval over
interval.  Instead, each resource tracks its busy *intervals*, so a
request can claim any hole at or after its arrival cycle — the same
property zsim's cycle-granular weave port/bank state has.

Single-size contract: all requests to one timeline have the same
duration (a port's occupancy, a bank's busy time, a burst, a link
slot), so a gap shorter than it can never be claimed and
:meth:`Timeline.reserve` merges it.  Mixed sizes still never overlap,
but a short request may find such a merged gap busy.

History ending at or before the interval floor (:class:`IntervalFloor`,
checked at every weave pop) is pruned: no later request reads it, nor by
the contract depends on a merge with it.  Behind a lagging floor
:data:`PRUNE_HORIZON` caps it; a straggler behind that sees a free resource.
"""

from __future__ import annotations

from bisect import bisect_right

#: How far back busy history is kept behind a lagging floor, cycles.
PRUNE_HORIZON = 100_000


class IntervalFloor:
    """The lowest cycle any core of one simulator can still issue an
    access at, raised at every barrier; never shared by two simulators."""

    __slots__ = ("cycle",)

    def __init__(self):
        self.cycle = 0


class Timeline:
    """Busy intervals of a single-server resource, pruned at ``floor``."""

    __slots__ = ("_starts", "_ends", "_floor")

    def __init__(self, floor=None):
        self._starts = []
        self._ends = []
        self._floor = IntervalFloor() if floor is None else floor

    def first_gap(self, earliest, duration):
        """Where :meth:`reserve` would land, without mutating."""
        starts, ends = self._starts, self._ends
        idx = bisect_right(starts, earliest)
        if idx > 0 and ends[idx - 1] > earliest:
            candidate = ends[idx - 1]
        else:
            candidate = earliest
        while idx < len(starts) and starts[idx] < candidate + duration:
            if ends[idx] > candidate:
                candidate = ends[idx]
            idx += 1
        return candidate

    def reserve(self, earliest, duration):
        """Claim the first free gap of ``duration`` cycles starting at or
        after ``earliest``; returns the start cycle of the reservation.

        Single pass: the gap scan of :meth:`first_gap` is inlined, and
        its cursor is the insertion index.  A gap left on either side
        shorter than ``duration`` is merged (the contract above)."""
        if duration <= 0:
            return earliest
        starts, ends = self._starts, self._ends
        if not ends or earliest >= ends[-1]:
            # Lands past all recorded occupancy (the common case when
            # events arrive in rough time order): append, or extend the
            # last interval over a gap too short to use.
            if ends and earliest - ends[-1] < duration:
                ends[-1] = earliest + duration
            else:
                starts.append(earliest)
                ends.append(earliest + duration)
                if len(starts) > 64 and ends[0] <= max(
                        self._floor.cycle, earliest - PRUNE_HORIZON):
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
        end = candidate + duration
        merge_prev = idx > 0 and candidate - ends[idx - 1] < duration
        if idx < n and starts[idx] - end < duration:
            if merge_prev:
                ends[idx - 1] = ends[idx]
                del starts[idx], ends[idx]
            else:
                starts[idx] = candidate
        elif merge_prev:
            ends[idx - 1] = end
        else:
            starts.insert(idx, candidate)
            ends.insert(idx, end)
            if n >= 64 and ends[0] <= max(
                    self._floor.cycle, candidate - PRUNE_HORIZON):
                self._prune(candidate)
        return candidate

    def _prune(self, newest):  # the list grew past 64: cut what is dead
        cut = bisect_right(self._ends,
                           max(self._floor.cycle, newest - PRUNE_HORIZON))
        del self._starts[:cut]
        del self._ends[:cut]

    def __len__(self):
        return len(self._starts)


class MultiTimeline:
    """``count`` identical servers; reservations take the earliest."""

    __slots__ = ("_timelines",)

    def __init__(self, count, floor=None):
        self._timelines = [Timeline(floor) for _ in range(max(1, count))]

    def reserve(self, earliest, duration):
        timelines = self._timelines
        best = timelines[0]
        best_start = best.first_gap(earliest, duration)
        for timeline in timelines[1:]:
            if best_start == earliest:
                break
            start = timeline.first_gap(earliest, duration)
            if start < best_start:
                best, best_start = timeline, start
        return best.reserve(earliest, duration)
