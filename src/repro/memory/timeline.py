"""Busy-interval timelines for weave-phase resources.

Weave events from different cores reach a component in rough — not
strict — time order: per-core contention feedback skews core timeframes
across intervals.  A resource modeled as a single "next free cycle"
frontier would serialize a straggler event behind occupancy that lies in
its future, creating spurious delay that compounds interval over
interval.  Instead, each resource tracks its busy *intervals*, so a
request can claim any hole at or after its arrival cycle — the same
property zsim's cycle-granular weave port/bank state has.

Old intervals are pruned behind a horizon; a straggler arriving further
back than the horizon sees a free resource, which errs on the
uncontended (bound-consistent) side.
"""

from __future__ import annotations

from bisect import bisect_right

#: How far back busy history is kept, cycles.
PRUNE_HORIZON = 100_000


class Timeline:
    """Busy intervals of a single-server resource."""

    __slots__ = ("_starts", "_ends", "_pruned_before")

    def __init__(self):
        self._starts = []
        self._ends = []
        self._pruned_before = 0

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

        Single pass (ISSUE 10): the gap scan of :meth:`first_gap` is
        inlined, and the scan cursor doubles as the insertion index — at
        scan end every earlier interval starts at or before the landed
        candidate and every later one starts at or beyond
        ``candidate + duration``, which is exactly the
        ``bisect_right(starts, candidate)`` position the two-pass
        version recomputed."""
        if duration <= 0:
            return earliest
        starts, ends = self._starts, self._ends
        if not ends or earliest >= ends[-1]:
            # Lands past all recorded occupancy (the common case when
            # events arrive in rough time order): append, merging with
            # a touching last interval — identical list state to the
            # general path's insert-then-merge.
            if ends and ends[-1] == earliest:
                ends[-1] = earliest + duration
            else:
                starts.append(earliest)
                ends.append(earliest + duration)
            if len(starts) > 64 and earliest - PRUNE_HORIZON > \
                    self._pruned_before:
                self._prune(earliest - PRUNE_HORIZON)
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
        # Merge with touching neighbours (keeps the lists short).
        if idx + 1 < len(starts) and ends[idx] >= starts[idx + 1]:
            ends[idx] = max(ends[idx], ends[idx + 1])
            del starts[idx + 1], ends[idx + 1]
        if idx > 0 and ends[idx - 1] >= starts[idx]:
            ends[idx - 1] = max(ends[idx - 1], ends[idx])
            del starts[idx], ends[idx]
        if len(starts) > 64 and candidate - PRUNE_HORIZON > \
                self._pruned_before:
            self._prune(candidate - PRUNE_HORIZON)
        return candidate

    def _prune(self, before):
        self._pruned_before = before
        ends = self._ends
        if not ends or ends[0] > before:
            # Nothing old enough to cut: a long timeline whose horizon
            # advances every reserve hits this on each call.
            return
        cut = bisect_right(ends, before)
        if cut:
            del self._starts[:cut]
            del ends[:cut]

    def __len__(self):
        return len(self._starts)


class MultiTimeline:
    """``count`` identical servers; reservations take the earliest."""

    __slots__ = ("_timelines",)

    def __init__(self, count):
        self._timelines = [Timeline() for _ in range(max(1, count))]

    def reserve(self, earliest, duration):
        timelines = self._timelines
        if len(timelines) == 1:
            return timelines[0].reserve(earliest, duration)
        best = timelines[0]
        best_start = best.first_gap(earliest, duration)
        for timeline in timelines[1:]:
            if best_start == earliest:
                break
            start = timeline.first_gap(earliest, duration)
            if start < best_start:
                best, best_start = timeline, start
        return best.reserve(earliest, duration)
