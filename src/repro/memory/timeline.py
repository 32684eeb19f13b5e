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

Old intervals are pruned behind a horizon; a straggler arriving further
back than the horizon sees a free resource, which errs on the
uncontended (bound-consistent) side.  A straggler's start is the one a
gap-keeping timeline gives only while it arrives within
:data:`PRUNE_HORIZON` of the newest reservation: further back, a merged
interval may cover cycles that timeline would have pruned.
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
