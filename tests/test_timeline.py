"""Tests for busy-interval timelines (weave resource occupancy)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.timeline import (PRUNE_HORIZON, IntervalFloor,
                                   MultiTimeline, Timeline)

from conftest import busy_at
from reference_timeline import (ReferenceTimeline, UnprunedTimeline,
                                reference_multi_timeline)


class TestTimeline:
    def test_empty_grants_immediately(self):
        assert Timeline().reserve(100, 10) == 100

    def test_zero_duration(self):
        assert Timeline().reserve(100, 0) == 100

    def test_back_to_back_serialize(self):
        t = Timeline()
        assert t.reserve(100, 10) == 100
        assert t.reserve(100, 10) == 110

    def test_hole_filling_for_stragglers(self):
        """The property that fixes the delay ratchet: a request arriving
        'in the past' can use a hole the resource still had."""
        t = Timeline()
        t.reserve(1000, 10)
        assert t.reserve(100, 10) == 100  # past hole still usable

    def test_hole_between_reservations(self):
        t = Timeline()
        t.reserve(100, 10)   # [100, 110)
        t.reserve(200, 10)   # [200, 210)
        assert t.reserve(100, 10) == 110   # fits in the gap
        assert t.reserve(100, 95) == 210   # too big for any gap

    def test_partial_overlap_pushes_forward(self):
        t = Timeline()
        t.reserve(100, 20)   # [100, 120)
        assert t.reserve(110, 5) == 120

    def test_merging_keeps_list_compact(self):
        t = Timeline()
        for i in range(100):
            t.reserve(i * 10, 10)  # all contiguous
        assert len(t) == 1

    def test_busy_at(self):
        t = Timeline()
        t.reserve(100, 10)
        assert busy_at(t, 105)
        assert not busy_at(t, 99)
        assert not busy_at(t, 110)  # end-exclusive

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5000), st.integers(1, 50)),
                    min_size=1, max_size=80))
    def test_no_double_booking(self, requests):
        """Reservations never overlap and never start early."""
        t = Timeline()
        granted = []
        for earliest, duration in requests:
            start = t.reserve(earliest, duration)
            assert start >= earliest
            granted.append((start, start + duration))
        granted.sort()
        for (s1, e1), (s2, e2) in zip(granted, granted[1:]):
            assert e1 <= s2


class TestMultiTimeline:
    def test_parallel_servers(self):
        mt = MultiTimeline(2)
        assert mt.reserve(100, 10) == 100
        assert mt.reserve(100, 10) == 100  # second server
        assert mt.reserve(100, 10) == 110  # both busy now

    def test_single_server_degenerates(self):
        mt = MultiTimeline(1)
        assert mt.reserve(0, 5) == 0
        assert mt.reserve(0, 5) == 5

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4),
           st.lists(st.tuples(st.integers(0, 1000), st.integers(1, 20)),
                    min_size=1, max_size=60))
    def test_capacity_respected(self, servers, requests):
        """At any cycle, at most ``servers`` reservations are active."""
        mt = MultiTimeline(servers)
        active = []
        for earliest, duration in requests:
            start = mt.reserve(earliest, duration)
            assert start >= earliest
            active.append((start, start + duration))
        events = sorted([(s, 1) for s, _e in active]
                        + [(e, -1) for _s, e in active])
        load = peak = 0
        for _cycle, delta in events:
            load += delta
            peak = max(peak, load)
        assert peak <= servers


#: Per step: how far the interval floor rises first, the arrival offset
#: from the newest reservation — mostly near it (gaps shorter and longer
#: than the request), some far back or far ahead so that the horizon
#: prune runs — and how many requests arrive together (enough to keep
#: every server of a MultiTimeline busy).
_STEPS = st.lists(
    st.tuples(st.one_of(st.integers(0, 60),
                        st.integers(0, PRUNE_HORIZON // 2)),
              st.one_of(st.integers(-80, 80),
                        st.integers(-PRUNE_HORIZON, PRUNE_HORIZON)),
              st.integers(1, 5)),
    min_size=1, max_size=300)


def replay(shipped, reference, floor, duration, steps):
    """Feed one single-size stream to both timelines; every grant must
    agree.  No request arrives below the floor or further back than
    ``PRUNE_HORIZON`` behind the newest reservation."""
    # 80 intervals with gaps the request fits in: past the 64 at which
    # the prune starts.
    for i in range(80):
        assert shipped.reserve(3 * duration * i, duration) == \
            reference.reserve(3 * duration * i, duration)
    newest = 3 * duration * 79
    for rise, offset, burst in steps:
        floor.cycle = min(floor.cycle + rise, newest + 80)
        earliest = max(floor.cycle, newest - PRUNE_HORIZON, newest + offset)
        for _ in range(burst):
            start = shipped.reserve(earliest, duration)
            assert start == reference.reserve(earliest, duration), \
                (earliest, floor.cycle)
            newest = max(newest, start)


class TestMergeMatchesReference:
    """Merging unusable gaps is invisible to single-size streams: the
    shipped timelines grant every request the start the gap-keeping
    reference (``tests/reference_timeline.py``) grants, both pruning at
    the same rising floor, as long as stragglers arrive at or above the
    floor and within ``PRUNE_HORIZON`` of the newest reservation."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), _STEPS)
    def test_timeline(self, duration, steps):
        floor = IntervalFloor()
        replay(Timeline(floor), ReferenceTimeline(floor), floor, duration,
               steps)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 40), _STEPS)
    def test_multi_timeline(self, servers, duration, steps):
        floor = IntervalFloor()
        replay(MultiTimeline(servers, floor),
               reference_multi_timeline(servers, floor), floor, duration,
               steps)

    def test_merging_shortens_the_lists(self):
        """The point of the merge: gaps of one cycle between requests of
        two cycles leave one interval instead of fifty."""
        shipped, reference = Timeline(), ReferenceTimeline()
        for i in range(50):
            assert shipped.reserve(3 * i, 2) == reference.reserve(3 * i, 2)
        assert (len(shipped), len(reference)) == (1, 50)


class _OverPrunedTimeline(Timeline):
    """Drops ten cycles more history than the floor allows."""

    __slots__ = ()

    def _prune(self, newest):
        self._floor.cycle += 10
        super()._prune(newest)
        self._floor.cycle -= 10


class TestFloorPruneIsInvisible:
    """Pruning at the interval floor changes no grant: for single-size
    streams whose requests never arrive below a rising floor (nor
    further back than ``PRUNE_HORIZON``), the shipped timelines grant
    every request the start a timeline that never prunes grants."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), _STEPS)
    def test_timeline(self, duration, steps):
        floor = IntervalFloor()
        replay(Timeline(floor), UnprunedTimeline(), floor, duration, steps)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 40), _STEPS)
    def test_multi_timeline(self, servers, duration, steps):
        floor = IntervalFloor()
        replay(MultiTimeline(servers, floor),
               reference_multi_timeline(servers, server=UnprunedTimeline),
               floor, duration, steps)

    def test_the_floor_drops_dead_history(self):
        """What the prune is for: once the floor passes them, the
        intervals behind it go when a reservation grows the list past
        64."""
        floor = IntervalFloor()
        shipped, unpruned = Timeline(floor), UnprunedTimeline()
        for i in range(70):
            for timeline in (shipped, unpruned):
                timeline.reserve(30 * i, 10)
        floor.cycle = 30 * 69
        assert shipped.reserve(30 * 70, 10) == \
            unpruned.reserve(30 * 70, 10) == 30 * 70
        assert (len(shipped), len(unpruned)) == (2, 71)

    def test_an_over_prune_is_seen(self):
        """The lockstep sees a prune that drops an interval ending just
        past the floor: with the floor at 2345, a request far ahead
        prunes, and a request at the floor is then granted cycles that
        ``[2340, 2350)`` still holds."""
        floor = IntervalFloor()
        with pytest.raises(AssertionError, match="2345"):
            replay(_OverPrunedTimeline(floor), UnprunedTimeline(), floor,
                   10, [(2345, 1000, 1), (0, -1025, 1)])
