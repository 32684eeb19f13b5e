"""Tests for busy-interval timelines (weave resource occupancy)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.timeline import PRUNE_HORIZON, MultiTimeline, Timeline

from conftest import busy_at
from reference_timeline import ReferenceTimeline, reference_multi_timeline


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


#: Arrival offsets from the newest reservation: mostly near it (gaps
#: shorter and longer than the request), some far back or far ahead so
#: that the horizon prune runs.
_OFFSETS = st.lists(
    st.one_of(st.integers(-80, 80),
              st.integers(-PRUNE_HORIZON, PRUNE_HORIZON)),
    min_size=1, max_size=400)


class TestMergeMatchesReference:
    """Merging unusable gaps is invisible to single-size streams: the
    shipped timelines grant every request the start the gap-keeping
    reference (``tests/reference_timeline.py``) grants, as long as
    stragglers arrive within ``PRUNE_HORIZON`` of the newest
    reservation."""

    @staticmethod
    def _replay(shipped, reference, duration, offsets):
        # 80 intervals with gaps the request fits in: past the 64 at
        # which the prune starts, so a forward jump past the horizon
        # prunes both timelines.
        for i in range(80):
            assert shipped.reserve(3 * duration * i, duration) == \
                reference.reserve(3 * duration * i, duration)
        newest = 3 * duration * 79
        for offset in offsets:
            earliest = max(0, newest - PRUNE_HORIZON, newest + offset)
            start = shipped.reserve(earliest, duration)
            assert start == reference.reserve(earliest, duration)
            newest = max(newest, start)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), _OFFSETS)
    def test_timeline(self, duration, offsets):
        self._replay(Timeline(), ReferenceTimeline(), duration, offsets)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 40), _OFFSETS)
    def test_multi_timeline(self, servers, duration, offsets):
        self._replay(MultiTimeline(servers),
                     reference_multi_timeline(servers), duration, offsets)

    def test_merging_shortens_the_lists(self):
        """The point of the merge: gaps of one cycle between requests of
        two cycles leave one interval instead of fifty."""
        shipped, reference = Timeline(), ReferenceTimeline()
        for i in range(50):
            assert shipped.reserve(3 * i, 2) == reference.reserve(3 * i, 2)
        assert (len(shipped), len(reference)) == (1, 50)
