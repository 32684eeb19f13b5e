"""Tests for the path-altering interference profiler (Figure 2)."""

from repro.core.interference import InterferenceProfiler
from repro.memory.access import AccessRecord


def access(core, line, cycle, write=False, hit=True, invs=0):
    record = AccessRecord(core, line, write)
    if not hit:
        record.missed_levels = ("l1d",)
    record.invalidations = invs
    return record, cycle


class TestClassification:
    def test_single_core_never_interferes(self):
        prof = InterferenceProfiler((1000,))
        for i in range(10):
            prof.record(*access(0, 5, 100 + i, write=True))
        assert prof.interfering[1000] == 0

    def test_cross_core_write_interferes(self):
        prof = InterferenceProfiler((1000,))
        prof.record(*access(0, 5, 100, write=True))
        prof.record(*access(1, 5, 200, write=False))
        assert prof.interfering[1000] == 1

    def test_both_read_hits_excluded(self):
        """Two read hits to the same line are not path-altering."""
        prof = InterferenceProfiler((1000,))
        prof.record(*access(0, 5, 100, write=False, hit=True))
        prof.record(*access(1, 5, 200, write=False, hit=True))
        assert prof.interfering[1000] == 0

    def test_read_miss_pair_interferes(self):
        prof = InterferenceProfiler((1000,))
        prof.record(*access(0, 5, 100, write=False, hit=False))
        prof.record(*access(1, 5, 200, write=False, hit=True))
        assert prof.interfering[1000] == 1

    def test_read_hit_with_invalidations_counts(self):
        """A 'read hit' that triggered coherence actions alters paths."""
        prof = InterferenceProfiler((1000,))
        prof.record(*access(0, 5, 100, write=False, hit=True, invs=1))
        prof.record(*access(1, 5, 200, write=False, hit=True))
        assert prof.interfering[1000] == 1

    def test_different_lines_never_interfere(self):
        prof = InterferenceProfiler((1000,))
        prof.record(*access(0, 5, 100, write=True))
        prof.record(*access(1, 6, 100, write=True))
        assert prof.interfering[1000] == 0


class TestWindows:
    def test_accesses_in_different_windows_do_not_interfere(self):
        prof = InterferenceProfiler((1000,))
        prof.record(*access(0, 5, 900, write=True))
        prof.record(*access(1, 5, 1100, write=True))  # next window
        assert prof.interfering[1000] == 0

    def test_longer_window_catches_more(self):
        """The same trace shows more interference at longer intervals —
        the monotonicity behind Figure 2."""
        prof = InterferenceProfiler((1000, 10_000))
        prof.record(*access(0, 5, 900, write=True))
        prof.record(*access(1, 5, 1100, write=True))
        assert prof.interfering[1000] == 0
        assert prof.interfering[10_000] == 1

    def test_fraction(self):
        prof = InterferenceProfiler((1000,))
        prof.record(*access(0, 5, 100, write=True))
        prof.record(*access(1, 5, 200, write=True))
        prof.record(*access(1, 99, 300, write=True))
        assert prof.total_accesses == 3
        assert prof.fraction(1000) == 1 / 3


class TestReorderedCount:
    def test_in_order_pair_not_reordered(self):
        prof = InterferenceProfiler((1000,))
        prof.record(*access(0, 5, 100, write=True))
        prof.record(*access(1, 5, 200, write=True))
        assert prof.interfering[1000] == 1
        assert prof.reordered[1000] == 0

    def test_out_of_order_pair_reordered(self):
        """Simulated later but bound-timed earlier: actually reordered
        (the count zsim uses to pick the interval length)."""
        prof = InterferenceProfiler((1000,))
        prof.record(*access(0, 5, 800, write=True))   # simulated first
        prof.record(*access(1, 5, 200, write=True))   # earlier cycle!
        assert prof.reordered[1000] == 1

    def test_reordered_subset_of_interfering(self):
        import random
        rng = random.Random(2)
        prof = InterferenceProfiler((1000, 10_000))
        for _ in range(500):
            prof.record(*access(rng.randrange(4), rng.randrange(8),
                                rng.randrange(5000),
                                write=rng.random() < 0.5,
                                hit=rng.random() < 0.7))
        for length in (1000, 10_000):
            assert prof.reordered[length] <= prof.interfering[length]
