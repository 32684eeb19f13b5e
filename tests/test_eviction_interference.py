"""Tests for eviction-driven path-altering interference (Figure 2's
second class): rare with realistic associativity, visible at 1-2 ways."""

import dataclasses

import pytest

from repro.config import small_test_system
from repro.core import InterferenceProfiler, ZSim
from repro.memory.access import AccessRecord
from repro.workloads.base import KernelSpec, Workload


def access(core, line, cycle, evictions=()):
    record = AccessRecord(core, line, write=True)
    record.missed_levels = ("l1d",)
    record.shared_evictions = tuple(evictions)
    return record, cycle


class TestEvictionClassification:
    def test_eviction_of_other_cores_line_counts(self):
        prof = InterferenceProfiler((1000,), track_evictions=True)
        prof.record(*access(0, 10, 100))
        prof.record(*access(1, 50, 200, evictions=(10,)))
        assert prof.eviction_interfering[1000] == 1

    def test_eviction_of_own_line_does_not_count(self):
        prof = InterferenceProfiler((1000,), track_evictions=True)
        prof.record(*access(0, 10, 100))
        prof.record(*access(0, 50, 200, evictions=(10,)))
        assert prof.eviction_interfering[1000] == 0

    def test_eviction_of_untouched_line_does_not_count(self):
        prof = InterferenceProfiler((1000,), track_evictions=True)
        prof.record(*access(0, 10, 100))
        prof.record(*access(1, 50, 200, evictions=(999,)))
        assert prof.eviction_interfering[1000] == 0

    def test_cross_window_eviction_does_not_count(self):
        prof = InterferenceProfiler((1000,), track_evictions=True)
        prof.record(*access(0, 10, 900))
        prof.record(*access(1, 50, 1100, evictions=(10,)))
        assert prof.eviction_interfering[1000] == 0

    def test_disabled_by_default(self):
        prof = InterferenceProfiler((1000,))
        prof.record(*access(0, 10, 100))
        prof.record(*access(1, 50, 200, evictions=(10,)))
        assert prof.eviction_interfering[1000] == 0

    def test_fraction_helper(self):
        prof = InterferenceProfiler((1000,), track_evictions=True)
        prof.record(*access(0, 10, 100))
        prof.record(*access(1, 50, 200, evictions=(10,)))
        assert prof.eviction_fraction(1000) == pytest.approx(0.5)


class TestLowAssociativityEffect:
    """The paper: eviction interference "is extremely rare unless we use
    shared caches with unrealistically low associativity (1 or 2 ways)"."""

    def run(self, l3_ways):
        cfg = small_test_system(num_cores=4, core_model="simple")
        cfg = dataclasses.replace(cfg, l3=dataclasses.replace(
            cfg.l3, ways=l3_ways, repl="lru"))
        prof = InterferenceProfiler((10_000,), track_evictions=True)
        spec = KernelSpec(name="evict-%d" % l3_ways, footprint_kb=96,
                          mem_ratio=0.4, hot_fraction=0.0,
                          pattern="random", shared_fraction=0.3,
                          shared_kb=64, barrier_iters=0, seed=12)
        wl = Workload(spec, 4)
        sim = ZSim(cfg, wl.make_threads(target_instrs=40_000,
                                        num_threads=4),
                   contention_model="none", profiler=prof)
        sim.run()
        return prof.eviction_fraction(10_000)

    def test_low_associativity_amplifies_eviction_interference(self):
        direct_mapped = self.run(l3_ways=1)
        realistic = self.run(l3_ways=8)
        assert direct_mapped > 2 * realistic
        assert direct_mapped > 0
