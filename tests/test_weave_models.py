"""Tests for weave-phase timing models: cache banks, DDR3, DRAMSim."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system import DDR3Timing, MemoryConfig
from repro.memory.access import StepKind
from repro.memory.dramsim import CycleDrivenDRAM, DRAMSimWeave
from repro.memory.weave import CacheBankWeave, MemCtrlWeave


class TestCacheBankWeave:
    def test_zero_load_service(self):
        bank = CacheBankWeave("b", latency=14)
        assert bank.occupy(100, StepKind.HIT) == 114
        assert bank.zero_load_service(StepKind.HIT) == 14

    def test_port_contention_serializes(self):
        bank = CacheBankWeave("b", latency=14, ports=1)
        first = bank.occupy(100, StepKind.HIT)
        second = bank.occupy(100, StepKind.HIT)
        assert second == first + bank.PORT_OCCUPANCY
        assert bank.port_stall_cycles == bank.PORT_OCCUPANCY

    def test_two_ports_allow_overlap(self):
        bank = CacheBankWeave("b", latency=14, ports=2)
        assert bank.occupy(100, StepKind.HIT) == 114
        assert bank.occupy(100, StepKind.HIT) == 114
        assert bank.port_stall_cycles == 0

    def test_mshr_exhaustion_stalls(self):
        bank = CacheBankWeave("b", latency=10, ports=16, mshrs=2,
                              miss_hold_cycles=100)
        bank.occupy(0, StepKind.MISS)
        bank.occupy(0, StepKind.MISS)
        third = bank.occupy(0, StepKind.MISS)
        # Must wait for the first MSHR to free at cycle 100.
        assert third >= 100
        assert bank.mshr_stall_cycles > 0

    def test_mshrs_free_over_time(self):
        bank = CacheBankWeave("b", latency=10, ports=16, mshrs=2,
                              miss_hold_cycles=50)
        bank.occupy(0, StepKind.MISS)
        bank.occupy(0, StepKind.MISS)
        late = bank.occupy(200, StepKind.MISS)  # both freed by then
        assert late == 210

    def test_hits_do_not_consume_mshrs(self):
        bank = CacheBankWeave("b", latency=10, ports=16, mshrs=1,
                              miss_hold_cycles=1000)
        bank.occupy(0, StepKind.MISS)
        hit = bank.occupy(10, StepKind.HIT)
        assert hit == 20
        assert bank.mshr_stall_cycles == 0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10_000),
                              st.sampled_from([StepKind.HIT,
                                               StepKind.MISS])),
                    min_size=1, max_size=60))
    def test_finish_never_before_lower_bound(self, arrivals):
        """Conservatism: finish >= arrival + zero-load service."""
        bank = CacheBankWeave("b", latency=14, ports=2, mshrs=4)
        for cycle, kind in sorted(arrivals):
            finish = bank.occupy(cycle, kind)
            assert finish >= cycle + bank.zero_load_service(kind)


class TestMemCtrlWeave:
    def make(self, **kwargs):
        return MemCtrlWeave("mc", MemoryConfig(**kwargs), core_mhz=2000)

    def test_zero_load_matches_config(self):
        mc = self.make(zero_load_latency=100)
        finish = mc.occupy(1000, StepKind.READ, line=0)
        # Powerdown exit may add a few cycles after a long idle.
        assert finish >= 1000 + 100
        assert finish <= 1000 + 100 + 30
        assert mc.zero_load_service(StepKind.READ) == 100

    def test_bank_conflict_delays(self):
        mc = self.make()
        line = 0x40  # fixed channel and bank
        first = mc.occupy(1000, StepKind.READ, line)
        second = mc.occupy(1001, StepKind.READ, line)
        assert second > first
        assert mc.bank_conflict_cycles > 0

    def test_different_banks_overlap_but_share_bus(self):
        mc = self.make()
        # Wake the channel just before, on an unrelated bank, so neither
        # measured access pays the powerdown-exit penalty.
        mc.occupy(1980, StepKind.READ, line=0x32)
        a = mc.occupy(2000, StepKind.READ, line=0x0)
        b = mc.occupy(2000, StepKind.READ, line=0x30)  # other bank
        assert abs(b - a) <= mc.burst_core_cycles + 1
        assert mc.bank_conflict_cycles == 0
        assert mc.bus_conflict_cycles > 0

    def test_writeback_cheaper_than_read(self):
        mc = self.make()
        mc.occupy(1000, StepKind.READ, 0)
        read = mc.occupy(5000, StepKind.READ, 0x100)
        mc = self.make()
        mc.occupy(1000, StepKind.READ, 0)
        wback = mc.occupy(5000, StepKind.WBACK, 0x100)
        assert wback < read

    def test_powerdown_exit_after_idle(self):
        mc = self.make()
        mc.occupy(0, StepKind.READ, 0)
        mc.occupy(100_000, StepKind.READ, 0)  # long idle
        assert mc.powerdown_exits >= 1

    def test_no_powerdown_when_busy(self):
        mc = self.make()
        # Both lines map to channel 0 ((line >> 4) % channels) but to
        # different banks, so the second access finds the channel awake.
        mc.occupy(1000, StepKind.READ, 0x00)
        mc.occupy(1010, StepKind.READ, 0x30)
        assert mc.powerdown_exits <= 1  # only the first cold access

    def test_saturation_queues(self):
        """Back-to-back same-channel requests pile up (STREAM's case)."""
        mc = self.make(channels_per_controller=1)
        finishes = [mc.occupy(i, StepKind.READ, line=i * 16)
                    for i in range(0, 100)]
        assert finishes[-1] > 100 + mc.zero_load_service(StepKind.READ)


class TestCycleDrivenDRAM:
    def test_row_hit_faster_than_conflict(self):
        t = DDR3Timing()
        dram = CycleDrivenDRAM(t)
        r1 = dram.enqueue(bank=0, row=7)
        start = dram.run_until_done(r1)
        r2 = dram.enqueue(bank=0, row=7)       # row hit
        hit_done = dram.run_until_done(r2) - start
        r3 = dram.enqueue(bank=0, row=9)       # row conflict
        conflict_done = dram.run_until_done(r3) - (start + hit_done)
        assert dram.row_hits == 1
        assert dram.row_misses == 2
        assert hit_done < conflict_done

    def test_fcfs_no_bypass(self):
        dram = CycleDrivenDRAM(DDR3Timing())
        slow = dram.enqueue(bank=0, row=1)
        dram.run_until_done(slow)
        blocked = dram.enqueue(bank=0, row=2)   # conflict: slow
        ready = dram.enqueue(bank=1, row=1)     # would be fast
        done_blocked = dram.run_until_done(blocked)
        done_ready = dram.run_until_done(ready)
        assert done_ready > done_blocked  # strictly served in order

    def test_completion_recorded_once(self):
        dram = CycleDrivenDRAM(DDR3Timing())
        req = dram.enqueue(0, 0)
        assert dram.completed(req) is None
        done = dram.run_until_done(req)
        assert dram.completed(req) == done


class TestDRAMSimGlue:
    def test_glue_monotone_and_conservative(self):
        weave = DRAMSimWeave("ds", MemoryConfig(), core_mhz=2000)
        prev = 0
        for i in range(20):
            cycle = i * 50
            finish = weave.occupy(cycle, StepKind.READ, line=i * 8)
            assert finish >= cycle
            assert finish >= prev - 1000  # sanity: no wild regressions
            prev = finish

    def test_glue_contention_slows_bursts(self):
        weave = DRAMSimWeave("ds", MemoryConfig(), core_mhz=2000)
        burst = [weave.occupy(100, StepKind.READ, line=i * 2)
                 for i in range(30)]
        assert burst[-1] > burst[0]
