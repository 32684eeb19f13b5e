"""Tests for the baselines: reference machine, TLB model, PDES, Graphite."""


from repro.baselines.graphite import graphite_simulator
from repro.baselines.pdes import PDESSimulator
from repro.baselines.reference import reference_simulator
from repro.baselines.tlb import PAGE_BITS, TLB, TLBMemory
from repro.config import westmere
from repro.core import ZSim
from repro.memory.contention import MD1Model
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads.base import KernelSpec, Workload


def workload(**kwargs):
    defaults = dict(name="bl", footprint_kb=256, mem_ratio=0.35,
                    pattern="random", hot_fraction=0.3,
                    barrier_iters=0, seed=5)
    defaults.update(kwargs)
    return Workload(KernelSpec(**defaults), num_threads=1)


class TestTLB:
    def test_hit_after_fill(self):
        tlb = TLB(entries=4)
        assert not tlb.lookup(7)
        assert tlb.lookup(7)
        assert tlb.hits == 1 and tlb.misses == 1

    def test_lru_eviction(self):
        tlb = TLB(entries=2)
        tlb.lookup(1)
        tlb.lookup(2)
        tlb.lookup(1)      # touch 1: 2 is now LRU
        tlb.lookup(3)      # evicts 2
        assert tlb.lookup(1)
        assert not tlb.lookup(2)

    def test_capacity_bound(self):
        tlb = TLB(entries=8)
        for page in range(100):
            tlb.lookup(page)
        assert len(tlb._map) == 8


class TestTLBMemory:
    def test_walk_adds_latency(self, tiny_config):
        h = MemoryHierarchy(tiny_config)
        tlbmem = TLBMemory(h, dtlb_entries=4)
        cold = tlbmem.access(0, 0x100000, False)
        # Warm both the TLB and the caches, then touch the same page.
        warm = tlbmem.access(0, 0x100000 + 64, False)
        assert tlbmem.walks == 1
        assert cold.latency > warm.latency

    def test_page_walks_pollute_caches(self, tiny_config):
        """PTE reads go through the hierarchy (the paper's explanation
        for reference-stream differences)."""
        h = MemoryHierarchy(tiny_config)
        tlbmem = TLBMemory(h, dtlb_entries=2)
        accesses_before = h.l1d[0].accesses
        for page in range(16):
            tlbmem.access(0, page << PAGE_BITS, False)
        # Each access did 1 data access + 2 PTE reads (TLB always misses
        # with 16 pages round-robin over 2 entries).
        assert h.l1d[0].accesses - accesses_before == 16 * 3

    def test_ifetch_uses_itlb(self, tiny_config):
        h = MemoryHierarchy(tiny_config)
        tlbmem = TLBMemory(h)
        tlbmem.access(0, 0x400000, False, ifetch=True)
        assert tlbmem.itlbs[0].misses == 1
        assert tlbmem.dtlbs[0].misses == 0

    def test_delegates_to_hierarchy(self, tiny_config):
        h = MemoryHierarchy(tiny_config)
        tlbmem = TLBMemory(h)
        assert tlbmem.config is h.config
        assert tlbmem.line_bits == h.line_bits


class TestReferenceMachine:
    def test_zsim_overestimates_performance(self, tiny_config):
        """The headline validation shape: zsim (no TLBs) reports fewer
        cycles than the reference for TLB-heavy workloads."""
        wl = workload(footprint_kb=1024, hot_fraction=0.0)
        ref = reference_simulator(
            tiny_config, wl.make_threads(target_instrs=20_000))
        rres = ref.run()
        zsim = ZSim(tiny_config, wl.make_threads(target_instrs=20_000))
        zres = zsim.run()
        assert zres.cycles < rres.cycles
        assert ref.tlb_memory.walks > 0

    def test_reference_deterministic(self, tiny_config):
        wl = workload()

        def once():
            sim = reference_simulator(
                tiny_config, wl.make_threads(target_instrs=10_000))
            return sim.run().cycles
        assert once() == once()

    def test_reference_has_bigger_predictor(self, tiny_ooo_config):
        wl = workload()
        sim = reference_simulator(
            tiny_ooo_config, wl.make_threads(target_instrs=1_000))
        assert sim.cores[0].bpred.table_size > \
            tiny_ooo_config.core.bpred.table_size


class TestPDESBaseline:
    def test_pdes_synchronizes_every_quantum(self, tiny_config):
        wl = workload()
        pdes = PDESSimulator(tiny_config,
                             wl.make_threads(target_instrs=5_000),
                             lookahead=10)
        res = pdes.run()
        assert res.synchronizations > res.cycles / 20
        assert pdes.lookahead == 10

    def test_pdes_slower_than_bound_weave(self, tiny_config):
        """The paper's claim, qualitatively: conservative PDES pays a
        barrier every few cycles and is much slower wall-clock."""
        wl = workload()
        zsim = ZSim(tiny_config, wl.make_threads(target_instrs=20_000))
        zres = zsim.run()
        pdes = PDESSimulator(tiny_config,
                             wl.make_threads(target_instrs=20_000),
                             lookahead=10)
        pres = pdes.run()
        assert pres.wall_seconds > 1.5 * zres.wall_seconds

    def test_lookahead_floor(self, tiny_config):
        pdes = PDESSimulator(tiny_config, lookahead=1)
        assert pdes.lookahead == 10


class TestGraphiteBaseline:
    def test_uses_md1_contention(self, tiny_config):
        sim = graphite_simulator(tiny_config)
        assert sim.contention_model == "md1"
        assert sim.weave is None

    def test_slack_window_configured(self, tiny_config):
        sim = graphite_simulator(tiny_config, slack=3000)
        assert sim.config.boundweave.interval_cycles == 3000


class TestMD1Accuracy:
    def test_underestimates_saturation_vs_event_driven(self, tiny_config):
        """Figure 6 (right) shape: at saturation, the M/D/1 estimate
        diverges from the event-driven model."""
        def cycles(model):
            # Every access misses (stride > line): memory saturates.
            wl = workload(name="strm", pattern="stride", stride=256,
                          mem_ratio=0.5, footprint_kb=2048,
                          hot_fraction=0.0)
            sim = ZSim(tiny_config,
                       wl.make_threads(target_instrs=30_000,
                                       num_threads=4),
                       contention_model=model)
            return sim.run().cycles
        none = cycles("none")
        md1 = cycles("md1")
        weave = cycles("weave")
        assert weave > 1.05 * none   # the event-driven model sees it
        # M/D/1 captures well under half of that contention (Figure 6
        # right: the queueing curve hugs the no-contention curve).
        assert (md1 - none) < 0.5 * (weave - none)

    def test_only_memory_reads_queue(self):
        """On westmere (L1, L2, L3) under load, an access that misses
        the L1 and hits the L2 gets no queueing delay: the bare
        hierarchy's zero-load latency.  Memory reads are delayed."""
        cfg = westmere(1, "simple")
        mem = ZSim(cfg, contention_model="md1").mem
        bare = MemoryHierarchy(cfg, build_weave=False)
        sets, bits = cfg.l1d.num_sets, bare.line_bits
        # Ways + 1 lines of one L1 set push the first out of the L1
        # only; the other lines load every channel's queue.
        conflict = [(k * sets) << bits for k in range(cfg.l1d.ways + 1)]
        load = [line << bits for line in range(1, 400) if line % sets]
        got, want = [], []
        for addr in conflict + load + conflict[:1]:
            got.append(mem.access(0, addr, False))
            want.append(bare.access(0, addr, False))
        assert list(got[-1].missed_levels) == ["l1d"]
        assert got[-1].latency == want[-1].latency
        assert got[-2].missed_levels[-1] == "l3"
        assert got[-2].latency > want[-2].latency

    def test_md1_wait_grows_with_load(self):
        model = MD1Model(service_cycles=10, window=1000)
        light = model.latency(0)
        for cycle in range(0, 900, 10):
            model.latency(cycle)
        heavy = model.latency(901)
        assert heavy > light
