"""Tests for set-index hashing, wrong-path fetches, and the pipelined
host model."""

import dataclasses

import pytest

from repro.config import small_test_system, westmere
from repro.core import HostModel, ZSim
from repro.memory.cache_array import CacheArray
from repro.memory.coherence import MESI
from repro.workloads.base import KernelSpec, Workload

from conftest import fill


class TestSetHashing:
    def test_hashed_index_in_range(self):
        array = CacheArray(64, 4, hash_sets=True)
        for line in range(0, 1 << 20, 977):
            assert 0 <= array.set_index(line) < 64

    def test_hashing_spreads_power_of_two_strides(self):
        """A stride equal to the set count maps every access to one set
        without hashing, but spreads with it."""
        plain = CacheArray(64, 4)
        hashed = CacheArray(64, 4, hash_sets=True)
        lines = [i * 64 for i in range(256)]
        plain_sets = {plain.set_index(line) for line in lines}
        hashed_sets = {hashed.set_index(line) for line in lines}
        assert len(plain_sets) == 1
        assert len(hashed_sets) > 16

    def test_lookup_consistent_with_hashing(self):
        array = CacheArray(16, 2, hash_sets=True)
        fill(array, 12345, MESI.E)
        assert array.lookup(12345) == MESI.E
        assert array.invalidate(12345) == MESI.E

    def test_hashed_l3_reduces_conflict_misses(self):
        """End to end: a large-stride workload thrashes a direct-indexed
        L3 set but survives a hashed one."""
        def run(hash_sets):
            cfg = small_test_system(num_cores=1, core_model="simple")
            cfg = dataclasses.replace(cfg, l3=dataclasses.replace(
                cfg.l3, hash_sets=hash_sets))
            spec = KernelSpec(name="hash", pattern="stride",
                              stride=cfg.l3.num_sets * 64,
                              footprint_kb=512, mem_ratio=0.4,
                              hot_fraction=0.0, barrier_iters=0, seed=3)
            sim = ZSim(cfg, Workload(spec, 1).make_threads(
                target_instrs=20_000), contention_model="none")
            return sim.run().core_mpki("l3")
        assert run(True) < run(False)


class TestWrongPathFetch:
    def run(self, wrong_path):
        cfg = westmere(num_cores=1, core_model="ooo")
        cfg = dataclasses.replace(cfg, core=dataclasses.replace(
            cfg.core, wrong_path_fetch=wrong_path))
        spec = KernelSpec(name="wp", branch_rand=0.4, code_blocks=64,
                          mem_ratio=0.2, barrier_iters=0, seed=8)
        sim = ZSim(cfg, Workload(spec, 1).make_threads(
            target_instrs=30_000))
        res = sim.run()
        return res, sim.cores[0]

    def test_wrong_path_fetches_counted(self):
        _res, core = self.run(True)
        assert core.mispredicts > 0
        assert core.wrong_path_fetches == core.mispredicts

    def test_disabled_by_config(self):
        _res, core = self.run(False)
        assert core.wrong_path_fetches == 0

    def test_wrong_path_pollutes_icache(self):
        """Wrong-path fetches touch extra I-cache lines: total L1I
        traffic grows (even though MPKI attribution excludes them)."""
        _res_on, core_on = self.run(True)
        _res_off, core_off = self.run(False)
        assert core_on.wrong_path_fetches > 0
        # The workloads are identical; timing should stay close (the
        # recovery penalty hides wrong-path latency).
        assert abs(core_on.cycle - core_off.cycle) < 0.2 * core_off.cycle


class TestPipelinedHostModel:
    def model(self):
        model = HostModel(host_threads=(1, 8))
        for _ in range(10):
            model.record_interval([(c, 0.01) for c in range(8)],
                                  [50, 50, 50, 50], 0.04)
        return model

    def test_pipelined_at_least_as_fast(self):
        model = self.model()
        assert model.pipelined_parallel_time(8) <= \
            model.parallel_time(8) + 1e-12
        assert model.pipelined_speedup(8) >= model.speedup(8) - 1e-9

    def test_pipelined_bound_by_slower_phase(self):
        model = self.model()
        par = model.pipelined_parallel_time(8)
        assert par >= model._bound_parallel[8] - 1e-12
        assert par >= model._weave_parallel[8] - 1e-12

    def test_untracked_raises(self):
        with pytest.raises(KeyError):
            self.model().pipelined_parallel_time(3)


class TestLoopStreamDetector:
    def run(self, lsd, code_blocks=1):
        cfg = westmere(num_cores=1, core_model="ooo")
        cfg = dataclasses.replace(cfg, core=dataclasses.replace(
            cfg.core, loop_stream_detector=lsd))
        spec = KernelSpec(name="lsd", code_blocks=code_blocks,
                          mem_ratio=0.1, hot_fraction=0.95,
                          body_instrs=10, branch_rand=0.0,
                          barrier_iters=0, seed=5)
        sim = ZSim(cfg, Workload(spec, 1).make_threads(
            target_instrs=20_000))
        res = sim.run()
        return res, sim.cores[0]

    def test_lsd_streams_tight_loops(self):
        _res, core = self.run(lsd=True, code_blocks=1)
        assert core.lsd_streams > core.bbls * 0.8

    def test_lsd_speeds_up_frontend_bound_loops(self):
        """A loop of multi-µop instructions is decode-bound (the
        4-1-1-1 rule allows one such instruction per cycle); streaming
        from the LSD removes the decode bottleneck."""
        from repro.core import ZSim as _ZSim
        from repro.dbt.instrumentation import InstrumentedStream
        from repro.isa.opcodes import Opcode
        from repro.isa.program import BBLExec, Instruction, Program
        from repro.isa.registers import gp
        from repro.virt.process import SimThread

        def run(lsd):
            program = Program("lsd-fe")
            instrs = []
            for i in range(6):
                # STORE and LOAD_ALU both decode to 2+ µops.
                instrs.append(Instruction(Opcode.STORE, gp(14),
                                          gp(2 + i % 4)))
                instrs.append(Instruction(Opcode.LOAD_ALU, gp(14),
                                          gp(1), gp(6 + i % 4)))
            block = program.add_block(instrs)
            base = 0x1000_0000

            def stream():
                for i in range(1500):
                    addrs = []
                    for slot in range(block.num_mem_slots):
                        addrs.append(base + ((i * 4 + slot) * 8) % 4096)
                    yield BBLExec(block, tuple(addrs))

            cfg = westmere(num_cores=1, core_model="ooo")
            cfg = dataclasses.replace(cfg, core=dataclasses.replace(
                cfg.core, loop_stream_detector=lsd, lsd_max_uops=40))
            sim = _ZSim(cfg, threads=[
                SimThread(InstrumentedStream(stream()))])
            return sim.run()
        on = run(True)
        off = run(False)
        assert on.cycles < 0.9 * off.cycles

    def test_lsd_off_by_default(self):
        _res, core = self.run(lsd=False)
        assert core.lsd_streams == 0

    def test_large_loops_do_not_stream(self):
        """A loop body bigger than the µop queue cannot stream."""
        cfg = westmere(num_cores=1, core_model="ooo")
        cfg = dataclasses.replace(cfg, core=dataclasses.replace(
            cfg.core, loop_stream_detector=True, lsd_max_uops=4))
        spec = KernelSpec(name="lsd-big", code_blocks=1, body_instrs=24,
                          mem_ratio=0.1, barrier_iters=0, seed=5)
        sim = ZSim(cfg, Workload(spec, 1).make_threads(
            target_instrs=10_000))
        sim.run()
        assert sim.cores[0].lsd_streams == 0

    def test_reference_machine_enables_lsd(self):
        from repro.baselines.reference import reference_simulator
        cfg = westmere(num_cores=1, core_model="ooo")
        wl = Workload(KernelSpec(name="lsd-ref", code_blocks=1,
                                 barrier_iters=0, seed=5), 1)
        sim = reference_simulator(cfg, wl.make_threads(
            target_instrs=5_000))
        sim.run()
        assert sim.cores[0].lsd_streams > 0
