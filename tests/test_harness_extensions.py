"""Tests for ROI magic ops, sampling, tracing, NoC weave, pipeline
invariants, and the CLI."""

import dataclasses

import pytest

from repro.config import small_test_system, tiled_chip, westmere
from repro.core import ZSim
from repro.cli import main as cli_main
from repro.cpu import OOOCore
from repro.config.system import CoreConfig
from repro.dbt.instrumentation import InstrumentedStream
from repro.dbt.tracing import TraceReader, record_trace
from repro.harness.roi import RoiTracker, roi_stream
from repro.harness.sampling import sampled_ipc
from repro.isa.opcodes import Opcode
from repro.isa.program import BBLExec, Instruction, Program
from repro.isa.registers import gp
from repro.memory.noc_weave import NocFabric
from repro.memory.network import Network
from repro.config.system import NetworkConfig
from repro.virt.process import SimThread
from repro.virt.syscalls import Barrier, Lock, Spawn, Unlock
from repro.workloads.base import KernelProgram, KernelSpec, Workload
from repro.workloads.base import kernel_stream


class TestRoi:
    def make_sim(self, work_iters=200, warmup_iters=200):
        program = Program("roi-wl")
        work = program.add_block(
            [Instruction(Opcode.ALU, gp(1), gp(2), gp(1))] * 8)

        def body(n):
            for _ in range(n):
                yield BBLExec(work)

        cfg = small_test_system(num_cores=1, core_model="simple")
        stream = roi_stream(body(work_iters),
                            warmup_stream=body(warmup_iters))
        sim = ZSim(cfg, threads=[SimThread(InstrumentedStream(stream))])
        tracker = RoiTracker(sim).attach()
        return sim, tracker, work.num_instrs

    def test_roi_excludes_warmup(self):
        sim, tracker, block_instrs = self.make_sim(work_iters=200,
                                                   warmup_iters=300)
        res = sim.run()
        assert res.instrs > tracker.roi_instrs
        # ROI contains the work iterations plus the closing magic op.
        assert abs(tracker.roi_instrs - 200 * block_instrs) <= \
            2 * block_instrs
        assert 0 < tracker.roi_cycles < res.cycles

    def test_roi_ipc_positive(self):
        sim, tracker, _ = self.make_sim()
        sim.run()
        assert tracker.roi_ipc > 0.5

    def test_roi_begin_reads_the_live_clock(self):
        """Magic-op handlers run inside the stream's ``__next__``: the
        ROI-begin snapshot must read the core's clock after the
        warm-up, not the one written back at the last barrier."""
        sim, tracker, _ = self.make_sim()
        sim.run()
        program = Program("warm-only")
        work = program.add_block(
            [Instruction(Opcode.ALU, gp(1), gp(2), gp(1))] * 8)
        warm = ZSim(small_test_system(num_cores=1, core_model="simple"),
                    threads=[SimThread(InstrumentedStream(
                        BBLExec(work) for _ in range(200)))])
        assert tracker.begin[0] == warm.run().cycles
        assert tracker.roi_ipc >= 0.99

    def test_no_markers_no_roi(self):
        program = Program("no-roi")
        work = program.add_block([Instruction(Opcode.NOP)])
        cfg = small_test_system(num_cores=1, core_model="simple")
        sim = ZSim(cfg, threads=[SimThread(InstrumentedStream(
            iter([BBLExec(work)])))])
        tracker = RoiTracker(sim).attach()
        sim.run()
        assert tracker.roi_instrs == 0


class TestSampling:
    def test_sampled_ipc_close_to_full(self):
        cfg = westmere(num_cores=1, core_model="ooo")
        spec = KernelSpec(name="smpl", footprint_kb=64, mem_ratio=0.25,
                          hot_fraction=0.8, barrier_iters=0, seed=6)

        def make_thread():
            wl = Workload(spec, 1)
            return wl.make_threads(target_instrs=400_000)[0]

        result = sampled_ipc(cfg, make_thread, num_samples=6,
                             ff_instrs=30_000, warm_instrs=2_000,
                             measure_instrs=4_000)
        assert len(result.samples) >= 4
        # Compare against a (shorter) full detailed run.
        wl = Workload(spec, 1)
        sim = ZSim(cfg, threads=wl.make_threads(target_instrs=80_000))
        full = sim.run()
        assert abs(result.ipc_estimate - full.ipc) < 0.3 * full.ipc

    def test_sample_result_ci(self):
        cfg = small_test_system(num_cores=1, core_model="simple")
        spec = KernelSpec(name="smpl2", barrier_iters=0, seed=7)

        def make_thread():
            return Workload(spec, 1).make_threads(
                target_instrs=200_000)[0]
        result = sampled_ipc(cfg, make_thread, num_samples=5)
        assert result.relative_ci < 1.0


class TestTracing:
    def test_record_and_replay_identical(self, tmp_path):
        spec = KernelSpec(name="trc", barrier_iters=50, lock_iters=25,
                          shared_fraction=0.3, seed=9)
        kprog = KernelProgram(spec)
        path = tmp_path / "trace.jsonl"
        count = record_trace(
            kernel_stream(kprog, 0, 2, target_instrs=5_000), path,
            kprog.program)
        reader = TraceReader(path)
        assert len(reader) == count
        original = list(kernel_stream(kprog, 0, 2, target_instrs=5_000))
        replayed = list(reader)
        assert len(replayed) == len(original)
        for orig, rep in zip(original, replayed):
            assert orig.block.bbl_id == rep.block.bbl_id
            assert orig.addrs == rep.addrs
            assert orig.taken == rep.taken
            assert type(orig.syscall) == type(rep.syscall)  # noqa: E721

    def test_replayed_trace_simulates_identically(self, tmp_path):
        spec = KernelSpec(name="trc2", barrier_iters=0, seed=9)
        kprog = KernelProgram(spec)
        path = tmp_path / "trace.jsonl"
        record_trace(kernel_stream(kprog, 0, 1, target_instrs=8_000),
                     path, kprog.program)

        def run(stream):
            cfg = small_test_system(num_cores=1, core_model="ooo")
            sim = ZSim(cfg, threads=[
                SimThread(InstrumentedStream(stream))])
            return sim.run().cycles
        live = run(kernel_stream(kprog, 0, 1, target_instrs=8_000))
        replay = run(iter(TraceReader(path)))
        assert live == replay

    def test_syscall_round_trip(self, tmp_path):
        program = Program("sys-trace")
        sblock = program.add_block([Instruction(Opcode.SYSCALL)])
        execs = [BBLExec(sblock, (), syscall=Barrier(("b", 1), 2)),
                 BBLExec(sblock, (), syscall=Lock("m")),
                 BBLExec(sblock, (), syscall=Unlock("m"))]
        path = tmp_path / "sys.jsonl"
        record_trace(iter(execs), path, program)
        replayed = list(TraceReader(path))
        assert isinstance(replayed[0].syscall, Barrier)
        assert replayed[0].syscall.key == ("b", 1)
        assert replayed[0].syscall.parties == 2
        assert isinstance(replayed[1].syscall, Lock)

    def test_spawn_rejected(self, tmp_path):
        program = Program("spawn-trace")
        sblock = program.add_block([Instruction(Opcode.SYSCALL)])
        execs = [BBLExec(sblock, (), syscall=Spawn(lambda: None))]
        with pytest.raises(ValueError, match="cannot be traced"):
            record_trace(iter(execs), tmp_path / "x.jsonl", program)


class TestNocWeave:
    def fabric(self, topology, tiles):
        network = Network(NetworkConfig(topology=topology), tiles)
        return NocFabric(network, tiles)

    def test_ring_route_shortest_direction(self):
        fabric = self.fabric("ring", 8)
        assert list(fabric.route(0, 2)) == [(0, 1), (1, 2)]
        assert list(fabric.route(0, 7)) == [(0, 7)]
        assert list(fabric.route(6, 1)) == [(6, 7), (7, 0), (0, 1)]

    def test_mesh_route_xy(self):
        fabric = self.fabric("mesh", 16)  # 4x4
        hops = list(fabric.route(0, 5))   # (0,0) -> (1,1)
        assert hops == [(0, 1), (1, 5)]

    def test_mesh_partial_row_fallback(self):
        fabric = self.fabric("mesh", 6)  # 3 wide, last row partial
        for src in range(6):
            for dst in range(6):
                hops = list(fabric.route(src, dst))
                # Route stays within existing tiles and is connected.
                current = src
                for a, b in hops:
                    assert a == current
                    assert 0 <= b < 6
                    current = b
                if src != dst:
                    assert current == dst

    def test_link_contention_delays(self):
        fabric = self.fabric("ring", 4)
        first = fabric.traverse(100, 0, 2)
        second = fabric.traverse(100, 0, 2)  # same links
        assert second > first
        assert fabric.link_stall_cycles > 0

    def test_disjoint_routes_no_contention(self):
        fabric = self.fabric("ring", 8)
        fabric.traverse(100, 0, 1)
        fabric.traverse(100, 4, 5)
        assert fabric.link_stall_cycles == 0

    def test_end_to_end_with_noc_weave(self):
        cfg = tiled_chip(num_tiles=4, core_model="simple",
                         cores_per_tile=2)
        cfg = dataclasses.replace(cfg, network=dataclasses.replace(
            cfg.network, weave_model=True))
        from repro.workloads import mt_workload
        wl = mt_workload("fft", scale=1 / 64, num_threads=8)
        sim = ZSim(cfg, wl.make_threads(target_instrs=20_000,
                                        num_threads=8))
        res = sim.run()
        noc_events = sum(c.events_executed
                         for c in sim.hierarchy.weave_components
                         if c.name.startswith("noc"))
        assert noc_events > 0
        assert res.cycles > 0


class TestPipelineInvariants:
    def test_uop_stage_ordering(self):
        """dispatch <= exec < done <= retire for every µop, and retire
        cycles are monotone (in-order retirement)."""
        from repro.workloads.base import KernelProgram

        kprog = KernelProgram(KernelSpec(name="pipe", seed=4,
                                         branch_rand=0.2))
        core = OOOCore(0, _FakeMem(), CoreConfig(model="ooo"))
        core.debug_trace = []
        core.attach(InstrumentedStream(
            kernel_stream(kprog, target_instrs=5_000)))
        core.run_until(10 ** 9)
        assert len(core.debug_trace) > 300
        last_retire = 0
        for dispatch, exec_cycle, done, retire in core.debug_trace:
            assert dispatch <= exec_cycle
            assert exec_cycle < done or done == exec_cycle  # mem fwd
            assert done <= retire or retire == done + 1 or retire >= done
            assert retire >= last_retire
            last_retire = retire


class _FakeMem:
    def access(self, core_id, addr, write, cycle=0, ifetch=False):
        from repro.memory.access import AccessRecord
        record = AccessRecord(core_id, addr >> 6, write)
        record.latency = 4
        record.hit_level = "l1d" if not ifetch else "l1i"
        return record


class TestCli:
    def test_list_workloads(self, capsys):
        assert cli_main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "blackscholes" in out

    def test_table1(self, capsys):
        assert cli_main(["table1"]) == 0
        assert "Bound-weave" in capsys.readouterr().out

    def test_run_preset(self, capsys):
        assert cli_main(["run", "--config", "test", "--workload",
                         "namd", "--instrs", "5000"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out

    def test_run_with_stats_out(self, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        assert cli_main(["run", "--config", "test", "--workload",
                         "water", "--instrs", "5000", "--threads", "2",
                         "--stats-out", str(stats)]) == 0
        import json
        data = json.loads(stats.read_text())
        assert data["instrs"] > 0

    def test_run_json_config(self, tmp_path, capsys):
        from repro.config.loader import save_config
        path = tmp_path / "chip.json"
        save_config(small_test_system(num_cores=2), path)
        assert cli_main(["run", "--config", str(path), "--workload",
                         "namd", "--instrs", "4000"]) == 0

    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "--config", "test", "--workload", "nope"])

    def test_validate(self, capsys):
        assert cli_main(["validate", "--config", "test", "--workload",
                         "namd", "--instrs", "5000",
                         "--core-model", "ooo"]) == 0
        assert "perf_error" in capsys.readouterr().out
