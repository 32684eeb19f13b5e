"""Tests for the NoC weave, pipeline invariants, and the CLI."""

import dataclasses

import pytest

from repro.config import small_test_system, tiled_chip
from repro.core import ZSim
from repro.cli import main as cli_main
from repro.cpu import OOOCore
from repro.config.system import CoreConfig
from repro.dbt.instrumentation import InstrumentedStream
from repro.memory.noc_weave import NocFabric
from repro.memory.network import Network
from repro.config.system import NetworkConfig
from repro.workloads.base import KernelProgram, KernelSpec
from repro.workloads.base import kernel_stream

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
        import json
        from repro.config.loader import config_to_dict
        path = tmp_path / "chip.json"
        path.write_text(json.dumps(
            config_to_dict(small_test_system(num_cores=2))))
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
