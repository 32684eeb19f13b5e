"""Tests for multiprogrammed mixes and config presets' exact values."""

import pytest

from repro.config import tiled_chip, westmere, small_test_system
from repro.core import ZSim
from repro.workloads import spec_workload
from repro.workloads.multiprogrammed import (
    MultiprogrammedMix,
    interference_study,
)


class TestMultiprogrammedMix:
    def mix(self, names=("namd", "povray")):
        return MultiprogrammedMix(
            [spec_workload(n, scale=1 / 64) for n in names])

    def test_one_process_per_app(self):
        mix = self.mix()
        threads = mix.make_threads(target_instrs=5_000)
        assert len(threads) == 2
        assert len(mix.processes) == 2
        assert threads[0].process is not threads[1].process
        assert threads[0].process.name == "namd"

    def test_threads_pinned_to_distinct_cores(self):
        threads = self.mix().make_threads(target_instrs=5_000)
        assert threads[0].affinity == {0}
        assert threads[1].affinity == {1}

    def test_translation_caches_not_shared(self):
        threads = self.mix().make_threads(target_instrs=5_000)
        assert threads[0].stream.tcache is not threads[1].stream.tcache

    def test_footprints_disjoint(self):
        assert self.mix(("mcf", "libquantum", "namd")).footprint_span()

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            MultiprogrammedMix([])

    def test_mix_runs_to_completion(self):
        cfg = small_test_system(num_cores=2, core_model="simple")
        mix = self.mix()
        sim = ZSim(cfg, threads=mix.make_threads(target_instrs=8_000))
        res = sim.run()
        assert sim.scheduler.all_done
        # Both cores did their own app's work.
        assert sim.cores[0].instrs > 7_000
        assert sim.cores[1].instrs > 7_000

    def test_interference_study_shape(self):
        cfg = small_test_system(num_cores=2, core_model="simple")
        workloads = [spec_workload(n, scale=1 / 64)
                     for n in ("libquantum", "lbm")]
        results = interference_study(cfg, workloads,
                                     target_instrs=12_000)
        for name in ("libquantum", "lbm"):
            entry = results[name]
            assert entry["solo_cycles"] > 0
            # Sharing the chip never speeds an app up.
            assert entry["slowdown"] >= 0.99

    def test_interference_needs_enough_cores(self):
        cfg = small_test_system(num_cores=1)
        with pytest.raises(ValueError):
            interference_study(cfg, [spec_workload("namd", 1 / 64),
                                     spec_workload("mcf", 1 / 64)])


class TestPresetFidelity:
    """The presets must encode Tables 2 and 3 exactly."""

    def test_westmere_table2(self):
        cfg = westmere()
        assert cfg.num_cores == 6
        assert cfg.core.model == "ooo"
        assert cfg.core.freq_mhz == 2270
        assert (cfg.l1i.size_kb, cfg.l1i.ways, cfg.l1i.latency) == \
            (32, 4, 3)
        assert (cfg.l1d.size_kb, cfg.l1d.ways, cfg.l1d.latency) == \
            (32, 8, 4)
        assert (cfg.l2.size_kb, cfg.l2.ways, cfg.l2.latency) == \
            (256, 8, 7)
        assert not cfg.l2_shared_per_tile      # private L2
        assert cfg.l3.size_kb == 12 * 1024
        assert cfg.l3.ways == 16
        assert cfg.l3.banks == 6
        assert cfg.l3.latency == 14
        assert cfg.l3.mshrs == 16
        assert cfg.l3.hash_banks                # "hashed"
        assert cfg.network.topology == "ring"
        assert cfg.network.hop_latency == 1
        assert cfg.network.injection_latency == 5
        assert cfg.memory.controllers == 1
        assert cfg.memory.channels_per_controller == 3
        assert cfg.memory.powerdown_threshold == 15
        assert cfg.boundweave.interval_cycles == 1000

    def test_tiled_table3(self):
        for tiles, cores in ((4, 64), (16, 256), (64, 1024)):
            cfg = tiled_chip(num_tiles=tiles)
            assert cfg.num_cores == cores
            assert cfg.cores_per_tile == 16
            assert cfg.core.freq_mhz == 2000
            assert cfg.l2.size_kb == 4 * 1024
            assert cfg.l2.latency == 8
            assert cfg.l2_shared_per_tile
            assert cfg.l3.size_kb == 8 * 1024 * tiles  # 8MB bank/tile
            assert cfg.l3.latency == 12
            assert cfg.l3.banks == tiles
            assert cfg.network.topology == "mesh"
            assert cfg.network.router_stages == 2
            assert cfg.memory.controllers == tiles  # 1 per tile
            assert cfg.memory.channels_per_controller == 2

    def test_ddr3_1333_timing(self):
        cfg = westmere()
        timing = cfg.memory.timing
        assert cfg.memory.bus_mhz == 667
        assert timing.tCL == 9 and timing.tRCD == 9 and timing.tRP == 9
