"""Tests for the extension features: prefetcher, config loader, ASCII
plots, periodic stats."""

import dataclasses
import json

import pytest

from repro.config import small_test_system, tiled_chip, westmere
from repro.config.loader import (
    config_from_dict,
    config_to_dict,
    load_config,
)
from repro.core import ZSim
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.prefetcher import StridePrefetcher
from repro.obs import Telemetry
from repro.stats.ascii_plot import line_plot
from repro.workloads import spec_workload
from repro.workloads.base import KernelSpec, Workload


class TestStridePrefetcher:
    def test_needs_training(self):
        pf = StridePrefetcher(degree=2)
        assert pf.observe(100) == ()      # first touch: allocate
        assert pf.observe(101) == ()      # stride seen once
        assert pf.observe(102) == (103, 104)  # confident

    def test_detects_negative_stride(self):
        pf = StridePrefetcher(degree=1)
        pf.observe(100)
        pf.observe(98)
        assert pf.observe(96) == (94,)

    def test_stride_change_retrains(self):
        pf = StridePrefetcher(degree=1)
        pf.observe(0)
        pf.observe(1)
        pf.observe(2)
        assert pf.observe(40) == ()       # stride broke (38 != 1)
        assert pf.observe(50) == ()       # new stride (10) seen once
        assert pf.observe(60) == (70,)    # retrained

    def test_pages_tracked_independently(self):
        pf = StridePrefetcher(degree=1)
        a, b = 0, 1 << StridePrefetcher.PAGE_SHIFT
        pf.observe(a)
        pf.observe(b + 5)
        pf.observe(a + 1)
        pf.observe(b + 10)
        assert pf.observe(a + 2) == (a + 3,)
        assert pf.observe(b + 15) == (b + 20,)

    def test_table_capacity(self):
        pf = StridePrefetcher()
        for page in range(2 * StridePrefetcher.TABLE_SIZE):
            pf.observe(page << StridePrefetcher.PAGE_SHIFT)
        assert len(pf._pages) == StridePrefetcher.TABLE_SIZE

    def test_same_line_repeats_ignored(self):
        pf = StridePrefetcher()
        pf.observe(7)
        assert pf.observe(7) == ()
        assert pf.observe(7) == ()


class TestPrefetcherIntegration:
    def config(self, degree):
        cfg = small_test_system(num_cores=1)
        return dataclasses.replace(
            cfg, l2=dataclasses.replace(cfg.l2, prefetch_degree=degree))

    def test_streaming_hits_after_prefetch(self):
        h = MemoryHierarchy(self.config(2))
        base = 0x100000
        for i in range(20):
            h.access(0, base + i * 64, False)
        # After training, demand accesses hit in L2.
        assert h.l2s[0].prefetch_fills > 0
        late = h.access(0, base + 20 * 64, False)
        assert "l2" not in late.missed_levels

    def test_prefetch_traffic_recorded_as_side_events(self):
        h = MemoryHierarchy(self.config(2))
        base = 0x200000
        wbacks = 0
        for i in range(20):
            result = h.access(0, base + i * 64, False)
            wbacks += len(result.wbacks)
        assert wbacks > 0

    def test_prefetch_speeds_up_streaming_workload(self):
        def run(degree):
            cfg = westmere(num_cores=1, core_model="ooo")
            cfg = dataclasses.replace(cfg, l2=dataclasses.replace(
                cfg.l2, prefetch_degree=degree))
            wl = spec_workload("libquantum", scale=1 / 32)
            sim = ZSim(cfg, wl.make_threads(target_instrs=20_000))
            return sim.run()
        off = run(0)
        on = run(2)
        assert on.ipc > 1.3 * off.ipc
        assert on.core_mpki("l2") < 0.5 * off.core_mpki("l2")

    def test_inclusion_holds_with_prefetch(self):
        h = MemoryHierarchy(self.config(4))
        import random
        rng = random.Random(4)
        for i in range(3000):
            h.access(0, (0x100000 + i * 64) if i % 2 else
                     rng.randrange(1 << 18), rng.random() < 0.3)
        assert h.check_inclusion() == []
        assert h.check_coherence() == []


class TestConfigLoader:
    def test_round_trip(self):
        cfg = westmere(num_cores=6)
        data = config_to_dict(cfg)
        rebuilt = config_from_dict(data)
        assert rebuilt == cfg

    def test_round_trip_tiled(self):
        cfg = tiled_chip(num_tiles=4)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="Unknown config key"):
            config_from_dict({"num_tilez": 4})

    def test_nested_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="l1d"):
            config_from_dict({"l1d": {"sizekb": 32}})
        # Knobs the model never honoured are rejected by name, not
        # accepted and ignored.
        for section, key in [("core", "fetch_bytes_per_cycle"),
                             ("core", "decode_width"),
                             ("l3", "inclusive"), ("l3", "shared_by"),
                             ("memory", "scheduling"),
                             ("memory", "page_policy"),
                             ("boundweave", "record_private_levels")]:
            with pytest.raises(ValueError, match="Unknown config key "
                               "'%s' in section 'system.%s'"
                               % (key, section)):
                config_from_dict({section: {key: 1}})
        for key in ("tWR", "tRRD"):
            with pytest.raises(ValueError, match="Unknown config key "
                               "'%s' in section 'system.memory.timing'"
                               % key):
                config_from_dict({"memory": {"timing": {key: 1}}})

    def test_base_overlay(self):
        base = westmere(num_cores=6)
        cfg = config_from_dict({"cores_per_tile": 2,
                                "l1d": {"size_kb": 64}}, base=base)
        assert cfg.num_cores == 2
        assert cfg.l1d.size_kb == 64
        assert cfg.l1d.ways == base.l1d.ways  # merged, not replaced
        assert cfg.l3.size_kb == base.l3.size_kb

    def test_file_round_trip(self, tmp_path):
        cfg = westmere(num_cores=3)
        path = tmp_path / "chip.json"
        with open(path, "w") as handle:
            json.dump(config_to_dict(cfg), handle)
        loaded = load_config(path)
        assert loaded == cfg
        # And the file is honest JSON.
        assert json.loads(path.read_text())["cores_per_tile"] == 3

    def test_hetero_cores_from_json(self):
        data = config_to_dict(small_test_system(num_cores=4))
        data["hetero_cores"] = {"0": {"model": "ooo"}}
        cfg = config_from_dict(data)
        assert cfg.hetero_cores[0].model == "ooo"

    def test_invalid_config_still_validated(self):
        data = config_to_dict(small_test_system())
        data["cores_per_tile"] = 0
        with pytest.raises(ValueError):
            config_from_dict(data)


class TestAsciiPlot:
    def test_renders_series(self):
        text = line_plot({"a": [(0, 0.0), (1, 1.0)],
                          "b": [(0, 1.0), (1, 0.0)]},
                         width=20, height=5, title="T")
        assert text.startswith("T")
        assert "o" in text and "x" in text
        assert "a" in text and "b" in text

    def test_log_scale(self):
        text = line_plot({"s": [(1, 1e-5), (2, 1e-3), (3, 1e-1)]},
                         logy=True, width=20, height=5)
        assert "0.1" in text
        assert "1e-05" in text

    def test_empty(self):
        assert "empty" in line_plot({})

    def test_constant_series_no_crash(self):
        text = line_plot({"c": [(0, 2.0), (1, 2.0)]}, width=10, height=4)
        assert "o" in text


class TestPeriodicStats:
    def test_samples_collected(self, tiny_config):
        """zsim's periodic stats dumps: the metrics registry records
        one (cycle, instrs) row at every interval barrier."""
        wl = Workload(KernelSpec(name="ps", barrier_iters=0, seed=1), 2)
        telemetry = Telemetry(trace=False)
        sim = ZSim(tiny_config,
                   wl.make_threads(target_instrs=30_000, num_threads=2),
                   telemetry=telemetry)
        res = sim.run()
        samples = telemetry.metrics.samples
        assert len(samples) == res.intervals >= 2
        cycles = [row["cycle"] for row in samples]
        instrs = [row["instrs"] for row in samples]
        assert cycles == sorted(cycles)
        assert instrs == sorted(instrs)
        assert (cycles[-1], instrs[-1]) == (res.cycles, res.instrs)
