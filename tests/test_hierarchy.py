"""Tests for the hierarchy builder: wiring, latencies, traces, stats."""

import dataclasses
import pickle
import types

import pytest

from repro.config import small_test_system, tiled_chip, westmere
from repro.core import ZSim
from repro.memory.access import StepKind
from repro.memory.cache import _bank
from repro.memory.hierarchy import MemoryHierarchy
from repro.resilience import Checkpointer, read_checkpoint
from repro.stats.diff import assert_equivalent
from repro.stats.counters import StatsNode
from repro.workloads import mt_workload

from conftest import latest


class TestConstruction:
    def test_westmere_shape(self):
        h = MemoryHierarchy(westmere(num_cores=6))
        assert len(h.l1i) == len(h.l1d) == 6
        assert len(h.l2s) == 6       # private per core
        assert len(h.l3_banks) == 6  # Table 2: 6 banks
        assert len(h.mainmem.ctrl_weaves) == 1

    def test_tiled_chip_shape(self):
        cfg = tiled_chip(num_tiles=4)
        h = MemoryHierarchy(cfg)
        assert len(h.l1d) == 64
        assert len(h.l2s) == 4        # shared per tile
        assert len(h.l3_banks) == 4   # one bank per tile
        assert len(h.mainmem.ctrl_weaves) == 4

    def test_l2_children_are_tile_l1s(self):
        cfg = tiled_chip(num_tiles=2, cores_per_tile=4)
        h = MemoryHierarchy(cfg)
        l2 = h.l2s[0]
        # 4 cores x (L1I + L1D)
        assert len(l2.children) == 8
        assert all(c.tile == 0 for c in l2.children)

    def test_no_weave_build(self):
        h = MemoryHierarchy(small_test_system(), build_weave=False)
        assert h.weave_components == []
        assert all(c.weave is None for c in h.l3_banks)

    def test_weave_components_cover_shared_levels(self):
        cfg = tiled_chip(num_tiles=2)
        h = MemoryHierarchy(cfg)
        names = {c.name for c in h.weave_components}
        assert "l3b0" in names and "l3b1" in names
        assert "memctrl0" in names
        assert "l2-0" in names  # shared-per-tile L2 gets a weave model


class TestBankSelection:
    def test_hash_spreads_consecutive_lines(self):
        cfg = westmere()
        h = MemoryHierarchy(cfg)
        select = h.l2s[0].parent_select
        counts = {}
        for line in range(6000):
            bank, _ = select(line)
            counts[bank.name] = counts.get(bank.name, 0) + 1
        # All banks used, roughly uniformly (within 2x of each other).
        assert len(counts) == 6
        assert max(counts.values()) < 2 * min(counts.values())

    def test_line_maps_to_single_bank(self):
        h = MemoryHierarchy(westmere())
        selects = [l2.parent_select for l2 in h.l2s]
        for line in (0, 17, 12345):
            banks = {select(line)[0] for select in selects}
            assert len(banks) == 1

    def test_bank_rule_deterministic(self):
        """``_bank`` is the one rule: deterministic, it spreads
        neighbouring lines, and ``parent_select`` routes by it."""
        l2 = MemoryHierarchy(westmere()).l2s[0]
        assert l2._parent_hashed
        assert _bank(l2, 1234) == _bank(l2, 1234)
        assert _bank(l2, 1) != _bank(l2, 2)
        for line in (0, 17, 12345):
            assert l2.parent_select(line)[0] \
                is l2._parent_banks[_bank(l2, line)]


class TestZeroLoadLatency:
    def test_l1_hit_latency(self, tiny_config):
        h = MemoryHierarchy(tiny_config)
        h.access(0, 0x1000, write=False)
        result = h.access(0, 0x1000, write=False)
        assert result.latency == tiny_config.l1d.latency
        assert result.hit_level == "l1d"

    def test_miss_latency_accumulates_levels(self, tiny_config):
        h = MemoryHierarchy(tiny_config)
        result = h.access(0, 0x1000, write=False)
        cfg = tiny_config
        floor = (cfg.l1d.latency + cfg.l2.latency + cfg.l3.latency
                 + cfg.memory.zero_load_latency)
        assert result.latency >= floor
        assert list(result.missed_levels) == ["l1d", "l2", "l3"]

    def test_l3_hit_cheaper_than_memory(self, tiny_config):
        h = MemoryHierarchy(tiny_config)
        h.access(0, 0x1000, write=False)
        mem_miss = h.access(1, 0x2000, write=False)
        l3_hit = h.access(1, 0x1000, write=False)
        assert l3_hit.latency < mem_miss.latency


class TestTraceRecording:
    def test_private_hit_records_no_steps(self, tiny_config):
        h = MemoryHierarchy(tiny_config)
        h.access(0, 0x1000, write=False)
        result = h.access(0, 0x1000, write=False)
        assert result.hit_level == "l1d"
        assert not result.steps

    def test_memory_miss_records_chain(self, tiny_config):
        h = MemoryHierarchy(tiny_config)
        result = h.access(0, 0x1000, write=False)
        kinds = [kind for _c, _o, kind in result.steps]
        assert kinds == [StepKind.MISS, StepKind.READ]
        offsets = [offset for _c, offset, _k in result.steps]
        assert offsets == sorted(offsets)
        assert all(0 <= off < result.latency for off in offsets)

    def test_l3_hit_records_hit_step(self, tiny_config):
        h = MemoryHierarchy(tiny_config)
        h.access(0, 0x1000, write=False)
        result = h.access(1, 0x1000, write=False)
        kinds = [kind for _c, _o, kind in result.steps]
        assert kinds == [StepKind.HIT]

    def test_dirty_l3_eviction_records_wback(self, tiny_config):
        h = MemoryHierarchy(tiny_config)
        seen_wback = False
        # Write many lines so dirty L3 evictions reach memory.
        for i in range(4096):
            result = h.access(0, i * 64, write=True)
            if result.wbacks:
                seen_wback = True
                comp, _off, kind = result.wbacks[0]
                assert kind == StepKind.WBACK
                assert comp.name.startswith("memctrl")
        assert seen_wback


def _four_tiles():
    """Four tiles of two cores with the weave-phase NoC on."""
    cfg = tiled_chip(4, core_model="simple", cores_per_tile=2)
    return dataclasses.replace(cfg, network=dataclasses.replace(
        cfg.network, weave_model=True)).validate()


class TestSharedChains:
    """The walk prices each path once; every record on it shares the
    path's ``steps`` and ``missed_levels`` tuples."""

    def test_two_cores_of_a_tile_share_one_chain(self):
        h = MemoryHierarchy(_four_tiles())
        first = 0x40
        bank = h.l2s[0].parent_select(first)[0]
        ctrls = h.mainmem._num_ctrls
        second, third = [line for line in range(first + 1, first + 4096)
                         if h.l2s[0].parent_select(line)[0] is bank
                         and line % ctrls == first % ctrls][:2]
        a = h.access(0, first << h.line_bits, write=False)
        b = h.access(1, second << h.line_bits, write=False)
        assert a.missed_levels == ("l1d", "l2", "l3")
        assert type(a.steps) is tuple and type(a.missed_levels) is tuple
        assert b.steps is a.steps and b.missed_levels is a.missed_levels
        assert b.latency == a.latency
        # Core 2 sits on tile 1: its own NoC route to the same bank.
        c = h.access(2, third << h.line_bits, write=False)
        assert c.missed_levels == a.missed_levels
        assert c.steps != a.steps

    def test_memo_holds_no_more_entries_than_paths(self):
        cfg = _four_tiles()
        records = []

        def recording(mem):
            def access(*args, **kwargs):
                record = mem.access(*args, **kwargs)
                records.append(record)
                return record
            return types.SimpleNamespace(access=access, config=mem.config)

        wl = mt_workload("blackscholes", scale=1 / 64, num_threads=8)
        sim = ZSim(cfg, threads=wl.make_threads(target_instrs=4_000),
                   mem_wrapper=recording)
        sim.run()
        tile = cfg.core_tile
        paths = {(tile(r.core_id), r.missed_levels, r.hit_level,
                  tuple((comp.name, offset, kind)
                        for comp, offset, kind in r.steps))
                 for r in records if r.missed_levels}
        chains = sim.hierarchy._chains
        assert 0 < len(chains) <= len(paths)
        assert all(type(r.steps) is tuple and type(r.missed_levels) is tuple
                   for r in records)

    def test_capsules_carry_no_memo_and_resume_matches(self, tmp_path):
        def make():
            wl = mt_workload("blackscholes", scale=1 / 64, num_threads=8)
            return ZSim(_four_tiles(),
                        threads=wl.make_threads(target_instrs=6_000)), wl

        straight, _ = make()
        want = straight.run().stats().to_dict()
        partial, wl = make()
        partial.checkpointer = Checkpointer(str(tmp_path), every=1)
        partial.run(max_intervals=3)
        hier = partial.hierarchy
        assert hier._chains
        blob = pickle.dumps(hier)
        assert b"_chains" not in blob
        assert pickle.loads(blob)._chains == {}
        capsule = read_checkpoint(latest(str(tmp_path)))
        assert capsule["sim"].hierarchy._chains == {}
        resumed = ZSim.resume(capsule, wl.make_threads(target_instrs=6_000))
        assert_equivalent(resumed.run().stats().to_dict(), want,
                          ignore=("host",),
                          context="resume vs straight, four tiles")


class TestStats:
    def test_fill_stats_tree(self, tiny_config):
        h = MemoryHierarchy(tiny_config)
        h.access(0, 0x1000, write=True)
        root = StatsNode("mem")
        h.fill_stats(root)
        tree = root.to_dict()
        assert tree["l1d-0"]["misses"] == 1
        assert tree["mem"]["reads"] == 1

    def test_profiler_hook_called(self, tiny_config):
        calls = []

        class Probe:
            def record(self, result, cycle):
                calls.append((result.line, cycle))

        h = MemoryHierarchy(tiny_config, profiler=Probe())
        h.access(0, 0x1000, write=False, cycle=123)
        assert calls == [(0x1000 >> 6, 123)]


class TestConfigValidation:
    def test_interval_floor(self):
        cfg = small_test_system()
        cfg.boundweave.interval_cycles = 5
        with pytest.raises(ValueError):
            cfg.validate()

    def test_line_size_mismatch(self):
        cfg = small_test_system()
        cfg.l2.line_bytes = 128
        with pytest.raises(ValueError):
            cfg.validate()

    def test_zero_cores(self):
        cfg = small_test_system()
        cfg.cores_per_tile = 0
        with pytest.raises(ValueError):
            cfg.validate()
