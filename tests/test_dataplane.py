"""The flattened per-instruction data plane must be invisible.

Three layers of guarantees:

* the schedule-once ``DecodedBBL`` tables (``flat``, ``mem_ops``,
  ``fetch_lines``, ``final_writes``) are field-for-field faithful to the
  legacy per-µop objects and to an independently simulated scoreboard;
* the L1-hit fast path can be switched off with zero effect on
  simulated stats;
* slab recycling (contexts, results, trace lists) survives the full
  matrix — backends, kill faults, checkpoint/resume — byte-identically.
"""

import pytest

from repro.config import small_test_system
from repro.core import ZSim
from repro.isa.decoder import FETCH_LINE_BYTES, decode_bbl
from repro.isa.uops import UopType
from repro.resilience import Checkpointer, latest, read_checkpoint
from repro.stats import assert_equivalent
from repro.workloads import mt_workload, spec_workload

from conftest import alu_block, build_program, mem_block


# ---------------------------------------------------------------------
# Flat descriptor tables vs the legacy µop objects
# ---------------------------------------------------------------------


def _workload_blocks():
    """A corpus of static blocks: every kernel block of three real
    workload generators plus the synthetic corner cases."""
    blocks = []
    for make in (lambda: spec_workload("mcf", scale=1 / 64),
                 lambda: spec_workload("namd", scale=1 / 64),
                 lambda: mt_workload("blackscholes", scale=1 / 64,
                                     num_threads=2)):
        blocks.extend(make().kernel_program().program.blocks)
    blocks.extend(build_program(num_blocks=2).blocks)
    blocks.append(mem_block(loads=3, stores=2))
    blocks.append(alu_block(count=6, dependent=True))
    assert len(blocks) > 10
    return blocks


def _reference_schedule(uops):
    """Recompute the static dependency schedule by walking the legacy
    Uop objects with an explicit last-writer scoreboard."""
    last_writer = {}
    rows = []
    final = {}
    for i, uop in enumerate(uops):
        row = []
        for src in (uop.src1, uop.src2):
            if src >= 0 and src in last_writer:
                row += [last_writer[src], -1]
            elif src >= 0:
                row += [-1, src]
            else:
                row += [-1, -1]
        rows.append(tuple(row))
        for dst in (uop.dst1, uop.dst2):
            if dst >= 0:
                last_writer[dst] = i
                final[dst] = i
    return rows, final


class TestFlatDescriptorFidelity:
    def test_flat_matches_uops_field_for_field(self):
        for block in _workload_blocks():
            decoded = decode_bbl(block)
            assert len(decoded.flat) == len(decoded.uops)
            assert decoded.num_uops == len(decoded.uops)
            for row, uop in zip(decoded.flat, decoded.uops):
                assert row[:4] == (uop.type, uop.lat, uop.ports,
                                   uop.mem_slot)

    def test_static_schedule_matches_scoreboard_walk(self):
        for block in _workload_blocks():
            decoded = decode_bbl(block)
            rows, final = _reference_schedule(decoded.uops)
            assert [row[4:] for row in decoded.flat] == rows
            assert dict(decoded.final_writes) == final

    def test_dependency_indices_point_backwards(self):
        for block in _workload_blocks():
            for i, row in enumerate(decode_bbl(block).flat):
                _type, _lat, _ports, _slot, dep1, gsrc1, dep2, gsrc2 = row
                for dep, gsrc in ((dep1, gsrc1), (dep2, gsrc2)):
                    assert dep < i
                    # In-block and global sources are exclusive.
                    assert dep < 0 or gsrc < 0

    def test_aggregates_match_uops(self):
        for block in _workload_blocks():
            decoded = decode_bbl(block)
            uops = decoded.uops
            assert decoded.num_loads == sum(
                1 for u in uops if u.type == UopType.LOAD)
            assert decoded.num_stores == sum(
                1 for u in uops if u.type == UopType.STORE_ADDR)
            assert decoded.mem_ops == tuple(
                (u.mem_slot, u.type == UopType.STORE_ADDR) for u in uops
                if u.type in (UopType.LOAD, UopType.STORE_ADDR))
            assert decoded.has_syscall == any(
                u.type == UopType.SYSCALL for u in uops)

    def test_fetch_lines_cover_block_bytes(self):
        for block in _workload_blocks():
            lines = decode_bbl(block).fetch_lines
            end = block.address + block.num_bytes
            assert lines[0] == block.address & ~(FETCH_LINE_BYTES - 1)
            assert lines[0] <= block.address < lines[0] + FETCH_LINE_BYTES
            for a, b in zip(lines, lines[1:]):
                assert b - a == FETCH_LINE_BYTES
            assert lines[-1] < end <= lines[-1] + FETCH_LINE_BYTES


# ---------------------------------------------------------------------
# L1-hit fast path: switchable, invisible
# ---------------------------------------------------------------------


def _stats_tree(result):
    return result.stats().to_dict()


def _run(config, contention, fastpath=None, backend=None,
         instrs=15_000, l2_fastpath=None, flat=None):
    wl = mt_workload("blackscholes", scale=1 / 64,
                     num_threads=config.num_cores)
    sim = ZSim(config, threads=wl.make_threads(target_instrs=instrs),
               contention_model=contention, backend=backend)
    if fastpath is not None:
        sim.hierarchy.enable_fastpath = fastpath
    if l2_fastpath is not None:
        sim.hierarchy.enable_l2_fastpath = l2_fastpath
    if flat is not None:
        sim.hierarchy.enable_flat_walk = flat
    return sim, _stats_tree(sim.run())


class TestFastpathEquivalence:
    @pytest.mark.parametrize("contention", ("none", "md1", "weave"))
    @pytest.mark.parametrize("core_model", ("simple", "ooo"))
    def test_fastpath_off_is_invisible(self, core_model, contention):
        cfg = small_test_system(num_cores=2, core_model=core_model)
        sim_on, on = _run(cfg, contention)
        cfg = small_test_system(num_cores=2, core_model=core_model)
        sim_off, off = _run(cfg, contention, fastpath=False)
        # Host-side counters (fastpath_hits etc.) legitimately differ;
        # every simulated stat must be byte-identical.
        assert_equivalent(on, off, ignore=("host",),
                          context="fastpath on vs off (%s, %s)"
                          % (core_model, contention))
        assert sim_on.hierarchy.fastpath_hits > 0
        assert sim_off.hierarchy.fastpath_hits == 0

    @pytest.mark.parametrize("contention", ("none", "md1", "weave"))
    @pytest.mark.parametrize("core_model", ("simple", "ooo"))
    def test_l2_fastpath_off_is_invisible(self, core_model, contention):
        """The shared-level hit fast path (ISSUE 10) must be invisible
        on its own: L1 fast path held constant, L2 path toggled."""
        cfg = small_test_system(num_cores=2, core_model=core_model)
        sim_on, on = _run(cfg, contention)
        cfg = small_test_system(num_cores=2, core_model=core_model)
        sim_off, off = _run(cfg, contention, l2_fastpath=False)
        assert_equivalent(on, off, ignore=("host",),
                          context="l2 fastpath on vs off (%s, %s)"
                          % (core_model, contention))
        assert sim_on.hierarchy.l2_fastpath_hits > 0
        assert sim_off.hierarchy.l2_fastpath_hits == 0

    @pytest.mark.parametrize("contention", ("none", "weave"))
    def test_both_fastpaths_off_is_invisible(self, contention):
        """Every access down the full coherence walk still matches."""
        cfg = small_test_system(num_cores=4, core_model="ooo")
        _, on = _run(cfg, contention)
        cfg = small_test_system(num_cores=4, core_model="ooo")
        sim_off, off = _run(cfg, contention, fastpath=False,
                            l2_fastpath=False)
        assert_equivalent(on, off, ignore=("host",),
                          context="both fastpaths off (%s)" % contention)
        assert sim_off.hierarchy.fastpath_hits == 0
        assert sim_off.hierarchy.l2_fastpath_hits == 0
        assert sim_off.hierarchy.slow_accesses > 0

    @pytest.mark.parametrize("contention", ("none", "md1", "weave"))
    @pytest.mark.parametrize("core_model", ("simple", "ooo"))
    def test_flat_walk_off_is_invisible(self, core_model, contention):
        """The flattened coherence walk (ISSUE 10) against the recursive
        reference implementation, fast paths disabled so every access
        exercises the walk under test."""
        cfg = small_test_system(num_cores=4, core_model=core_model)
        _, on = _run(cfg, contention, fastpath=False, l2_fastpath=False)
        cfg = small_test_system(num_cores=4, core_model=core_model)
        sim_off, off = _run(cfg, contention, fastpath=False,
                            l2_fastpath=False, flat=False)
        assert_equivalent(on, off, ignore=("host",),
                          context="flat walk on vs off (%s, %s)"
                          % (core_model, contention))
        assert sim_off.hierarchy.slow_accesses > 0

    def test_host_dbt_counters_are_reported(self):
        cfg = small_test_system(num_cores=2, core_model="ooo")
        sim, tree = _run(cfg, "weave")
        dbt = tree["host"]["dbt"]
        assert dbt["fastpath_hits"] == sim.hierarchy.fastpath_hits > 0
        assert dbt["l2_fastpath_hits"] == \
            sim.hierarchy.l2_fastpath_hits > 0
        assert dbt["slow_accesses"] == sim.hierarchy.slow_accesses > 0
        assert 0.0 < dbt["fastpath_hit_rate"] < 1.0
        assert dbt["translation_hit_rate"] > 0.9
        assert dbt["trace_recycles"] > 0
        hier = sim.hierarchy
        assert dbt["dir_bitmask_ops"] == \
            sum(c.dir_ops for c in hier.all_caches()) \
            + hier.mainmem.dir_ops > 0

    def test_slabs_stay_bounded_and_recycle(self):
        cfg = small_test_system(num_cores=2, core_model="ooo")
        sim, _ = _run(cfg, "weave")
        assert sim.hierarchy.ctx_reuses > 0
        assert sim.hierarchy.result_reuses > 0
        assert len(sim.hierarchy._result_pool) <= 4096
        # Pooled weave events must come back with no edges.
        for event in sim.weave.pool._free:
            assert list(event.edges()) == [] and event.overflow is None


# ---------------------------------------------------------------------
# Recycling across the backend/fault/resume matrix
# ---------------------------------------------------------------------


class TestRecyclingMatrix:
    def test_backends_match_serial_with_recycling(self):
        cfg = small_test_system(num_cores=2, core_model="ooo")
        _, baseline = _run(cfg, "weave", backend="serial")
        for backend in ("parallel", "pipelined", "process"):
            cfg = small_test_system(num_cores=2, core_model="ooo")
            sim, tree = _run(cfg, "weave", backend=backend)
            assert_equivalent(tree, baseline, ignore=("host",),
                              context="%s vs serial with recycling"
                              % backend)

    def test_kill_and_resume_matches_straight_run(self, tmp_path):
        """Checkpoint mid-run (with populated slabs), resume in a fresh
        simulator, and the final stats match an uninterrupted run: the
        pools are host-side state and must not leak into capsules."""
        cfg = small_test_system(num_cores=2, core_model="ooo")
        _, baseline = _run(cfg, "weave")

        cfg = small_test_system(num_cores=2, core_model="ooo")
        wl = mt_workload("blackscholes", scale=1 / 64,
                         num_threads=cfg.num_cores)
        partial = ZSim(cfg, threads=wl.make_threads(target_instrs=15_000),
                       contention_model="weave")
        partial.checkpointer = Checkpointer(str(tmp_path), every=1)
        partial.run(max_intervals=3)  # "killed" mid-run, slabs warm
        assert partial.hierarchy.result_reuses > 0

        capsule = read_checkpoint(latest(str(tmp_path)))
        resumed = ZSim.resume(
            capsule, wl.make_threads(target_instrs=15_000))
        # Resume starts with cold slabs but identical simulated state.
        assert resumed.hierarchy._result_pool == []
        assert_equivalent(_stats_tree(resumed.run()), baseline,
                          ignore=("host",),
                          context="kill-and-resume vs straight run")

    def test_old_checkpoint_without_slab_fields_resumes(self, tmp_path):
        """A capsule written before the data-plane refactor lacks the
        pool/counter attributes; __setstate__ must default them."""
        cfg = small_test_system(num_cores=2, core_model="ooo")
        wl = mt_workload("blackscholes", scale=1 / 64,
                         num_threads=cfg.num_cores)
        partial = ZSim(cfg, threads=wl.make_threads(target_instrs=15_000),
                       contention_model="weave")
        partial.checkpointer = Checkpointer(str(tmp_path), every=1)
        partial.run(max_intervals=2)

        capsule = read_checkpoint(latest(str(tmp_path)))
        resumed = ZSim.resume(
            capsule, wl.make_threads(target_instrs=15_000))
        hier = resumed.hierarchy
        # Strip the new attributes as an old capsule would have them.
        state = hier.__getstate__()
        for attr in ("_ctx_pool", "_result_pool", "enable_fastpath",
                     "enable_l2_fastpath", "fastpath_hits",
                     "l2_fastpath_hits", "slow_accesses", "ctx_reuses",
                     "result_reuses", "enable_flat_walk", "_walk_caches",
                     "_walk_idx"):
            state.pop(attr, None)
        hier.__setstate__(state)
        assert hier._ctx_pool == [] and hier._result_pool == []
        assert hier.enable_fastpath in (True, False)
        # And an array pickled without free-way counts recomputes them.
        array = hier.l1d[0].array
        array_state = dict(array.__dict__)
        array_state.pop("_free")
        array.__setstate__(array_state)
        assert array._free == [sum(w is None for w in ways)
                               for ways in array._ways]
        resumed.run()
