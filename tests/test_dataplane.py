"""The flattened per-instruction data plane must be invisible.

Three layers of guarantees:

* the schedule-once ``DecodedBBL`` tables (``flat``, ``mem_ops``,
  ``fetch_lines``, ``final_writes``) are field-for-field faithful to the
  opcode table's µops and to an independently simulated scoreboard;
* the shipped access path (L1 hits served in the core, every other
  access down the flattened walk) produces the simulated stats of the
  recursive reference walk, every run that can take the core probe
  gets a live one, and memories without one still see every access;
* an access record belongs to whoever holds it (nothing recycles
  records, trace lists or weave events), and the data plane survives
  the full matrix — backends, kill faults, checkpoint/resume —
  byte-identically.
"""

import dataclasses
import types

import pytest

from repro.baselines.reference import reference_simulator
from repro.config import small_test_system, tiled_chip, westmere
from repro.core import InterferenceProfiler, ZSim
from repro.cpu.ooo import OOOCore
from repro.exec.process import _RecordingMem
from repro.exec.serial import SerialBackend
from repro.isa.decoder import FETCH_LINE_BYTES, decode_bbl
from repro.isa.opcodes import Opcode, decode_instruction
from repro.isa.registers import RFLAGS, RIP
from repro.isa.uops import PORTS_BRANCH, Uop, UopType
from repro.memory.coherence import MESI
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs import Telemetry
from repro.resilience import Checkpointer, read_checkpoint
from repro.stats.diff import assert_equivalent
from repro.workloads import mt_workload, spec_workload

from conftest import (alu_block, build_program, latest, mem_block,
                      recursive_walk, reference_access)
from reference_walk import reference_classes


# ---------------------------------------------------------------------
# Flat descriptor tables vs the opcode table's µops
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


def _uops(block):
    """The block's µops re-derived from the opcode table
    (``decode_instruction``), each CMP + conditional branch pair fused
    into one branch µop that reads the compare's sources."""
    instrs = block.instructions
    uops = []
    mem_slot = 0
    i = 0
    while i < len(instrs):
        instr = instrs[i]
        if (instr.opcode == Opcode.CMP and i + 1 < len(instrs)
                and instrs[i + 1].opcode == Opcode.COND_BRANCH):
            uops.append(Uop(UopType.BRANCH, instr.src1, instr.src2, RIP,
                            RFLAGS, lat=1, ports=PORTS_BRANCH))
            i += 2
            continue
        instr_uops, slots = decode_instruction(instr, mem_slot)
        mem_slot += slots
        uops += instr_uops
        i += 1
    return uops


def _reference_schedule(uops):
    """Recompute the static dependency schedule by walking the Uop
    objects with an explicit last-writer scoreboard."""
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
            uops = _uops(block)
            assert len(decoded.flat) == len(uops)
            assert decoded.num_uops == len(uops)
            for row, uop in zip(decoded.flat, uops):
                assert row[:4] == (uop.type, uop.lat, uop.ports,
                                   uop.mem_slot)

    def test_static_schedule_matches_scoreboard_walk(self):
        for block in _workload_blocks():
            decoded = decode_bbl(block)
            rows, final = _reference_schedule(_uops(block))
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
            uops = _uops(block)
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
# The shipped access path vs the recursive reference
# ---------------------------------------------------------------------


def _stats_tree(result):
    return result.stats().to_dict()


def _run(config, contention, backend=None, instrs=15_000,
         kernel="blackscholes", scale=1 / 64, **extra):
    wl = mt_workload(kernel, scale=scale, num_threads=config.num_cores)
    sim = ZSim(config, threads=wl.make_threads(target_instrs=instrs),
               contention_model=contention, backend=backend, **extra)
    return sim, _stats_tree(sim.run())


def _no_probe(hier, core_id):
    """``MemoryHierarchy.l1_probe`` for the reference arm: the cores get
    the always-miss probe, so every access reaches ``access``."""
    return None


#: What a test installs on MemoryHierarchy to get the reference model.
_REFERENCES = {
    # Every access down the recursive walk: no hit served in the core.
    "access": (("access", reference_access), ("l1_probe", _no_probe)),
    # The shipped core probe over the recursive walk: isolates the
    # flattened walk.
    "walk": (("_walk_access", staticmethod(recursive_walk)),),
}


def _assert_amortization_counters_live(sim, tree):
    dbt = tree["host"]["dbt"]
    hier = sim.hierarchy
    fast, slow = dbt["fastpath_hits"], dbt["slow_accesses"]
    assert fast == hier.fastpath_hits > 0
    assert slow == hier.slow_accesses > 0
    # One fast path, so the rate is over every access — the ratio
    # benchmarks/perf computes from fast + l2fast + slow.
    assert dbt["l2_fastpath_hits"] == 0
    assert dbt["fastpath_hit_rate"] == fast / (fast + slow)
    assert dbt["translation_hit_rate"] > 0.9
    assert dbt["dir_bitmask_ops"] == \
        sum(c.dir_ops for c in hier.all_caches()) \
        + hier.mainmem.dir_ops > 0
    return dbt


def _assert_reference_invisible(monkeypatch, reference, num_cores,
                                core_model, contention):
    """Run the shipped hierarchy, then the same run with ``reference``
    installed: every simulated stat must be byte-identical (host-side
    counters legitimately differ)."""
    cfg = small_test_system(num_cores=num_cores, core_model=core_model)
    sim, got = _run(cfg, contention)
    assert sim.hierarchy.fastpath_hits > 0
    assert sim.hierarchy.slow_accesses > 0
    for name, value in _REFERENCES[reference]:
        monkeypatch.setattr(MemoryHierarchy, name, value)
    cfg = small_test_system(num_cores=num_cores, core_model=core_model)
    with reference_classes():
        ref_sim, want = _run(cfg, contention)
    if reference == "access":
        assert ref_sim.hierarchy.fastpath_hits == 0
    assert_equivalent(got, want, ignore=("host",),
                      context="production vs reference %s (%d, %s, %s)"
                      % (reference, num_cores, core_model, contention))


class TestFastpathEquivalence:
    """Production vs reference.  The core probe and the flattened walk
    are host-side shortcuts with no switch in ``src/``; each test
    installs the recursive reference in their place."""

    @pytest.mark.parametrize("contention", ("none", "weave"))
    def test_both_fastpaths_off_is_invisible(self, monkeypatch,
                                             contention):
        """Neither shortcut on four sharing cores: every access down
        the recursive coherence walk still matches."""
        _assert_reference_invisible(monkeypatch, "access", 4, "ooo",
                                    contention)

    @pytest.mark.parametrize("contention", ("none", "md1", "weave"))
    @pytest.mark.parametrize("core_model", ("simple", "ooo"))
    def test_flat_walk_off_is_invisible(self, monkeypatch, core_model,
                                        contention):
        """The flattened coherence walk (ISSUE 10) against the recursive
        one, the core probe live on both sides."""
        _assert_reference_invisible(monkeypatch, "walk", 4, core_model,
                                    contention)

    @pytest.mark.parametrize("contention",
                             ("none", "md1", "weave", "dramsim"))
    @pytest.mark.parametrize("core_model", ("simple", "ooo"))
    @pytest.mark.parametrize("num_cores", (1, 2, 4))
    def test_core_probe_off_is_invisible(self, monkeypatch, num_cores,
                                         core_model, contention):
        """The L1 hits cores serve with their probe, on every contention
        model and core count, against every access down the recursive
        walk."""
        _assert_reference_invisible(monkeypatch, "access", num_cores,
                                    core_model, contention)

    def test_host_dbt_counters_are_reported(self):
        cfg = small_test_system(num_cores=2, core_model="ooo")
        sim, tree = _run(cfg, "weave")
        _assert_amortization_counters_live(sim, tree)

    @pytest.mark.parametrize("scenario", ("westmere4", "tiled64"))
    def test_amortization_counters_on_pinned_chips(self, scenario):
        """The counter asserts of the retired perf-smoke CI job: a
        dead fast path reads 0 here.  ``tiled64``
        (4 tiles x 16 cores) is the run with several weave domains:
        crossings must be delivered and cache-set state must be sparse
        — some sets filled, most of the chip never materialised."""
        if scenario == "tiled64":
            cfg = tiled_chip(num_tiles=4, cores_per_tile=16)
            sim, tree = _run(cfg, "weave", instrs=20_000, scale=1 / 32)
        else:
            cfg = westmere(num_cores=4, core_model="ooo")
            sim, tree = _run(cfg, "weave", instrs=20_000,
                             kernel="canneal", scale=1 / 32)
        dbt = _assert_amortization_counters_live(sim, tree)
        if scenario == "tiled64":
            assert tree["weave"]["crossings"] > 0
            assert 0 < dbt["cache_sets_materialised"] \
                < dbt["cache_sets_total"]


class _Boom(Exception):
    pass


def _count_access_calls(monkeypatch):
    """Count every ``MemoryHierarchy.access`` call from here on.  Each
    entry says whether the call was an L1 miss or an upgrade (a write
    to an S line), read from the L1 before the call."""
    calls = []
    real = MemoryHierarchy.access

    def access(self, core_id, addr, write, cycle=0, ifetch=False):
        l1 = self.l1i[core_id] if ifetch else self.l1d[core_id]
        state = l1.array.lookup(addr >> self.line_bits, touch=False)
        calls.append(state is None or write and state == MESI.S)
        return real(self, core_id, addr, write, cycle, ifetch)

    monkeypatch.setattr(MemoryHierarchy, "access", access)
    return calls


def _l1_picture(hier):
    """Everything an L1 hit updates outside the arrays."""
    hist = hier.access_latency
    return ([(c.accesses, c.hits, c.misses) for c in hier.l1i + hier.l1d],
            hier.fastpath_hits + hier.slow_accesses, hist.count,
            hist.total, hist.min, hist.max, list(hist._counts))


class TestCoreProbe:
    """Cores serve L1 hits with the probe a hierarchy hands out, also
    through the M/D/1 and TLB wrappers and into the metrics histogram;
    every other memory object, and a profiled run, gets the always-miss
    probe, so recording wrappers and the profiler still see every
    access."""

    @pytest.mark.parametrize("contention, served_in_core",
                             (("none", True), ("md1", True)))
    def test_only_a_bare_hierarchy_hands_out_a_live_view(
            self, monkeypatch, contention, served_in_core):
        calls = _count_access_calls(monkeypatch)
        sim, _ = _run(small_test_system(num_cores=2, core_model="ooo"),
                      contention)
        accesses = sim.hierarchy.fastpath_hits + sim.hierarchy.slow_accesses
        assert (len(calls) < accesses) == served_in_core
        assert len(calls) >= sim.hierarchy.slow_accesses > 0

    def test_recording_wrapper_sees_every_access(self, monkeypatch):
        def run():
            wrappers = []

            def wrap(mem):
                wrappers.append(_RecordingMem(mem))
                return wrappers[0]

            cfg = small_test_system(num_cores=2, core_model="simple")
            sim, tree = _run(cfg, "weave", mem_wrapper=wrap)
            hier = sim.hierarchy
            assert len(wrappers[0].addrs) \
                == hier.fastpath_hits + hier.slow_accesses
            tree.pop("host")
            return len(wrappers[0].addrs), tree

        count, got = run()
        monkeypatch.setattr(MemoryHierarchy, "l1_probe", _no_probe)
        assert run() == (count, got)

    def test_reference_simulator_ipc_is_unchanged(self, monkeypatch):
        def ipc():
            cfg = small_test_system(num_cores=1, core_model="ooo")
            wl = spec_workload("libquantum", scale=1 / 64)
            return reference_simulator(
                cfg, wl.make_threads(target_instrs=20_000)).run().ipc

        got = ipc()
        monkeypatch.setattr(MemoryHierarchy, "l1_probe", _no_probe)
        assert got == ipc()

    def test_profiler_and_metrics_see_every_access(self, monkeypatch):
        def run():
            profiler = InterferenceProfiler()
            telemetry = Telemetry(trace=False, metrics=True)
            cfg = small_test_system(num_cores=2, core_model="ooo")
            sim, tree = _run(cfg, "none", profiler=profiler,
                             telemetry=telemetry)
            hier = sim.hierarchy
            accesses = hier.fastpath_hits + hier.slow_accesses
            latency = tree["mem"]["access_latency"]
            assert profiler.total_accesses == latency["count"] == accesses
            return accesses

        accesses = run()
        monkeypatch.setattr(MemoryHierarchy, "l1_probe", _no_probe)
        assert run() == accesses

    @pytest.mark.parametrize("core_model", ("simple", "ooo"))
    def test_hits_before_a_raise_are_recorded(self, monkeypatch,
                                              core_model):
        """``mem.access`` raising partway through ``run_until``: the L1
        counters and the latency histogram already hold every hit the
        core served before the raise."""
        def run():
            cfg = small_test_system(num_cores=1, core_model=core_model)
            wl = spec_workload("libquantum", scale=1 / 64)
            sim = ZSim(cfg, threads=wl.make_threads(target_instrs=30_000),
                       contention_model="none", flight=False)
            hier = sim.hierarchy
            real = hier.access
            misses = []

            def access(core_id, addr, write, cycle=0, ifetch=False):
                result = real(core_id, addr, write, cycle, ifetch)
                if result.missed_levels:
                    misses.append(1)
                    if len(misses) == 300:
                        raise _Boom()
                return result

            hier.access = access
            with pytest.raises(_Boom):
                sim.run()
            assert 0 < sim.cores[0].instrs < 30_000
            return _l1_picture(hier), hier.fastpath_hits

        got, served = run()
        assert served > 0
        monkeypatch.setattr(MemoryHierarchy, "l1_probe", _no_probe)
        assert got == run()[0]

    def test_a_bare_hierarchy_sees_only_misses_and_upgrades(
            self, monkeypatch):
        """Every hit, wrong-path fetches included, is served by the
        probe: ``access`` gets L1 misses and upgrades only."""
        calls = _count_access_calls(monkeypatch)
        cfg = small_test_system(num_cores=2, core_model="ooo")
        wl = spec_workload("libquantum", scale=1 / 64)
        sim = ZSim(cfg, threads=wl.make_threads(target_instrs=30_000,
                                                num_threads=2),
                   contention_model="weave", flight=False)
        sim.run()
        assert sum(core.wrong_path_fetches for core in sim.cores) > 0
        assert len(calls) == sim.hierarchy.slow_accesses > 0
        assert all(calls)

    @pytest.mark.parametrize("arm", ("md1", "metered", "reference"))
    def test_runs_given_a_probe_match_the_no_probe_run(self, monkeypatch,
                                                       arm):
        """M/D/1, metered and reference-machine runs serve their hits
        in the core; with every hit sent to ``access`` instead, the
        stats, the ``mem/access_latency`` histogram in them (L1I and
        L1D hits differ in latency) and the TLB counters are the
        same."""
        def run():
            cfg = small_test_system(num_cores=2, core_model="ooo")
            assert cfg.l1i.latency != cfg.l1d.latency
            wl = mt_workload("blackscholes", scale=1 / 64, num_threads=2)
            threads = wl.make_threads(target_instrs=15_000)
            telemetry = Telemetry(trace=False, metrics=True)
            if arm == "reference":
                sim = reference_simulator(cfg, threads)
            elif arm == "md1":
                sim = ZSim(cfg, threads=threads, contention_model="md1",
                           flight=False)
            else:
                sim = ZSim(cfg, threads=threads, telemetry=telemetry,
                           flight=False)
            tree = sim.run().stats().to_dict()
            tree.pop("host")
            facts = [tree]
            if arm == "metered":
                assert tree["mem"]["access_latency"]["count"] > 0
            if arm == "reference":
                tlb = sim.tlb_memory
                facts += [[(t.hits, t.misses)
                           for t in tlb.itlbs + tlb.dtlbs], tlb.walks]
                assert tlb.walks > 0
            return sim.hierarchy.fastpath_hits, facts

        served, got = run()
        assert served > 0
        monkeypatch.setattr(MemoryHierarchy, "l1_probe", _no_probe)
        served, want = run()
        assert served == 0
        assert got == want

    @pytest.mark.parametrize("l1", ("hashed", "tree"))
    def test_an_l1_without_a_probe_is_served_by_the_walk(self, monkeypatch,
                                                         l1):
        """A hashed or tree-PLRU L1 gets no probe, so the walk serves
        its hits; the stats still match every access down the
        recursive reference walk."""
        def run():
            cfg = small_test_system(num_cores=2, core_model="ooo")
            change = {"hash_sets": True} if l1 == "hashed" \
                else {"repl": "tree"}
            cfg = dataclasses.replace(
                cfg, l1d=dataclasses.replace(cfg.l1d, **change))
            return _run(cfg, "weave")

        sim, got = run()
        assert sim.hierarchy.fastpath_hits == 0 \
            < sim.hierarchy.slow_accesses
        for name, value in _REFERENCES["access"]:
            monkeypatch.setattr(MemoryHierarchy, name, value)
        with reference_classes():
            _, want = run()
        assert_equivalent(got, want, ignore=("host",),
                          context="walk vs reference, %s L1" % l1)


# ---------------------------------------------------------------------
# Record ownership, and the backend/fault/resume matrix
# ---------------------------------------------------------------------


class _HoldingBackend(SerialBackend):
    """Keeps every record each interval traced, next to a copy of what
    it said when the weave phase received it."""

    def __init__(self):
        super().__init__()
        self.held = []

    def run_weave(self, weave, traces):
        self.held.append([(record, _record_facts(record))
                          for trace in traces.values()
                          for _cycle, record in trace])
        return super().run_weave(weave, traces)


def _record_facts(record):
    return (record.latency, record.line, record.hit_level,
            tuple(record.missed_levels), tuple(record.steps),
            tuple(record.wbacks))


def _wrapped(mem):
    """The smallest ``mem_wrapper``: what a core reads, forwarded."""
    return types.SimpleNamespace(access=mem.access, config=mem.config)


class TestRecyclingMatrix:
    @pytest.mark.parametrize("mem_wrapper", (None, _wrapped),
                             ids=("bare", "wrapped"))
    def test_held_records_never_change(self, mem_wrapper):
        """A record traced in interval k still says the same thing
        three intervals (and a whole run) later: whoever holds a record
        owns it, whether the cores talk to the bare hierarchy or to a
        wrapper."""
        backend = _HoldingBackend()
        _run(small_test_system(num_cores=2, core_model="ooo"), "weave",
             backend=backend, mem_wrapper=mem_wrapper)
        held = backend.held
        assert len(held) > 4 and all(held[:-3])
        for interval in held[:-3]:
            for record, facts in interval:
                assert _record_facts(record) == facts

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
        """Checkpoint mid-run, resume in a fresh simulator, and the
        final stats match an uninterrupted run."""
        cfg = small_test_system(num_cores=2, core_model="ooo")
        _, baseline = _run(cfg, "weave")

        cfg = small_test_system(num_cores=2, core_model="ooo")
        wl = mt_workload("blackscholes", scale=1 / 64,
                         num_threads=cfg.num_cores)
        partial = ZSim(cfg, threads=wl.make_threads(target_instrs=15_000),
                       contention_model="weave")
        partial.checkpointer = Checkpointer(str(tmp_path), every=1)
        partial.run(max_intervals=3)  # "killed" mid-run

        capsule = read_checkpoint(latest(str(tmp_path)))
        # The OOO rings pickle as the bounded deques they are.
        rob = capsule["sim"].cores[0]._rob
        assert rob.maxlen == cfg.core.rob_size
        assert list(rob) == list(partial.cores[0]._rob)
        resumed = ZSim.resume(
            capsule, wl.make_threads(target_instrs=15_000))
        assert_equivalent(_stats_tree(resumed.run()), baseline,
                          ignore=("host",),
                          context="kill-and-resume vs straight run")


def _namd_stats():
    """A ``namd_1c``-sized OOO run: Westmere with one core, the
    benchmark's namd kernel and seed, 50,000 instructions."""
    kernel = spec_workload("namd", 1 / 32)
    sim = ZSim(westmere(1, "ooo"), flight=False,
               threads=kernel.make_threads(target_instrs=50_000,
                                           num_threads=1, seed_offset=4))
    return _stats_tree(sim.run())


def test_port_prune_is_invisible(monkeypatch):
    """Forgetting port occupancy is host-side bookkeeping: with the
    prune turned off the simulated stats must not move.  The prune
    forgets only cycles below ``issue_clock``, which bounds every later
    µop's execution cycle from below."""
    pruned = _namd_stats()
    monkeypatch.setattr(OOOCore, "_prune_ports", lambda self, horizon: None)
    assert_equivalent(_namd_stats(), pruned, ignore=("host",),
                      context="port prune off vs on")


def test_run_until_keeps_no_port_occupancy_below_the_issue_clock(
        monkeypatch):
    """``run_until`` forgets, on exit, the port occupancy of every cycle
    below the issue clock: no later µop can read it.  Checked after every
    call of a 4-core run (interval limits and syscall exits) and of the
    one-core namd run."""
    run_until = OOOCore.run_until
    held = []

    def checked(self, limit_cycle):
        outcome = run_until(self, limit_cycle)
        assert min(self._ports_used, default=self._issue_clock) \
            >= self._issue_clock
        held.append(len(self._ports_used))
        return outcome

    monkeypatch.setattr(OOOCore, "run_until", checked)
    _run(small_test_system(num_cores=4, core_model="ooo"), "weave")
    _namd_stats()
    assert len(held) > 20 and max(held) > 0
