"""End-to-end tests of the ZSim simulator."""

import dataclasses

import pytest

from repro.core import InterferenceProfiler, ZSim
from repro.virt.process import SimThread
from repro.workloads.base import KernelSpec, Workload


def workload(threads=4, **spec_kwargs):
    defaults = dict(name="wl", footprint_kb=64, mem_ratio=0.3,
                    pattern="random", shared_fraction=0.2, shared_kb=64,
                    barrier_iters=100, seed=7)
    defaults.update(spec_kwargs)
    return Workload(KernelSpec(**defaults), num_threads=threads)


_RUN_KWARGS = ("max_instrs", "max_cycles", "max_intervals")


def run(cfg, wl, instrs=40_000, threads=None, **kwargs):
    run_kwargs = {k: kwargs.pop(k) for k in _RUN_KWARGS if k in kwargs}
    sim = ZSim(cfg, threads=wl.make_threads(target_instrs=instrs,
                                            num_threads=threads),
               **kwargs)
    return sim.run(**run_kwargs), sim


class TestBasicRuns:
    def test_runs_to_completion(self, tiny_config):
        res, sim = run(tiny_config, workload())
        assert res.instrs >= 40_000 * 0.9
        assert res.cycles > 0
        assert sim.scheduler.all_done

    def test_deterministic(self, tiny_config):
        res1, _ = run(tiny_config, workload())
        res2, _ = run(tiny_config, workload())
        assert res1.cycles == res2.cycles
        assert res1.instrs == res2.instrs

    def test_seed_changes_interleaving(self, tiny_config):
        res1, _ = run(tiny_config, workload())
        cfg2 = dataclasses.replace(
            tiny_config, boundweave=dataclasses.replace(
                tiny_config.boundweave, seed=999))
        res2, _ = run(cfg2, workload())
        # Different wake-order shuffles give (slightly) different cycles.
        assert res1.instrs == res2.instrs
        assert res1.cycles != res2.cycles

    def test_contention_never_faster(self, tiny_config):
        nc, _ = run(tiny_config, workload(), contention_model="none")
        wc, _ = run(tiny_config, workload(), contention_model="weave")
        assert wc.cycles >= nc.cycles

    def test_md1_adds_memory_latency(self, tiny_config):
        nc, _ = run(tiny_config, workload(footprint_kb=512,
                                          hot_fraction=0.0),
                    contention_model="none")
        md1, _ = run(tiny_config, workload(footprint_kb=512,
                                           hot_fraction=0.0),
                     contention_model="md1")
        assert md1.cycles > nc.cycles

    def test_dramsim_contention_model(self, tiny_config):
        res, sim = run(tiny_config, workload(), contention_model="dramsim")
        assert res.cycles > 0
        names = [w.name for w in sim.hierarchy.mainmem.ctrl_weaves]
        assert all(n.startswith("dramsim") for n in names)

    def test_invalid_contention_model(self, tiny_config):
        with pytest.raises(ValueError):
            ZSim(tiny_config, contention_model="magic")

    def test_threads_must_be_simthreads(self, tiny_config):
        sim = ZSim(tiny_config)
        with pytest.raises(TypeError):
            sim.add_thread(iter(()))


class TestLimits:
    def test_max_instrs(self, tiny_config):
        res, _ = run(tiny_config, workload(), instrs=10 ** 9,
                     max_instrs=5_000)
        assert 5_000 <= res.instrs < 40_000

    def test_max_intervals(self, tiny_config):
        res, _ = run(tiny_config, workload(), max_intervals=3)
        assert res.intervals == 3

    def test_max_cycles(self, tiny_config):
        res, _ = run(tiny_config, workload(), instrs=10 ** 9,
                     max_cycles=20_000)
        assert res.cycles >= 20_000
        assert res.instrs < 10 ** 8


class TestScheduling:
    def test_more_threads_than_cores(self, tiny_config):
        """The JVM scenario: 8 threads on 4 cores, round-robin."""
        res, sim = run(tiny_config, workload(threads=8), threads=8)
        assert sim.scheduler.all_done
        worked = [c for c in sim.cores if c.instrs > 0]
        assert len(worked) == 4
        assert sim.scheduler.context_switches > 8

    def test_single_thread_on_many_cores(self, tiny_config):
        res, sim = run(tiny_config, workload(threads=1,
                                             barrier_iters=0), threads=1)
        active = [c for c in sim.cores if c.instrs > 0]
        assert len(active) == 1

    def test_lock_workload_completes(self, tiny_config):
        res, sim = run(tiny_config,
                       workload(lock_iters=20, barrier_iters=0))
        assert sim.scheduler.all_done
        assert sim.scheduler.syscalls_handled > 0

    def test_sleepers_advance_time(self, tiny_config):
        """All threads asleep: the engine jumps to the wake cycle
        instead of spinning or deadlocking."""
        from repro.isa.opcodes import Opcode
        from repro.isa.program import BBLExec, Instruction, Program
        from repro.virt.syscalls import Sleep
        from repro.dbt.instrumentation import InstrumentedStream

        program = Program("sleepy")
        sblock = program.add_block([Instruction(Opcode.SYSCALL)])

        def stream():
            yield BBLExec(sblock, syscall=Sleep(500_000))

        sim = ZSim(tiny_config,
                   threads=[SimThread(InstrumentedStream(stream()))])
        res = sim.run()
        assert res.cycles >= 500_000
        assert res.intervals < 100  # skipped ahead, didn't spin


class TestResults:
    def test_stats_tree_complete(self, tiny_config):
        res, _ = run(tiny_config, workload())
        tree = res.stats().to_dict()
        assert "core0" in tree and "mem" in tree
        assert tree["instrs"] == res.instrs
        assert tree["core0"]["instrs"] > 0

    def test_mips_positive(self, tiny_config):
        res, _ = run(tiny_config, workload())
        assert res.mips > 0

    def test_mpki_levels(self, tiny_config):
        res, _ = run(tiny_config, workload())
        for level in ("l1i", "l1d", "l2", "l3"):
            assert res.core_mpki(level) >= 0
        # Miss counts shrink up the hierarchy for this workload.
        assert res.core_mpki("l3") <= res.core_mpki("l1d") + 1e-9

    def test_invariants_hold_after_run(self, tiny_config):
        _res, sim = run(tiny_config, workload())
        assert sim.hierarchy.check_coherence() == []
        assert sim.hierarchy.check_inclusion() == []


class TestProfilerIntegration:
    def test_interference_grows_with_window(self, tiny_config):
        prof = InterferenceProfiler((1000, 10_000, 100_000))
        res, _ = run(tiny_config, workload(shared_fraction=0.4),
                     profiler=prof)
        f = {n: prof.fraction(n) for n in prof.interval_lengths}
        assert f[1000] <= f[10_000] <= f[100_000]
        assert prof.total_accesses > 0


class TestShuffleAblation:
    def test_shuffle_off_is_deterministic_too(self, tiny_config):
        cfg = dataclasses.replace(
            tiny_config, boundweave=dataclasses.replace(
                tiny_config.boundweave, shuffle_wake_order=False))
        res1, _ = run(cfg, workload())
        res2, _ = run(cfg, workload())
        assert res1.cycles == res2.cycles


class TestDeadlockDetection:
    def test_all_blocked_raises(self, tiny_config):
        """Threads waiting on futexes nobody will wake: the engine
        reports a deadlock instead of spinning forever."""
        from repro.dbt.instrumentation import InstrumentedStream
        from repro.isa.opcodes import Opcode
        from repro.isa.program import BBLExec, Instruction, Program
        from repro.virt.syscalls import FutexWait

        program = Program("dead")
        sys_block = program.add_block([Instruction(Opcode.SYSCALL)])

        def stuck(key):
            yield BBLExec(sys_block, (), syscall=FutexWait(key))

        sim = ZSim(tiny_config, threads=[
            SimThread(InstrumentedStream(stuck("a")), name="a"),
            SimThread(InstrumentedStream(stuck("b")), name="b")])
        with pytest.raises(RuntimeError, match="Deadlock"):
            sim.run()

    def test_deadlock_message_names_threads_readably(self, tiny_config):
        """Regression: the deadlock error must list thread *names*
        (joined, human-readable), not SimThread reprs."""
        from repro.dbt.instrumentation import InstrumentedStream
        from repro.isa.opcodes import Opcode
        from repro.isa.program import BBLExec, Instruction, Program
        from repro.virt.syscalls import FutexWait

        program = Program("dead")
        sys_block = program.add_block([Instruction(Opcode.SYSCALL)])

        def stuck(key):
            yield BBLExec(sys_block, (), syscall=FutexWait(key))

        sim = ZSim(tiny_config, threads=[
            SimThread(InstrumentedStream(stuck("x")), name="worker-a"),
            SimThread(InstrumentedStream(stuck("y")), name="worker-b")])
        with pytest.raises(RuntimeError) as excinfo:
            sim.run()
        message = str(excinfo.value)
        assert "worker-a, worker-b" in message
        assert "SimThread" not in message
        assert "[" not in message  # no list repr leaking through
