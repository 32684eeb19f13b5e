"""Tests for timing and system-view virtualization."""

import pytest

from repro.config import tiled_chip, westmere
from repro.virt.sysview import SystemView
from repro.virt.timing import VirtualClock


class TestVirtualClock:
    def test_rdtsc_is_cycle_count(self):
        clock = VirtualClock(2000)
        assert clock.rdtsc(12345) == 12345

    def test_ns_round_trip(self):
        clock = VirtualClock(2000)  # 2 GHz: 1 cycle = 0.5ns
        assert clock.cycles_to_ns(2000) == pytest.approx(1000.0)
        assert clock.ns_to_cycles(1000.0) == 2000

    def test_gettime_monotone(self):
        clock = VirtualClock(2270)
        times = [clock.cycles_to_ns(c) for c in (0, 10, 1000, 10 ** 7)]
        assert times == sorted(times)

    def test_timeout_in_simulated_time(self):
        """The paper's point: timeouts must fire on *simulated* time."""
        clock = VirtualClock(1000)  # 1 GHz: 1 cycle = 1ns
        assert not clock.timeout_expired(0, 500, timeout_ns=1000)
        assert clock.timeout_expired(0, 1000, timeout_ns=1000)

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            VirtualClock(0)


class TestSystemView:
    def test_cpu_count_is_simulated(self):
        view = SystemView(tiled_chip(num_tiles=4))
        assert view.cpu_count() == 64

    def test_cpuid_reflects_config(self):
        cfg = westmere(num_cores=6)
        info = SystemView(cfg).cpuid()
        assert info["num_cores"] == 6
        assert info["l3_kb"] == 12 * 1024
        assert info["freq_mhz"] == 2270

    def test_proc_cpuinfo_lists_every_core(self):
        view = SystemView(westmere(num_cores=6))
        text = view.proc_cpuinfo()
        assert text.count("processor\t:") == 6
        assert "cpu cores\t: 6" in text

    def test_proc_tree_redirection(self):
        view = SystemView(westmere(num_cores=6))
        assert view.open_path("/sys/devices/system/cpu/online") == "0-5\n"
        assert view.open_path("/proc/cpuinfo") is not None
        assert view.open_path("/etc/passwd") is None  # host fallthrough

    def test_self_tuning_application_sees_simulated_cores(self):
        """The OpenMP/JVM scenario: sizing a pool from the system view
        yields the simulated width, not the host's."""
        for tiles in (1, 4):
            cfg = tiled_chip(num_tiles=tiles)
            pool = SystemView(cfg).cpu_count()
            assert pool == cfg.num_cores


class TestReadSysFile:
    def test_virtualized_proc_read_via_syscall(self):
        """A workload reads /proc/cpuinfo through the syscall layer and
        sees the *simulated* machine (end-to-end system virtualization:
        the paper's self-tuning OpenMP/JVM scenario)."""
        from repro.core import ZSim
        from repro.config import small_test_system
        from repro.dbt.instrumentation import InstrumentedStream
        from repro.isa.opcodes import Opcode
        from repro.isa.program import BBLExec, Instruction, Program
        from repro.virt.process import SimThread
        from repro.virt.syscalls import ReadSysFile

        program = Program("tuner")
        sys_block = program.add_block([Instruction(Opcode.SYSCALL)])
        work = program.add_block(
            [Instruction(Opcode.NOP)] * 4)
        seen = []

        def stream():
            yield BBLExec(sys_block, (), syscall=ReadSysFile(
                "/sys/devices/system/cpu/online", seen.append))
            for _ in range(5):
                yield BBLExec(work)

        cfg = small_test_system(num_cores=4, core_model="simple")
        sim = ZSim(cfg, threads=[SimThread(InstrumentedStream(stream()))])
        sim.run()
        assert seen == ["0-3\n"]

    def test_non_virtualized_path_falls_through(self):
        from repro.virt.scheduler import Scheduler, SyscallResult
        from repro.virt.process import SimThread
        from repro.virt.sysview import SystemView
        from repro.virt.syscalls import ReadSysFile
        from repro.config import westmere

        sched = Scheduler(1, system_view=SystemView(westmere()))
        thread = SimThread(iter(()))
        sched.add_thread(thread)
        seen = []
        result = sched.handle_syscall(
            thread, ReadSysFile("/etc/passwd", seen.append), 0)
        assert result == SyscallResult.CONTINUE
        assert seen == [None]  # host fallthrough, not virtualized


class TestCpuTimeAccounting:
    def test_thread_cpu_cycles_accumulate(self):
        """Per-thread CPU time (for multiprogrammed studies) is credited
        on deschedule."""
        from repro.core import ZSim
        from repro.config import small_test_system
        from repro.workloads.base import KernelSpec, Workload

        cfg = small_test_system(num_cores=2, core_model="simple")
        wl = Workload(KernelSpec(name="cpu", barrier_iters=0, seed=3), 4)
        sim = ZSim(cfg, wl.make_threads(target_instrs=20_000,
                                        num_threads=4))
        res = sim.run()
        times = [t.cpu_cycles for t in sim.scheduler.threads]
        assert all(t > 0 for t in times)
        # CPU time is bounded by wall (cycle) time x cores.
        assert sum(times) <= res.cycles * cfg.num_cores * 1.05
