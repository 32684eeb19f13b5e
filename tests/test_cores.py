"""Tests for the core timing models (IPC1 and instruction-driven OOO)."""

import pytest

from repro.config import westmere
from repro.config.system import CoreConfig
from repro.core import ZSim
from repro.cpu import OOOCore, SimpleCore, make_core
from repro.cpu.base import RunOutcome
from repro.isa.opcodes import Opcode
from repro.isa.program import BBLExec, Instruction, Program
from repro.isa.registers import fp, gp
from repro.dbt.instrumentation import InstrumentedStream
from repro.virt.syscalls import GetTime
from repro.workloads import spec_workload


class FakeResult:
    """Minimal AccessRecord stand-in with controllable latency."""

    def __init__(self, latency, missed, line, write, core_id):
        self.latency = latency
        self.missed_levels = ("l1d",) if missed else ()
        self.hit_level = None if missed else "l1d"
        self.steps = ()
        self.wbacks = ()
        self.line = line
        self.write = write
        self.core_id = core_id
        self.invalidations = 0


class FakeMemory:
    """Ideal memory: fixed latency, every access 'hits' (or misses)."""

    def __init__(self, latency=4, missed=False):
        self.latency = latency
        self.missed = missed
        self.accesses = []

    def access(self, core_id, addr, write, cycle=0, ifetch=False):
        self.accesses.append((core_id, addr, write, cycle, ifetch))
        return FakeResult(self.latency, self.missed, addr >> 6, write,
                          core_id)


def blocks(instr_lists, name="p"):
    program = Program(name)
    return [program.add_block(instrs) for instrs in instr_lists]


def run_core(core, bbl_execs):
    core.attach(InstrumentedStream(iter(bbl_execs)))
    outcome = core.run_until(10 ** 9)
    assert outcome == RunOutcome.DONE
    return core


def alu_chain_block(n, dependent):
    instrs = []
    for i in range(n):
        reg = gp(2) if dependent else gp(2 + i % 10)
        instrs.append(Instruction(Opcode.ALU, reg, gp(1), dst1=reg))
    return blocks([instrs])[0]


class TestSimpleCore:
    def make(self, mem=None):
        return SimpleCore(0, mem or FakeMemory(), CoreConfig(model="simple"))

    def test_ipc_one_on_alu(self):
        block = alu_chain_block(8, dependent=True)
        core = run_core(self.make(), [BBLExec(block) for _ in range(100)])
        assert core.instrs == 800
        # IPC=1 modulo a couple of I-fetch effects.
        assert core.instrs / core.cycle > 0.95

    def test_l1_hit_loads_free(self):
        """L1 hits are covered by the instruction's own cycle."""
        block = blocks([[Instruction(Opcode.LOAD, gp(1), dst1=gp(2)),
                         Instruction(Opcode.ALU, gp(2), gp(3), gp(2))]])[0]
        core = run_core(self.make(FakeMemory(latency=4, missed=False)),
                        [BBLExec(block, (0x1000,)) for _ in range(50)])
        assert core.instrs / core.cycle > 0.95

    def test_miss_latency_charged(self):
        block = blocks([[Instruction(Opcode.LOAD, gp(1), dst1=gp(2))]])[0]
        mem = FakeMemory(latency=100, missed=True)
        core = run_core(self.make(mem),
                        [BBLExec(block, (i * 64,)) for i in range(20)])
        assert core.cycle >= 20 * 100

    def test_limit_outcome(self):
        block = alu_chain_block(4, True)
        core = self.make()
        core.attach(InstrumentedStream(
            BBLExec(block) for _ in range(10_000)))
        assert core.run_until(100) == RunOutcome.LIMIT
        assert core.cycle >= 100

    def test_blocked_without_thread(self):
        assert self.make().run_until(100) == RunOutcome.BLOCKED

    def test_syscall_outcome(self):
        program = Program("s")
        sys_block = program.add_block([Instruction(Opcode.SYSCALL)])
        desc = GetTime()
        core = self.make()
        core.attach(InstrumentedStream(iter([BBLExec(sys_block,
                                                     syscall=desc)])))
        assert core.run_until(10 ** 9) == RunOutcome.SYSCALL
        assert core.pending_syscall is desc

    def test_apply_delay(self):
        core = self.make()
        core.apply_delay(50)
        assert core.cycle == 50
        with pytest.raises(ValueError):
            core.apply_delay(-1)

    def test_skip_to_never_goes_back(self):
        core = self.make()
        core.skip_to(100)
        core.skip_to(50)
        assert core.cycle == 100


class TestOOOCore:
    def make(self, mem=None, **cfg):
        return OOOCore(0, mem or FakeMemory(), CoreConfig(model="ooo",
                                                          **cfg))

    def ipc_of(self, block, reps=300, mem=None, addrs=()):
        core = self.make(mem)
        run_core(core, [BBLExec(block, addrs) for _ in range(reps)])
        return core.instrs / core.cycle

    def test_dependent_chain_ipc_one(self):
        ipc = self.ipc_of(alu_chain_block(8, dependent=True))
        assert 0.8 < ipc < 1.2

    def test_independent_alu_exceeds_ipc_one(self):
        """Independent work exploits superscalar issue (3 ALU ports)."""
        ipc = self.ipc_of(alu_chain_block(8, dependent=False))
        assert ipc > 1.8

    def test_ooo_faster_than_simple_on_ilp(self):
        block = alu_chain_block(8, dependent=False)
        ooo = self.make()
        run_core(ooo, [BBLExec(block) for _ in range(200)])
        simple = SimpleCore(0, FakeMemory(), CoreConfig(model="simple"))
        run_core(simple, [BBLExec(block) for _ in range(200)])
        assert ooo.cycle < simple.cycle

    def test_fp_latency_bound_chain(self):
        """A dependent FPADD chain runs at ~1/3 IPC (latency 3)."""
        instrs = [Instruction(Opcode.FPADD, fp(0), fp(1), dst1=fp(0))
                  for _ in range(8)]
        block = blocks([instrs])[0]
        ipc = self.ipc_of(block)
        assert 0.25 < ipc < 0.45

    def test_port_contention_single_port(self):
        """Independent FPMULs all fight for port 0 -> IPC <= 1."""
        instrs = [Instruction(Opcode.FPMUL, fp(i % 8), fp((i + 1) % 8),
                              dst1=fp(i % 8)) for i in range(8)]
        # Make them independent: each writes a different register.
        instrs = [Instruction(Opcode.FPMUL, fp(0), fp(1), dst1=fp(i % 8))
                  for i in range(8)]
        block = blocks([instrs])[0]
        assert self.ipc_of(block) <= 1.05

    def test_store_to_load_forwarding(self):
        """A load of a just-stored word bypasses the memory system."""
        instrs = [Instruction(Opcode.STORE, gp(1), gp(2)),
                  Instruction(Opcode.LOAD, gp(1), dst1=gp(3))]
        block = blocks([instrs])[0]
        mem = FakeMemory(latency=4)
        core = self.make(mem)
        run_core(core, [BBLExec(block, (0x1000,) * 2) for _ in range(50)])
        assert core.forwarded_loads == 50
        loads_issued = sum(1 for a in mem.accesses
                           if not a[2] and not a[4])
        assert loads_issued == 0

    def test_no_forwarding_different_address(self):
        instrs = [Instruction(Opcode.STORE, gp(1), gp(2)),
                  Instruction(Opcode.LOAD, gp(1), dst1=gp(3))]
        block = blocks([instrs])[0]
        core = self.make()
        execs = [BBLExec(block, (0x1000 + i * 128, 0x8000 + i * 128))
                 for i in range(50)]
        run_core(core, execs)
        assert core.forwarded_loads == 0

    def test_mispredict_penalty_slows_random_branches(self):
        program = Program("br")
        body = [Instruction(Opcode.ALU, gp(1), gp(2), gp(1)),
                Instruction(Opcode.CMP, gp(1), gp(3)),
                Instruction(Opcode.COND_BRANCH)]
        block = program.add_block(body)
        predictable = [BBLExec(block, (), taken=True) for _ in range(400)]
        import random as _r
        rng = _r.Random(3)
        unpredictable = [BBLExec(block, (), taken=rng.random() < 0.5)
                         for _ in range(400)]
        core_p = self.make()
        run_core(core_p, predictable)
        core_u = self.make()
        run_core(core_u, unpredictable)
        assert core_u.mispredicts > core_p.mispredicts
        assert core_u.cycle > core_p.cycle * 1.5

    def test_unconditional_jump_never_mispredicts(self):
        program = Program("jmp")
        block = program.add_block([Instruction(Opcode.ALU, gp(1), gp(2)),
                                   Instruction(Opcode.JMP)])
        core = self.make()
        run_core(core, [BBLExec(block, (), taken=True)
                        for _ in range(100)])
        assert core.mispredicts == 0
        assert core.cond_branches == 0

    def test_rob_limits_memory_parallelism(self):
        """With a tiny ROB, a long miss stalls the backend."""
        instrs = [Instruction(Opcode.LOAD, gp(1), dst1=gp(2))] + \
            [Instruction(Opcode.ALU, gp(3 + i % 8), gp(1),
                         dst1=gp(3 + i % 8)) for i in range(7)]
        block = blocks([instrs])[0]
        mem = FakeMemory(latency=200, missed=True)
        small = self.make(mem, rob_size=16)
        run_core(small, [BBLExec(block, (i * 64,)) for i in range(50)])
        mem2 = FakeMemory(latency=200, missed=True)
        big = self.make(mem2, rob_size=256)
        run_core(big, [BBLExec(block, (i * 64,)) for i in range(50)])
        assert big.cycle < small.cycle

    def test_fence_serializes_memory(self):
        loads = [Instruction(Opcode.LOAD, gp(1), dst1=gp(2 + i))
                 for i in range(4)]
        fence_block = blocks([[loads[0],
                               Instruction(Opcode.FENCE),
                               loads[1]]])[0]
        plain_block = blocks([[loads[0], loads[1]]])[0]
        mem = FakeMemory(latency=50, missed=True)
        fenced = self.make(mem)
        run_core(fenced, [BBLExec(fence_block, (i * 64, i * 64 + 4096))
                          for i in range(30)])
        mem2 = FakeMemory(latency=50, missed=True)
        plain = self.make(mem2)
        run_core(plain, [BBLExec(plain_block, (i * 64, i * 64 + 4096))
                         for i in range(30)])
        assert fenced.cycle > plain.cycle

    def test_stores_execute_in_order(self):
        """TSO: store exec cycles are monotone (verified via the fake
        memory's access log)."""
        instrs = [Instruction(Opcode.STORE, gp(1), gp(2)),
                  Instruction(Opcode.STORE, gp(3), gp(4))]
        block = blocks([instrs])[0]
        mem = FakeMemory(latency=4)
        core = self.make(mem)
        run_core(core, [BBLExec(block, (i * 64, i * 64 + 8192))
                        for i in range(50)])
        store_cycles = [a[3] for a in mem.accesses if a[2]]
        assert store_cycles == sorted(store_cycles)

    def test_apply_delay_shifts_all_clocks(self):
        core = self.make()
        block = alu_chain_block(4, True)
        core.attach(InstrumentedStream(iter([BBLExec(block)])))
        core.run_until(10 ** 9)
        before = core.cycle
        core.apply_delay(1000)
        assert core.cycle == before + 1000

    def test_uop_accounting_includes_fission(self):
        block = blocks([[Instruction(Opcode.STORE, gp(1), gp(2)),
                         Instruction(Opcode.ALU, gp(1), gp(2), gp(3))]])[0]
        core = self.make()
        run_core(core, [BBLExec(block, (0x40,))])
        assert core.instrs == 2
        assert core.uops == 3  # store fissions into 2 µops


class _BarrierProbe:
    """Stands in for the checkpointer, which ``ZSim.run`` calls at every
    interval barrier: records core 0's ring occupancies there."""

    def __init__(self):
        self.seen = []

    def maybe_save(self, sim, interval, limit):
        core = sim.cores[0]
        self.seen.append((len(core._rob), len(core._window),
                          len(core._store_order), len(core._load_releases),
                          core.uops, core.stores, core.loads))


class TestOOORingBounds:
    def test_rings_hold_exactly_what_the_hardware_holds(self):
        """Every µop enters the ROB and the issue window, every store
        the store queue, every load the load queue; a full structure
        evicts its head.  So at every barrier each ring holds
        min(entered so far, its configured size) — the ring never
        outgrows the hardware, and the queue lengths the fingerprint
        chain digests are what an append-and-pop FIFO would hold."""
        config = westmere(1, "ooo")
        threads = spec_workload("namd", 1 / 32).make_threads(
            target_instrs=25_000)
        sim = ZSim(config, threads=threads, flight=False)
        probe = sim.checkpointer = _BarrierProbe()
        sim.run()
        core_cfg = config.core
        assert sim.cores[0].uops >= 20_000 and len(probe.seen) >= 4
        for rob, window, stq, ldq, uops, stores, loads in probe.seen:
            assert rob == min(uops, core_cfg.rob_size)
            assert window == min(uops, core_cfg.issue_window_size)
            assert stq == min(stores, core_cfg.store_queue_size)
            assert ldq == min(loads, core_cfg.load_queue_size)
        # The run filled all four, so the eviction path was exercised.
        assert probe.seen[-1][:4] == (
            core_cfg.rob_size, core_cfg.issue_window_size,
            core_cfg.store_queue_size, core_cfg.load_queue_size)


class TestMakeCore:
    def test_factory(self):
        assert isinstance(make_core(0, FakeMemory(),
                                    CoreConfig(model="simple")), SimpleCore)
        assert isinstance(make_core(0, FakeMemory(),
                                    CoreConfig(model="ooo")), OOOCore)

    def test_bad_model_rejected_by_config(self):
        with pytest.raises(ValueError):
            CoreConfig(model="vliw")
