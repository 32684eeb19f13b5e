"""Synthetic workload substrate: programs + functional streams.

A workload is a *synthetic binary*: a static mini-ISA program plus a
functional stream of :class:`~repro.isa.program.BBLExec` records, built
from a :class:`KernelSpec` that fixes the characteristics that matter to
the evaluation — footprint, memory intensity, access pattern, branch
predictability, ILP, code footprint, FP mix — and, for multithreaded
kernels, sharing, locking, barriers, imbalance, and serial sections.

This substitutes for the paper's SPEC/PARSEC/SPLASH-2/SPEC-OMP binaries
(see DESIGN.md): the workload *names* map 1:1 to the paper's, and each
spec is parameterized to match the benchmark's published character.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, replace

from repro.dbt.instrumentation import InstrumentedStream
from repro.dbt.translation_cache import TranslationCache
from repro.isa.opcodes import Opcode
from repro.isa.program import BBLExec, Instruction, Program
from repro.isa.registers import fp, gp
from repro.virt.process import SimThread
from repro.virt.syscalls import Barrier, Lock, Unlock
from repro.workloads.patterns import make_pattern

#: Per-thread private data regions, 64 MB apart.
PRIVATE_BASE = 0x1000_0000
PRIVATE_STRIDE = 0x0400_0000
#: Shared data region for multithreaded kernels.
SHARED_BASE = 0x8000_0000
#: Lock words live on distinct lines in a dedicated region.
LOCK_BASE = 0xF000_0000


@dataclass
class KernelSpec:
    """Parameters of one synthetic kernel."""

    name: str = "kernel"
    footprint_kb: int = 256      # per-thread private footprint
    mem_ratio: float = 0.30      # fraction of instructions touching memory
    write_ratio: float = 0.30    # stores among memory instructions
    pattern: str = "random"      # stream | stride | random | chase
    stride: int = 0              # 0 = pattern default
    hot_fraction: float = 0.50   # temporal locality knob
    hot_kb: int = 8
    fp_ratio: float = 0.20       # FP share of compute instructions
    body_instrs: int = 16        # instructions per loop body
    branch_rand: float = 0.10    # unpredictable-branch frequency
    ilp: int = 4                 # independent dependency chains
    code_blocks: int = 4         # body clones (instruction footprint)
    seed: int = 1
    # Multithreaded knobs (ignored by single-threaded workloads):
    shared_fraction: float = 0.0  # accesses going to the shared region
    shared_kb: int = 1024
    lock_iters: int = 0           # critical section every N iterations
    cs_accesses: int = 4          # shared-line writes per critical section
    barrier_iters: int = 400      # barrier every N iterations (0 = never)
    imbalance: float = 0.0        # extra work on high thread ids
    seq_fraction: float = 0.0     # serial section (thread 0) per phase

    def scaled(self, scale):
        """Return a copy with footprints scaled by ``scale``."""
        return replace(self,
                       footprint_kb=max(16, int(self.footprint_kb * scale)),
                       shared_kb=max(16, int(self.shared_kb * scale)))


class KernelProgram:
    """The static program compiled from a spec, plus its special blocks."""

    def __init__(self, spec):
        self.spec = spec
        # Deterministic per-binary code base (same workload -> same
        # addresses, different workloads land apart): CRC, not hash(),
        # which is randomized across interpreter runs.
        key = zlib.crc32(("%s/%d" % (spec.name, spec.seed)).encode())
        code_base = 0x40_0000 + (key % 4096) * 0x10_0000
        self.program = Program(spec.name, code_base=code_base)
        self.bodies = [self._build_body(i)
                       for i in range(max(1, spec.code_blocks))]
        self.branch_block = self.program.add_block([
            Instruction(Opcode.CMP, gp(2), gp(3)),
            Instruction(Opcode.COND_BRANCH),
        ])
        self.then_block = self.program.add_block([
            Instruction(Opcode.ALU, gp(4), gp(5), gp(4)),
            Instruction(Opcode.ALU, gp(5), gp(6), gp(5)),
            Instruction(Opcode.JMP),
        ])
        # Atomic read-modify-write on a lock word (coherence traffic on
        # the lock line) preceding the LOCK syscall.
        self.atomic_block = self.program.add_block([
            Instruction(Opcode.ALU_STORE, gp(13), gp(4), gp(5)),
        ])
        self.syscall_block = self.program.add_block([
            Instruction(Opcode.SYSCALL),
        ])
        # Critical-section body: writes to shared counter lines.
        self.cs_block = self.program.add_block([
            Instruction(Opcode.LOAD_ALU, gp(13), gp(6), gp(7)),
            Instruction(Opcode.STORE, gp(13), gp(7)),
        ])
        # Unused, but it takes a block id: later blocks keep their ids.
        self.program.add_block([Instruction(Opcode.MAGIC)])

    def _build_body(self, index):
        """One loop-body basic block honoring the spec's instruction
        mix.  Clones differ only by code address (I-footprint)."""
        spec = self.spec
        rng = random.Random(spec.seed * 1000 + index)
        work = max(2, spec.body_instrs - 2)
        n_mem = min(work, int(round(work * spec.mem_ratio)))
        n_stores = int(round(n_mem * spec.write_ratio))
        n_loads = n_mem - n_stores
        n_comp = work - n_mem
        n_fp = int(round(n_comp * spec.fp_ratio))
        ilp = max(1, spec.ilp)
        instrs = []
        slots = (["load"] * n_loads + ["store"] * n_stores
                 + ["fp"] * n_fp + ["alu"] * (n_comp - n_fp))
        rng.shuffle(slots)
        for i, slot in enumerate(slots):
            chain = gp(2 + (i % min(ilp, 10)))
            if slot == "load":
                instrs.append(Instruction(Opcode.LOAD, gp(14), dst1=chain))
            elif slot == "store":
                instrs.append(Instruction(Opcode.STORE, gp(14), chain))
            elif slot == "fp":
                freg = fp(i % 8)
                op = Opcode.FPMUL if i % 3 == 0 else Opcode.FPADD
                instrs.append(Instruction(op, freg, fp((i + 1) % 8),
                                          dst1=freg))
            else:
                instrs.append(Instruction(Opcode.ALU, chain, gp(1),
                                          dst1=chain))
        instrs.append(Instruction(Opcode.CMP, gp(2), gp(3)))
        instrs.append(Instruction(Opcode.COND_BRANCH))
        return self.program.add_block(instrs)


def kernel_stream(kprog, thread_id=0, num_threads=1, target_instrs=200_000,
                  seed_offset=0):
    """Functional stream for one thread of a kernel.

    Single-threaded kernels (``num_threads == 1`` and no MT knobs) emit
    loop bodies with pattern-generated addresses and occasional
    unpredictable branches.  Multithreaded kernels add shared accesses,
    lock-protected critical sections, barrier phases, imbalance, and
    serial sections, using syscalls for synchronization.
    """
    spec = kprog.spec
    rng = random.Random((spec.seed << 16) + thread_id * 7919 + seed_offset)
    private_base = PRIVATE_BASE + thread_id * PRIVATE_STRIDE
    pattern = make_pattern(
        spec.pattern, private_base, spec.footprint_kb * 1024, rng,
        stride=spec.stride or None, hot_fraction=spec.hot_fraction,
        hot_bytes=spec.hot_kb * 1024)
    shared_pattern = None
    if spec.shared_fraction > 0.0 and num_threads > 1:
        shared_pattern = make_pattern(
            "random", SHARED_BASE, spec.shared_kb * 1024, rng)

    bodies = kprog.bodies
    num_bodies = len(bodies)
    branch_block = kprog.branch_block
    then_block = kprog.then_block
    shared_frac = spec.shared_fraction if num_threads > 1 else 0.0
    barrier_iters = spec.barrier_iters if num_threads > 1 else 0
    lock_iters = spec.lock_iters if num_threads > 1 else 0
    lock_addr = LOCK_BASE + (zlib.crc32(spec.name.encode()) % 64) * 64
    counter_base = SHARED_BASE + spec.shared_kb * 1024

    # Work share: higher thread ids may carry extra work (imbalance).
    # With barriers, imbalance scales the *per-phase* work so every
    # thread still reaches the same barrier sequence (no deadlock).
    imbalance_factor = 1.0
    if spec.imbalance > 0.0 and num_threads > 1:
        imbalance_factor = (1.0 + spec.imbalance * thread_id /
                            (num_threads - 1))
    my_target = int(target_instrs * imbalance_factor)

    def body_exec(iteration):
        body = bodies[iteration % num_bodies]
        if shared_pattern is None:
            return BBLExec(body, tuple([pattern() for _ in
                                        range(body.num_mem_slots)]),
                           taken=True)
        addrs = []
        for _ in range(body.num_mem_slots):
            if rng.random() < shared_frac:
                addrs.append(shared_pattern())
            else:
                addrs.append(pattern())
        return BBLExec(body, tuple(addrs), taken=True)

    emitted = 0
    iteration = 0
    phase = 0
    if barrier_iters:
        # Phase count derives from the *common* target so all threads
        # emit identical barrier sequences; imbalance scales the work
        # each thread does inside a phase instead.  The per-phase
        # iteration count is clamped so total work tracks the target
        # even when the target is smaller than one nominal phase.
        body = max(1, spec.body_instrs)
        phases = max(1, target_instrs // (barrier_iters * body))
        base_iters = max(1, round(target_instrs / (phases * body)))
        iters_per_phase = max(1, int(base_iters * imbalance_factor))
    else:
        phases = 1
        iters_per_phase = None  # run until target

    while phase < phases:
        iters = iters_per_phase
        i = 0
        while (iters is None and emitted < my_target) or \
                (iters is not None and i < iters):
            exec_ = body_exec(iteration)
            emitted += exec_.block.num_instrs
            yield exec_
            if rng.random() < spec.branch_rand:
                taken = rng.random() < 0.5
                yield BBLExec(branch_block, (), taken=taken)
                emitted += branch_block.num_instrs
                if taken:
                    yield BBLExec(then_block, (), taken=True)
                    emitted += then_block.num_instrs
            if lock_iters and (iteration + 1) % lock_iters == 0:
                yield from _critical_section(kprog, rng, lock_addr,
                                             counter_base, spec)
            iteration += 1
            i += 1
        if barrier_iters:
            key = (spec.name, "phase", phase)
            yield BBLExec(kprog.syscall_block, (),
                          syscall=Barrier(key, num_threads))
            if spec.seq_fraction > 0.0:
                # Serial section: thread 0 works; everyone re-syncs.
                # The serial span per phase is a fixed fraction of the
                # phase (Amdahl), independent of the thread count.
                if thread_id == 0:
                    serial_iters = max(1, int(iters_per_phase
                                              * spec.seq_fraction))
                    for _ in range(serial_iters):
                        exec_ = body_exec(iteration)
                        emitted += exec_.block.num_instrs
                        yield exec_
                        iteration += 1
                key2 = (spec.name, "serial", phase)
                yield BBLExec(kprog.syscall_block, (),
                              syscall=Barrier(key2, num_threads))
        phase += 1


def _critical_section(kprog, rng, lock_addr, counter_base, spec):
    """Lock -> shared counter updates -> unlock."""
    key = ("lock", lock_addr)
    yield BBLExec(kprog.atomic_block, (lock_addr, lock_addr), taken=False)
    yield BBLExec(kprog.syscall_block, (), syscall=Lock(key))
    for _ in range(spec.cs_accesses):
        counter = counter_base + rng.randrange(8) * 64
        yield BBLExec(kprog.cs_block, (counter, counter), taken=False)
    yield BBLExec(kprog.atomic_block, (lock_addr, lock_addr), taken=False)
    yield BBLExec(kprog.syscall_block, (), syscall=Unlock(key))


class Workload:
    """A named workload: a factory of simulated threads."""

    def __init__(self, spec, num_threads=1):
        self.spec = spec
        self.num_threads = num_threads
        self._kprog = None

    @property
    def name(self):
        return self.spec.name

    def kernel_program(self):
        if self._kprog is None:
            self._kprog = KernelProgram(self.spec)
        return self._kprog

    def make_threads(self, target_instrs=200_000, num_threads=None,
                     tcache=None, seed_offset=0):
        """Create one :class:`SimThread` per thread, sharing a
        translation cache (decode-once across threads, like zsim)."""
        kprog = self.kernel_program()
        n = num_threads or self.num_threads
        tcache = tcache if tcache is not None else TranslationCache()
        per_thread = max(1000, target_instrs // n)
        threads = []
        for tid in range(n):
            stream = InstrumentedStream(
                kernel_stream(kprog, tid, n, per_thread, seed_offset),
                translation_cache=tcache,
                program_id=kprog.program.program_id)
            threads.append(SimThread(stream,
                                     name="%s-t%d" % (self.name, tid)))
        return threads

    def __repr__(self):
        return "Workload(%s, %d threads)" % (self.name, self.num_threads)
