"""Tests for the synthetic workload substrate and suites."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.opcodes import Opcode
from repro.workloads.base import (
    KernelProgram,
    KernelSpec,
    PRIVATE_BASE,
    PRIVATE_STRIDE,
    SHARED_BASE,
    kernel_stream,
)
from repro.workloads.multithreaded import (
    FIGURE2_WORKLOADS,
    MULTITHREADED,
    PARSEC,
    SPEC_OMP,
    SPLASH2,
    TABLE4_WORKLOADS,
    default_threads,
    mt_workload,
)
from repro.workloads.patterns import make_pattern
from repro.workloads.spec_cpu import SPEC_CPU2006, spec_workload

from pattern_reference import (
    ChasePattern,
    HotColdPattern,
    RandomPattern,
    StreamPattern,
    reference_pattern,
)


class TestPatterns:
    def test_stream_sequential_and_wraps(self):
        pattern = StreamPattern(0x1000, footprint=64, stride=8)
        addrs = [pattern() for _ in range(10)]
        assert addrs[:3] == [0x1000, 0x1008, 0x1010]
        assert addrs[8] == 0x1000  # wrapped

    def test_random_stays_in_footprint(self):
        rng = random.Random(1)
        pattern = RandomPattern(0x2000, 1024, rng)
        for _ in range(200):
            assert 0x2000 <= pattern() < 0x2000 + 1024

    def test_chase_is_full_permutation(self):
        """The chase visits every line exactly once per cycle — the
        no-reuse property that makes mcf memory-bound."""
        rng = random.Random(2)
        footprint = 64 * 64
        pattern = ChasePattern(0, footprint, rng)
        visited = {pattern() for _ in range(64)}
        assert len(visited) == 64

    def test_hot_cold_mixing(self):
        rng = random.Random(3)
        cold = StreamPattern(0, 1 << 20, 64)
        pattern = HotColdPattern(cold, 1 << 20, hot_bytes=4096,
                                 hot_fraction=0.5, rng=rng)
        hot = sum(1 for _ in range(1000)
                  if (1 << 20) <= pattern() < (1 << 20) + 4096)
        assert 350 < hot < 650

    def test_make_pattern_kinds(self):
        rng = random.Random(4)
        for kind in ("stream", "stride", "random", "chase"):
            pattern = make_pattern(kind, 0, 4096, rng)
            assert isinstance(pattern(), int)
        with pytest.raises(ValueError):
            make_pattern("zigzag", 0, 4096, rng)

    @pytest.mark.parametrize("hot_fraction", (0.0, 0.3))
    @pytest.mark.parametrize("kind", ("stream", "stride", "random", "chase"))
    def test_closures_match_class_reference(self, kind, hot_fraction):
        """Same addresses and the same draws as the class-based
        patterns: the getrandbits loop is Random.randrange on this
        interpreter.  Footprints and hot sets that are not powers of two
        make the rejection loop reject."""
        for seed in (0, 1, 2):
            rngs = random.Random(seed), random.Random(seed)
            patterns = [make(kind, 0x10_0000, 48 * 1024 + 192, rng,
                             hot_fraction=hot_fraction,
                             hot_bytes=6 * 1024 + 40)
                        for make, rng in zip((make_pattern,
                                              reference_pattern), rngs)]
            got, want = ([pattern() for _ in range(10_000)]
                         for pattern in patterns)
            assert got == want
            assert rngs[0].getstate() == rngs[1].getstate()


class TestKernelProgram:
    def test_body_instruction_mix(self):
        spec = KernelSpec(mem_ratio=0.5, write_ratio=0.5, body_instrs=18)
        kprog = KernelProgram(spec)
        body = kprog.bodies[0]
        opcodes = [i.opcode for i in body.instructions]
        assert opcodes[-1] == Opcode.COND_BRANCH
        assert opcodes[-2] == Opcode.CMP
        loads = opcodes.count(Opcode.LOAD)
        stores = opcodes.count(Opcode.STORE)
        assert loads == stores == 4  # 16 work instrs * 0.5 mem * 0.5 wr

    def test_code_blocks_are_clones_at_distinct_addresses(self):
        kprog = KernelProgram(KernelSpec(code_blocks=4))
        addresses = {b.address for b in kprog.bodies}
        assert len(addresses) == 4

    def test_programs_have_distinct_code_bases(self):
        a = KernelProgram(KernelSpec(name="a"))
        b = KernelProgram(KernelSpec(name="b"))
        assert a.program.code_base != b.program.code_base


class TestKernelStream:
    def test_emits_requested_instructions(self):
        kprog = KernelProgram(KernelSpec(branch_rand=0.0))
        total = sum(e.block.num_instrs
                    for e in kernel_stream(kprog, target_instrs=5000))
        assert 5000 <= total < 5200

    def test_addresses_fill_every_mem_slot(self):
        kprog = KernelProgram(KernelSpec(mem_ratio=0.5))
        for exec_ in kernel_stream(kprog, target_instrs=2000):
            assert len(exec_.addrs) == exec_.block.num_mem_slots

    def test_deterministic_for_seed(self):
        def trace():
            kprog = KernelProgram(KernelSpec(seed=9, branch_rand=0.3))
            return [(e.block.bbl_id, e.addrs, e.taken)
                    for e in kernel_stream(kprog, target_instrs=3000)]
        # Note: block ids are per-program so compare shapes.
        a, b = trace(), trace()
        assert [(x[1], x[2]) for x in a] == [(x[1], x[2]) for x in b]

    def test_threads_use_disjoint_private_regions(self):
        spec = KernelSpec(shared_fraction=0.0, footprint_kb=64)
        kprog = KernelProgram(spec)
        for tid in range(3):
            lo = PRIVATE_BASE + tid * PRIVATE_STRIDE
            hi = lo + PRIVATE_STRIDE
            for exec_ in kernel_stream(kprog, thread_id=tid,
                                       num_threads=4,
                                       target_instrs=2000):
                assert all(lo <= a < hi for a in exec_.addrs)

    def test_shared_accesses_present_for_mt(self):
        spec = KernelSpec(shared_fraction=0.5, shared_kb=64,
                          barrier_iters=0)
        kprog = KernelProgram(spec)
        shared = total = 0
        for exec_ in kernel_stream(kprog, thread_id=0, num_threads=4,
                                   target_instrs=4000):
            for addr in exec_.addrs:
                total += 1
                shared += SHARED_BASE <= addr < SHARED_BASE + (1 << 30)
        assert total > 0
        assert 0.3 < shared / total < 0.7

    def test_barrier_phases_match_across_threads(self):
        """Every thread of a barrier workload emits the same barrier
        sequence — the property that prevents deadlock."""
        spec = KernelSpec(barrier_iters=50, imbalance=0.3)
        kprog = KernelProgram(spec)

        def barrier_keys(tid):
            return [e.syscall.key
                    for e in kernel_stream(kprog, tid, 4,
                                           target_instrs=20_000)
                    if e.syscall is not None
                    and type(e.syscall).__name__ == "Barrier"]
        keys = [barrier_keys(tid) for tid in range(4)]
        assert keys[0] == keys[1] == keys[2] == keys[3]
        assert len(keys[0]) >= 1

    def test_lock_sections_emit_paired_syscalls(self):
        spec = KernelSpec(lock_iters=10, barrier_iters=0)
        kprog = KernelProgram(spec)
        names = [type(e.syscall).__name__
                 for e in kernel_stream(kprog, 0, 2, target_instrs=5000)
                 if e.syscall is not None]
        assert names.count("Lock") == names.count("Unlock") >= 1


class TestSuites:
    def test_spec_suite_complete(self):
        assert len(SPEC_CPU2006) == 29
        names = {spec_workload(n, scale=0.1).spec.name for n in SPEC_CPU2006}
        assert len(names) == 29

    def test_unknown_spec_name(self):
        with pytest.raises(ValueError):
            spec_workload("notabenchmark")

    def test_scale_shrinks_footprint(self):
        big = spec_workload("mcf", scale=1.0)
        small = spec_workload("mcf", scale=1 / 64)
        assert small.spec.footprint_kb < big.spec.footprint_kb

    def test_mt_suite_complete(self):
        assert len(MULTITHREADED) == 23  # 22 benchmarks + stream
        assert len(PARSEC) == 6
        assert len(SPLASH2) == 7
        assert len(SPEC_OMP) == 9
        assert len(FIGURE2_WORKLOADS) == 10
        assert len(TABLE4_WORKLOADS) == 13

    def test_power_of_two_workloads_use_four_threads(self):
        for name in ("radix", "ocean", "fft", "fluidanimate"):
            assert default_threads(name) == 4

    def test_mt_workload_threads(self):
        workload = mt_workload("canneal", scale=1 / 32)
        threads = workload.make_threads(target_instrs=10_000)
        assert len(threads) == default_threads("canneal")
        names = {t.name for t in threads}
        assert len(names) == len(threads)

    def test_workload_shares_translation_cache(self):
        workload = mt_workload("blackscholes", scale=1 / 32)
        threads = workload.make_threads(target_instrs=5_000)
        caches = {id(t.stream.tcache) for t in threads}
        assert len(caches) == 1


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(SPEC_CPU2006))
def test_every_spec_workload_streams(name):
    workload = spec_workload(name, scale=1 / 128)
    (thread,) = workload.make_threads(target_instrs=1500)
    consumed = list(thread.stream)
    assert consumed
    assert sum(d.block.num_instrs for d, _e in consumed) >= 1500
