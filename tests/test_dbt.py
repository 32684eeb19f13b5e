"""Tests for the DBT substrate: translation cache + instrumentation."""

import pytest

from repro.dbt.instrumentation import InstrumentedStream, MagicOp
from repro.dbt.translation_cache import TranslationCache
from repro.isa.opcodes import Opcode
from repro.isa.program import BBLExec, Instruction, Program
from repro.isa.registers import gp

from conftest import build_program, stream_of


class TestTranslationCache:
    def test_decode_once(self):
        program = build_program()
        cache = TranslationCache()
        block = program.block(0)
        first = cache.translate(block)
        second = cache.translate(block)
        assert first is second
        assert cache.translations == 1
        assert cache.hits == 1

    def test_programs_are_namespaced(self):
        program = build_program()
        cache = TranslationCache()
        a = cache.translate(program.block(0), program_id=1)
        b = cache.translate(program.block(0), program_id=2)
        assert a is not b
        assert cache.translations == 2

    def test_invalidate_forces_retranslation(self):
        program = build_program()
        cache = TranslationCache()
        block = program.block(0)
        first = cache.translate(block)
        cache.invalidate(block)
        assert cache.invalidations == 1
        second = cache.translate(block)
        assert first is not second

    def test_invalidate_absent_is_noop(self):
        program = build_program()
        cache = TranslationCache()
        cache.invalidate(program.block(0))
        assert cache.invalidations == 0

    def test_capacity_eviction(self):
        program = build_program(num_blocks=5)
        cache = TranslationCache(capacity=3)
        for block in program.blocks:
            cache.translate(block)
        assert len(cache) == 3
        # Capacity pressure counts as eviction, not invalidation.
        assert cache.evictions == 2
        assert cache.invalidations == 0
        # The oldest translations were evicted.
        assert (0, 0) not in cache and (0, 4) in cache

    def test_lru_hit_refreshes_recency(self):
        program = build_program(num_blocks=4)
        cache = TranslationCache(capacity=3)
        for block in program.blocks[:3]:
            cache.translate(block)
        # Re-touch block 0: it becomes most-recent and must survive the
        # eviction forced by block 3.
        cache.translate(program.block(0))
        cache.translate(program.block(3))
        assert (0, 0) in cache
        assert (0, 1) not in cache
        assert cache.evictions == 1


class TestInstrumentedStream:
    def test_counts_instructions_and_bbls(self):
        program = build_program()
        block = program.block(0)
        stream = InstrumentedStream(stream_of(block, count=10))
        consumed = list(stream)
        assert len(consumed) == 10
        assert stream.bbls_executed == 10
        assert stream.instrs_retired == 10 * block.num_instrs

    def test_yields_decoded_and_exec(self):
        program = build_program()
        block = program.block(0)
        stream = InstrumentedStream(stream_of(block, count=1))
        decoded, bbl_exec = next(stream)
        assert decoded.block is block
        assert bbl_exec.block is block

    def test_shares_translation_cache(self):
        program = build_program()
        block = program.block(0)
        tcache = TranslationCache()
        s1 = InstrumentedStream(stream_of(block, count=3), tcache)
        s2 = InstrumentedStream(stream_of(block, count=3), tcache)
        list(s1)
        list(s2)
        assert tcache.translations == 1
        assert tcache.hits == 5

    def test_fast_forward_skips_without_timing(self):
        program = build_program()
        block = program.block(0)
        stream = InstrumentedStream(stream_of(block, count=100))
        skipped = stream.fast_forward(block.num_instrs * 10)
        assert skipped == block.num_instrs * 10
        remaining = list(stream)
        assert len(remaining) == 90

    def test_fast_forward_past_end(self):
        program = build_program()
        block = program.block(0)
        stream = InstrumentedStream(stream_of(block, count=5))
        skipped = stream.fast_forward(10 ** 9)
        assert skipped == 5 * block.num_instrs
        with pytest.raises(StopIteration):
            next(stream)

    def test_magic_op_dispatch(self):
        program = Program("magic")
        magic = program.add_block([Instruction(Opcode.MAGIC)])
        normal = program.add_block([Instruction(Opcode.ALU, gp(1), gp(2))])
        seen = []

        def gen():
            yield BBLExec(normal)
            yield BBLExec(magic, syscall=MagicOp.ROI_BEGIN)
            yield BBLExec(normal)

        stream = InstrumentedStream(gen(), magic_handler=seen.append)
        list(stream)
        assert len(seen) == 1
        assert seen[0].syscall == MagicOp.ROI_BEGIN
