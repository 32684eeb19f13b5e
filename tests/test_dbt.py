"""Tests for the DBT substrate: translation cache + instrumentation."""

import pickle

import pytest

from repro.dbt.instrumentation import InstrumentedStream
from repro.dbt.translation_cache import TranslationCache

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

    def test_pickle_ships_blocks_and_redecodes(self):
        """A capsule carries blocks and counters, never a decoded
        descriptor; the load re-derives each descriptor without counting
        a translation."""
        program = build_program(num_blocks=3)
        cache = TranslationCache()
        for block in program.blocks + program.blocks[:1]:
            cache.translate(block, program_id=2)
        blob = pickle.dumps(cache)
        assert b"DecodedBBL" not in blob
        loaded = pickle.loads(blob)
        assert (loaded.translations, loaded.hits, len(loaded)) == (3, 1, 3)
        for block in program.blocks:
            want = cache.translate(block, program_id=2)
            got = loaded.translate(block, program_id=2)
            assert got is not want
            assert [getattr(got, name) for name in got.__slots__
                    if name != "block"] == \
                [getattr(want, name) for name in want.__slots__
                 if name != "block"]
        assert (loaded.translations, loaded.hits) == (3, 4)


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
