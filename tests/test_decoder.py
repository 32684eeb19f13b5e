"""Tests for instruction->µop decoding: fusion, 4-1-1-1, predecoder."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.decoder import (
    DECODE_WIDTH,
    PREDECODE_BYTES_PER_CYCLE,
    decode_bbl,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import BasicBlock, Instruction
from repro.isa.registers import gp
from repro.isa.uops import UopType


def block_of(opcodes):
    instrs = [Instruction(op, gp(1), gp(2), gp(3)) for op in opcodes]
    return BasicBlock(0, 0x1000, instrs)


class TestFusion:
    def test_cmp_branch_fuses(self):
        decoded = decode_bbl(block_of([Opcode.CMP, Opcode.COND_BRANCH]))
        assert decoded.num_uops == 1
        assert decoded.flat[0][0] == UopType.BRANCH
        assert decoded.fused_pairs == 1

    def test_fused_uop_reads_compare_sources(self):
        decoded = decode_bbl(block_of([Opcode.CMP, Opcode.COND_BRANCH]))
        _type, _lat, _ports, _slot, _dep1, gsrc1, _dep2, gsrc2 = \
            decoded.flat[0]
        assert gsrc1 == gp(1) and gsrc2 == gp(2)

    def test_cmp_without_branch_does_not_fuse(self):
        decoded = decode_bbl(block_of([Opcode.CMP, Opcode.ALU]))
        assert decoded.num_uops == 2
        assert decoded.fused_pairs == 0

    def test_branch_without_cmp_does_not_fuse(self):
        decoded = decode_bbl(block_of([Opcode.ALU, Opcode.COND_BRANCH]))
        assert decoded.num_uops == 2

    def test_multiple_fusions(self):
        decoded = decode_bbl(block_of(
            [Opcode.CMP, Opcode.COND_BRANCH] * 3))
        assert decoded.fused_pairs == 3
        assert decoded.num_uops == 3


class TestBranchMetadata:
    def test_conditional_branch_detected(self):
        decoded = decode_bbl(block_of([Opcode.ALU, Opcode.COND_BRANCH]))
        assert decoded.branch_uop_index == 1
        assert decoded.conditional

    def test_unconditional_jump_not_conditional(self):
        decoded = decode_bbl(block_of([Opcode.ALU, Opcode.JMP]))
        assert decoded.branch_uop_index == 1
        assert not decoded.conditional

    def test_no_branch(self):
        decoded = decode_bbl(block_of([Opcode.ALU, Opcode.ALU]))
        assert decoded.branch_uop_index == -1


class TestFrontendModel:
    def test_single_simple_instr_one_cycle(self):
        decoded = decode_bbl(block_of([Opcode.ALU]))
        assert decoded.decode_cycles == 1

    def test_width_limit(self):
        """More than 4 simple instructions need a second decode group."""
        decoded = decode_bbl(block_of([Opcode.ALU] * 5))
        assert decoded.decode_cycles == 2
        decoded = decode_bbl(block_of([Opcode.ALU] * 4))
        assert decoded.decode_cycles == 1

    def test_complex_instr_must_lead_group(self):
        """A multi-µop instruction mid-group forces a new group
        (the 4-1-1-1 rule)."""
        # ALU then STORE (2 µops): store can't use slot 1.
        decoded = decode_bbl(block_of([Opcode.ALU, Opcode.STORE]))
        assert decoded.decode_cycles == 2
        # STORE leading the group is fine.
        decoded = decode_bbl(block_of([Opcode.STORE, Opcode.ALU]))
        assert decoded.decode_cycles == 1

    def test_predecoder_limits_long_blocks(self):
        # X87 instructions are 7 bytes; 8 of them = 56 bytes > 3 groups.
        decoded = decode_bbl(block_of([Opcode.X87] * 8))
        expected_predec = -(-56 // PREDECODE_BYTES_PER_CYCLE)
        assert decoded.decode_cycles >= expected_predec

    def test_decode_cycles_at_least_one(self):
        decoded = decode_bbl(block_of([Opcode.NOP]))
        assert decoded.decode_cycles == 1


class TestMemSlots:
    def test_slots_match_block_count(self):
        block = block_of([Opcode.LOAD, Opcode.STORE, Opcode.ALU_STORE,
                          Opcode.ALU])
        decoded = decode_bbl(block)
        slots_used = {row[3] for row in decoded.flat if row[3] >= 0}
        assert slots_used == set(range(block.num_mem_slots))

    def test_loads_and_stores_counted(self):
        decoded = decode_bbl(block_of([Opcode.LOAD, Opcode.LOAD,
                                       Opcode.STORE]))
        assert decoded.num_loads == 2
        assert decoded.num_stores == 1


_MIXABLE = [Opcode.ALU, Opcode.LOAD, Opcode.STORE, Opcode.LOAD_ALU,
            Opcode.ALU_STORE, Opcode.CMP, Opcode.FPADD, Opcode.MUL,
            Opcode.NOP, Opcode.LEA, Opcode.X87]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_MIXABLE), min_size=1, max_size=24),
       st.booleans())
def test_decode_properties(opcodes, end_branch):
    """Properties that must hold for every decodable block."""
    if end_branch:
        opcodes = opcodes + [Opcode.COND_BRANCH]
    block = block_of(opcodes)
    decoded = decode_bbl(block)
    # µop slots are in-range and in nondecreasing program order.
    slots = [row[3] for row in decoded.flat if row[3] >= 0]
    assert slots == sorted(slots)
    assert all(0 <= s < block.num_mem_slots for s in slots)
    # Decode cycles bounded below by both frontend constraints.
    assert decoded.decode_cycles >= max(
        1, -(-block.num_bytes // PREDECODE_BYTES_PER_CYCLE))
    # Every instruction yields at least one µop unless fused away.
    assert decoded.num_uops >= max(1, len(opcodes)
                                   - decoded.fused_pairs * 1
                                   - sum(1 for o in opcodes
                                         if o == Opcode.CMP))
    # Width bound: cannot decode more than DECODE_WIDTH instrs/cycle.
    assert decoded.decode_cycles >= len(block.instructions) / (
        DECODE_WIDTH * 1.0) - 1


def test_decoding_is_deterministic():
    ops = [random.Random(7).choice(_MIXABLE) for _ in range(12)]
    a = decode_bbl(block_of(ops))
    b = decode_bbl(block_of(ops))
    assert a.flat == b.flat
    assert a.decode_cycles == b.decode_cycles
