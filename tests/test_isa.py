"""Tests for the mini-ISA: registers, opcodes, programs, µops."""

import pytest

from repro.isa.opcodes import INSTR_LENGTH, Opcode, decode_instruction
from repro.isa.program import BasicBlock, BBLExec, Instruction, Program
from repro.isa.registers import (
    NO_REG,
    NUM_REGS,
    RFLAGS,
    RIP,
    fp,
    gp,
    reg_name,
)
from repro.isa.uops import (
    NUM_PORTS,
    PORTS_ALU,
    Uop,
    UopType,
    port_list,
)


class TestRegisters:
    def test_gp_range(self):
        assert gp(0) == 0
        assert gp(15) == 15

    def test_gp_out_of_range(self):
        with pytest.raises(ValueError):
            gp(16)
        with pytest.raises(ValueError):
            gp(-1)

    def test_fp_offset(self):
        assert fp(0) == 16
        assert fp(7) == 23

    def test_fp_out_of_range(self):
        with pytest.raises(ValueError):
            fp(8)

    def test_special_registers_distinct(self):
        ids = {gp(i) for i in range(16)} | {fp(i) for i in range(8)}
        ids |= {RFLAGS, RIP}
        assert len(ids) == NUM_REGS

    def test_reg_names(self):
        assert reg_name(gp(3)) == "r3"
        assert reg_name(fp(2)) == "f2"
        assert reg_name(RFLAGS) == "rflags"
        assert reg_name(RIP) == "rip"
        assert reg_name(NO_REG) == "-"

    def test_reg_name_invalid(self):
        with pytest.raises(ValueError):
            reg_name(999)


class TestUops:
    def test_port_list(self):
        assert port_list(PORTS_ALU) == [0, 1, 5]
        assert port_list(0) == []
        assert port_list((1 << NUM_PORTS) - 1) == list(range(NUM_PORTS))

    def test_uop_mem_flags(self):
        load = Uop(UopType.LOAD, mem_slot=0)
        assert load.is_mem
        store = Uop(UopType.STORE_ADDR, mem_slot=1)
        assert store.is_mem
        alu = Uop(UopType.EXEC)
        assert not alu.is_mem

    def test_uop_repr_includes_type(self):
        assert "load" in repr(Uop(UopType.LOAD, mem_slot=0))


class TestOpcodeDecoding:
    def test_alu_single_uop(self):
        instr = Instruction(Opcode.ALU, gp(1), gp(2), gp(3))
        uops, slots = decode_instruction(instr, 0)
        assert len(uops) == 1 and slots == 0
        assert uops[0].type == UopType.EXEC
        assert uops[0].dst2 == RFLAGS

    def test_load_consumes_slot(self):
        instr = Instruction(Opcode.LOAD, gp(1), dst1=gp(2))
        uops, slots = decode_instruction(instr, 3)
        assert slots == 1
        assert uops[0].mem_slot == 3

    def test_store_fission(self):
        """Stores split into store-address + store-data µops."""
        instr = Instruction(Opcode.STORE, gp(1), gp(2))
        uops, slots = decode_instruction(instr, 0)
        assert [u.type for u in uops] == [UopType.STORE_ADDR,
                                          UopType.STORE_DATA]
        assert slots == 1
        assert uops[0].mem_slot == uops[1].mem_slot == 0

    def test_load_alu_fission_dependency(self):
        """Memory-operand ALU: load µop feeds the exec µop."""
        instr = Instruction(Opcode.LOAD_ALU, gp(1), gp(2), gp(3))
        uops, slots = decode_instruction(instr, 0)
        assert [u.type for u in uops] == [UopType.LOAD, UopType.EXEC]
        assert uops[0].dst1 == gp(3)
        assert uops[1].src1 == gp(3)  # dataflow dependency

    def test_alu_store_four_uops_two_slots(self):
        instr = Instruction(Opcode.ALU_STORE, gp(1), gp(2), gp(3))
        uops, slots = decode_instruction(instr, 0)
        assert len(uops) == 4 and slots == 2
        assert uops[0].mem_slot == 0 and uops[2].mem_slot == 1

    def test_branch_writes_rip(self):
        uops, _ = decode_instruction(Instruction(Opcode.COND_BRANCH), 0)
        assert uops[0].type == UopType.BRANCH
        assert uops[0].dst1 == RIP
        assert uops[0].src1 == RFLAGS

    def test_div_long_latency(self):
        uops, _ = decode_instruction(
            Instruction(Opcode.DIV, gp(1), gp(2), gp(3)), 0)
        assert uops[0].lat > 10

    def test_fp_latencies_ordered(self):
        add, _ = decode_instruction(
            Instruction(Opcode.FPADD, fp(0), fp(1), fp(2)), 0)
        mul, _ = decode_instruction(
            Instruction(Opcode.FPMUL, fp(0), fp(1), fp(2)), 0)
        div, _ = decode_instruction(
            Instruction(Opcode.FPDIV, fp(0), fp(1), fp(2)), 0)
        assert add[0].lat < mul[0].lat < div[0].lat

    def test_every_opcode_decodes(self):
        for opcode in Opcode.NAMES:
            instr = Instruction(opcode, gp(1), gp(2), gp(3))
            uops, slots = decode_instruction(instr, 0)
            assert len(uops) >= 1
            assert slots >= 0

    def test_lengths_defined_for_all_opcodes(self):
        assert set(INSTR_LENGTH) == set(Opcode.NAMES)

    def test_unknown_opcode_raises(self):
        instr = Instruction(Opcode.ALU)
        instr.opcode = 999
        with pytest.raises(ValueError):
            decode_instruction(instr, 0)


class TestProgram:
    def test_block_layout_contiguous(self):
        program = Program("p", code_base=0x1000)
        b0 = program.add_block([Instruction(Opcode.ALU, gp(1), gp(2))])
        b1 = program.add_block([Instruction(Opcode.NOP)])
        assert b0.address == 0x1000
        assert b1.address == b0.end_address

    def test_block_ids_sequential(self):
        program = build = Program("p")
        blocks = [build.add_block([Instruction(Opcode.NOP)])
                  for _ in range(5)]
        assert [b.bbl_id for b in blocks] == list(range(5))
        assert program.num_blocks == 5

    def test_mem_slot_counting(self):
        block = BasicBlock(0, 0, [
            Instruction(Opcode.LOAD, gp(1), dst1=gp(2)),
            Instruction(Opcode.STORE, gp(1), gp(2)),
            Instruction(Opcode.ALU_STORE, gp(1), gp(2), gp(3)),
            Instruction(Opcode.ALU, gp(1), gp(2), gp(3)),
        ])
        assert block.num_mem_slots == 4  # 1 + 1 + 2 + 0

    def test_num_bytes_matches_lengths(self):
        instrs = [Instruction(Opcode.ALU, gp(1), gp(2)),
                  Instruction(Opcode.JMP)]
        block = BasicBlock(0, 0, instrs)
        assert block.num_bytes == sum(i.length for i in instrs)

    def test_program_ids_unique(self):
        assert Program("a").program_id != Program("b").program_id


class TestBBLExec:
    def test_default_next_address_falls_through(self):
        block = BasicBlock(0, 0x100, [Instruction(Opcode.NOP)])
        exec_ = BBLExec(block)
        assert exec_.next_address == block.end_address

    def test_explicit_next_address(self):
        block = BasicBlock(0, 0x100, [Instruction(Opcode.JMP)])
        exec_ = BBLExec(block, taken=True, next_address=0x2000)
        assert exec_.next_address == 0x2000

    def test_carries_syscall(self):
        block = BasicBlock(0, 0, [Instruction(Opcode.SYSCALL)])
        exec_ = BBLExec(block, syscall="desc")
        assert exec_.syscall == "desc"
