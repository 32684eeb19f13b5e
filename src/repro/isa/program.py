"""Static program representation: instructions, basic blocks, programs.

Workloads in this reproduction are *synthetic binaries*: static programs
over the mini-ISA plus a functional execution stream (see
:mod:`repro.workloads.base`).  This mirrors zsim's split between the
functional side (Pin executing the real binary) and the timing side
(decoded basic-block descriptors driving the timing models).
"""

from __future__ import annotations

import itertools

from repro.isa.opcodes import INSTR_LENGTH, Opcode
from repro.isa.registers import NO_REG


class Instruction:
    """One static macro instruction."""

    __slots__ = ("opcode", "src1", "src2", "dst1", "length")

    def __init__(self, opcode, src1=NO_REG, src2=NO_REG, dst1=NO_REG):
        self.opcode = opcode
        self.src1 = src1
        self.src2 = src2
        self.dst1 = dst1
        self.length = INSTR_LENGTH[opcode]

    def __repr__(self):
        return "Instruction(%s)" % Opcode.NAMES[self.opcode]


class BasicBlock:
    """A static basic block: straight-line instructions, one exit.

    ``address`` is the synthetic code address of the first instruction;
    instruction fetch simulates cache-line accesses over
    ``[address, address + num_bytes)``.
    """

    __slots__ = ("bbl_id", "address", "instructions", "num_bytes",
                 "num_mem_slots", "num_instrs")

    def __init__(self, bbl_id, address, instructions):
        self.bbl_id = bbl_id
        self.address = address
        self.instructions = tuple(instructions)
        self.num_bytes = sum(i.length for i in self.instructions)
        self.num_instrs = len(self.instructions)
        slots = 0
        for instr in self.instructions:
            if instr.opcode in (Opcode.LOAD, Opcode.STORE, Opcode.LOAD_ALU,
                                Opcode.CALL, Opcode.RET):
                slots += 1
            elif instr.opcode == Opcode.ALU_STORE:
                slots += 2
        self.num_mem_slots = slots

    @property
    def end_address(self):
        return self.address + self.num_bytes

    def __repr__(self):
        return ("BasicBlock(id=%d, addr=0x%x, %d instrs, %d mem slots)"
                % (self.bbl_id, self.address, self.num_instrs,
                   self.num_mem_slots))


_program_ids = itertools.count()


class Program:
    """A static program: a set of basic blocks laid out in a code segment.

    Programs do not own control flow; the workload's functional stream
    decides which block executes next (the analogue of Pin executing the
    real binary and telling the timing model what ran).
    """

    def __init__(self, name, code_base=0x400000):
        self.program_id = next(_program_ids)
        self.name = name
        self.code_base = code_base
        self.blocks = []
        self._next_address = code_base

    def add_block(self, instructions):
        """Append a new basic block laid out after the previous one."""
        block = BasicBlock(len(self.blocks), self._next_address,
                           instructions)
        self.blocks.append(block)
        self._next_address = block.end_address
        return block

    def block(self, bbl_id):
        return self.blocks[bbl_id]

    @property
    def num_blocks(self):
        return len(self.blocks)

    def __repr__(self):
        return "Program(%r, %d blocks)" % (self.name, len(self.blocks))


class BBLExec:
    """One dynamic execution of a basic block.

    This is the unit the functional stream hands to the timing models:
    which static block ran, the data addresses its memory slots touched
    (in program order), whether its terminating branch was taken, and the
    address of the next block (the branch target actually followed).

    ``syscall`` optionally carries a syscall descriptor when the block
    ends in a SYSCALL instruction (see :mod:`repro.virt.syscalls`).
    """

    __slots__ = ("block", "addrs", "taken", "next_address", "syscall")

    def __init__(self, block, addrs=(), taken=False, next_address=None,
                 syscall=None):
        self.block = block
        self.addrs = addrs
        self.taken = taken
        # The fall-through address, without the end_address property.
        self.next_address = (block.address + block.num_bytes
                             if next_address is None else next_address)
        self.syscall = syscall

    def __repr__(self):
        return ("BBLExec(block=%d, addrs=%d, taken=%r)"
                % (self.block.bbl_id, len(self.addrs), self.taken))
