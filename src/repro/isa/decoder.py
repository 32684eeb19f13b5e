"""Instruction → µop decoding, performed once per static basic block.

This is the heart of zsim's first technique: all decode work (µop fission,
macro-op fusion, port/latency assignment, frontend stall accounting) runs
at *instrumentation time* and is cached, so the per-execution timing cost
is minimal.  The products are :class:`DecodedBBL` descriptors, the exact
analogue of the "Decoded BBL uops" table in Figure 1 of the paper.

The frontend model follows Westmere:

* instruction-length predecoder limited to 16 bytes/cycle, and
* 4-1-1-1 decoders — up to 4 instructions/cycle, but only the first
  decoder slot may emit more than one µop.
"""

from __future__ import annotations

from repro.isa.opcodes import Opcode, decode_instruction
from repro.isa.registers import RFLAGS, RIP
from repro.isa.uops import PORTS_BRANCH, Uop, UopType

PREDECODE_BYTES_PER_CYCLE = 16
DECODE_WIDTH = 4

#: Line size used for the precomputed fetch-line table.  The core
#: models hardcode the same 64-byte fetch granularity.
FETCH_LINE_BYTES = 64


class DecodedBBL:
    """Decoded descriptor for one static basic block.

    The descriptor is the *schedule-once* data plane: flat per-µop
    tuples, frontend aggregates, and a static intra-block dependency
    schedule, all built at translation time from the decoder's
    :class:`~repro.isa.uops.Uop` list so dynamic executions touch only
    precomputed scalars (the paper's decode-once amortization, extended
    through scheduling).

    Attributes:
        block: the static :class:`~repro.isa.program.BasicBlock`.
        decode_cycles: frontend cycles needed to predecode + decode the
            block (the max of the length-predecoder and decoder limits).
        branch_uop_index: index of the terminating branch µop, or -1.
        conditional: whether the terminating branch is conditional.
        fused_pairs: number of macro-fused cmp+branch pairs.
        num_uops: µop count (flat int; was a property pre-refactor).
        fetch_lines: tuple of 64-byte line addresses an ifetch of this
            block touches, in order.
        mem_ops: tuple of ``(mem_slot, is_write)`` for LOAD/STORE_ADDR
            µops in program order (the IPC1 core's whole data plane).
        has_syscall: whether any µop is a SYSCALL.
        flat: per-µop 8-tuples ``(type, lat, ports, mem_slot, dep1,
            gsrc1, dep2, gsrc2)``.  ``depN`` is the index of the last
            prior in-block writer of source N (-1 when the value comes
            from before the block), ``gsrcN`` is the architectural
            register to read from the global scoreboard in that case
            (-1 when source N is absent or satisfied in-block).
        final_writes: tuple of ``(reg, uop_index)`` naming, for every
            register written in the block, its *last* writer — the only
            scoreboard entries later blocks can observe.
    """

    __slots__ = ("block", "decode_cycles", "branch_uop_index",
                 "conditional", "fused_pairs", "num_loads", "num_stores",
                 "num_uops", "fetch_lines", "mem_ops", "has_syscall",
                 "flat", "final_writes")

    def __init__(self, block, uops, decode_cycles, branch_uop_index,
                 conditional, fused_pairs):
        self.block = block
        self.decode_cycles = decode_cycles
        self.branch_uop_index = branch_uop_index
        self.conditional = conditional
        self.fused_pairs = fused_pairs
        self.num_uops = len(uops)
        self.num_loads = sum(1 for u in uops if u.type == UopType.LOAD)
        self.num_stores = sum(1 for u in uops
                              if u.type == UopType.STORE_ADDR)

        lines = []
        line = block.address & ~(FETCH_LINE_BYTES - 1)
        end = block.address + block.num_bytes
        while line < end:
            lines.append(line)
            line += FETCH_LINE_BYTES
        self.fetch_lines = tuple(lines)

        self.mem_ops = tuple(
            (u.mem_slot, u.type == UopType.STORE_ADDR) for u in uops
            if u.type == UopType.LOAD or u.type == UopType.STORE_ADDR)
        self.has_syscall = any(u.type == UopType.SYSCALL for u in uops)

        # Static dependency schedule.  A source register written earlier
        # in the block depends on that writer's completion cycle; one
        # written before the block reads the global scoreboard.  Only
        # the final writer of each register is visible after the block.
        last_writer = {}
        final = {}
        flat = []
        for i, u in enumerate(uops):
            src = u.src1
            if src >= 0:
                dep1 = last_writer.get(src, -1)
                gsrc1 = src if dep1 < 0 else -1
            else:
                dep1 = gsrc1 = -1
            src = u.src2
            if src >= 0:
                dep2 = last_writer.get(src, -1)
                gsrc2 = src if dep2 < 0 else -1
            else:
                dep2 = gsrc2 = -1
            flat.append((u.type, u.lat, u.ports, u.mem_slot,
                         dep1, gsrc1, dep2, gsrc2))
            if u.dst1 >= 0:
                last_writer[u.dst1] = i
                final[u.dst1] = i
            if u.dst2 >= 0:
                last_writer[u.dst2] = i
                final[u.dst2] = i
        self.flat = tuple(flat)
        self.final_writes = tuple(final.items())

    def __repr__(self):
        return ("DecodedBBL(block=%d, %d uops, %d decode cycles)"
                % (self.block.bbl_id, self.num_uops, self.decode_cycles))


def _fuse_macro_ops(instructions):
    """Apply macro-op fusion: a CMP immediately followed by a conditional
    branch is decoded as a single µop, as on Westmere.

    Returns a list of (instruction, uop_count_hint, fused) entries where
    fused entries stand for the pair.
    """
    fused = []
    i = 0
    n = len(instructions)
    while i < n:
        instr = instructions[i]
        if (instr.opcode == Opcode.CMP and i + 1 < n
                and instructions[i + 1].opcode == Opcode.COND_BRANCH):
            fused.append((instr, instructions[i + 1]))
            i += 2
        else:
            fused.append((instr, None))
            i += 1
    return fused


def decode_bbl(block):
    """Decode a static basic block into a :class:`DecodedBBL`."""
    uops = []
    mem_slot = 0
    fused_pairs = 0
    decode_groups = _DecodeGroupTracker()

    for instr, fusee in _fuse_macro_ops(block.instructions):
        if fusee is not None:
            # Macro-fused compare+branch: one µop that reads the compare
            # sources and writes flags + rip.
            uop = Uop(UopType.BRANCH, instr.src1, instr.src2, RIP, RFLAGS,
                      lat=1, ports=PORTS_BRANCH)
            uops.append(uop)
            fused_pairs += 1
            decode_groups.add(1)
            continue
        instr_uops, slots = decode_instruction(instr, mem_slot)
        mem_slot += slots
        uops.extend(instr_uops)
        decode_groups.add(len(instr_uops))

    branch_uop_index = -1
    conditional = False
    if uops and uops[-1].type == UopType.BRANCH:
        branch_uop_index = len(uops) - 1
        last_instr = block.instructions[-1]
        conditional = (last_instr.opcode == Opcode.COND_BRANCH)

    predecode_cycles = -(-block.num_bytes // PREDECODE_BYTES_PER_CYCLE)
    decode_cycles = max(1, predecode_cycles, decode_groups.cycles)
    return DecodedBBL(block, uops, decode_cycles, branch_uop_index,
                      conditional, fused_pairs)


class _DecodeGroupTracker:
    """Packs decoded instructions into 4-1-1-1 decoder groups.

    Each cycle decodes at most :data:`DECODE_WIDTH` instructions; an
    instruction that emits more than one µop must occupy the first slot of
    a group, forcing a new group when it appears mid-group.
    """

    def __init__(self):
        self.cycles = 0
        self._slot = DECODE_WIDTH  # force a new group on first add

    def add(self, uop_count):
        complex_instr = uop_count > 1
        if self._slot >= DECODE_WIDTH or (complex_instr and self._slot != 0):
            self.cycles += 1
            self._slot = 0
        self._slot += 1
