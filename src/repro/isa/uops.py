"""Micro-operation (µop) representation.

ZSim decodes each x86 instruction into µops *at instrumentation time* and
stores them in a format optimized for the timing model: type, source and
destination registers, latency, and a mask of the execution ports the µop
may issue to (Figure 1 of the paper).  This module defines that format.

Port assignments follow the Westmere execution engine that zsim models:

======  =======================================
Port    Units
======  =======================================
0       ALU, shift, FP multiply, divide
1       ALU, FP add, LEA
2       Load
3       Store address
4       Store data
5       ALU, branch
======  =======================================
"""

from __future__ import annotations

from repro.isa.registers import NO_REG, reg_name


class UopType:
    """Enumeration of µop types consumed by the core timing models."""

    EXEC = 0        # generic execution µop (ALU, FP, ...)
    LOAD = 1
    STORE_ADDR = 2
    STORE_DATA = 3
    BRANCH = 4      # conditional or indirect control flow
    FENCE = 5       # memory fence: serializes the load-store unit
    SYSCALL = 6     # transfers control to the (virtualized) kernel
    MAGIC = 7       # magic op: simulator control, executes as a NOP

    NAMES = {
        EXEC: "exec",
        LOAD: "load",
        STORE_ADDR: "staddr",
        STORE_DATA: "stdata",
        BRANCH: "branch",
        FENCE: "fence",
        SYSCALL: "syscall",
        MAGIC: "magic",
    }


NUM_PORTS = 6

# Port bit masks.
P0 = 1 << 0
P1 = 1 << 1
P2 = 1 << 2
P3 = 1 << 3
P4 = 1 << 4
P5 = 1 << 5

PORTS_ALU = P0 | P1 | P5
PORTS_FP_ADD = P1
PORTS_FP_MUL = P0
PORTS_DIV = P0
PORTS_LOAD = P2
PORTS_STORE_ADDR = P3
PORTS_STORE_DATA = P4
PORTS_BRANCH = P5
PORTS_AGU = P1 | P5  # LEA-style address computation


def port_list(mask):
    """Expand a port mask into the list of port indices it allows."""
    return [p for p in range(NUM_PORTS) if mask & (1 << p)]


class Uop:
    """A single µop in the decoded-BBL descriptor.

    Instances are created once per *static* µop by the decoder and shared
    by every dynamic execution, so they are immutable by convention.
    """

    __slots__ = ("type", "src1", "src2", "dst1", "dst2", "lat", "ports",
                 "mem_slot")

    def __init__(self, type, src1=NO_REG, src2=NO_REG, dst1=NO_REG,
                 dst2=NO_REG, lat=1, ports=PORTS_ALU, mem_slot=-1):
        self.type = type
        self.src1 = src1
        self.src2 = src2
        self.dst1 = dst1
        self.dst2 = dst2
        self.lat = lat
        self.ports = ports
        #: Index into the dynamic address list of the executing basic
        #: block for LOAD / STORE_ADDR / STORE_DATA µops; -1 otherwise.
        self.mem_slot = mem_slot

    @property
    def is_mem(self):
        return self.mem_slot >= 0

    def __repr__(self):
        fields = [UopType.NAMES[self.type],
                  "src=%s,%s" % (reg_name(self.src1), reg_name(self.src2)),
                  "dst=%s,%s" % (reg_name(self.dst1), reg_name(self.dst2)),
                  "lat=%d" % self.lat,
                  "ports=%s" % port_list(self.ports)]
        if self.is_mem:
            fields.append("mem_slot=%d" % self.mem_slot)
        return "Uop(%s)" % ", ".join(fields)
