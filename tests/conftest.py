"""Shared test fixtures and builders."""

from __future__ import annotations

from bisect import bisect_right

import pytest

from repro.config import small_test_system
from repro.core.weave import WeaveEngine
from repro.isa.opcodes import Opcode
from repro.isa.program import BBLExec, Instruction, Program
from repro.isa.registers import gp
from repro.memory.access import AccessRecord
from repro.memory.cache_array import _NO_LINES
from repro.memory.coherence import MESI
from repro.resilience.checkpoint import checkpoints

from reference_walk import prefetch as reference_prefetch


def build_program(num_blocks=1, body=None):
    """A tiny program of ``num_blocks`` identical ALU blocks."""
    program = Program("test")
    body = body or [
        Instruction(Opcode.ALU, gp(1), gp(2), gp(1)),
        Instruction(Opcode.ALU, gp(3), gp(4), gp(3)),
        Instruction(Opcode.CMP, gp(1), gp(5)),
        Instruction(Opcode.COND_BRANCH),
    ]
    for _ in range(num_blocks):
        program.add_block(list(body))
    return program


def mem_block(program=None, loads=1, stores=1):
    """A block with ``loads`` LOADs and ``stores`` STOREs."""
    program = program or Program("mem")
    instrs = []
    for i in range(loads):
        instrs.append(Instruction(Opcode.LOAD, gp(14), dst1=gp(2 + i % 8)))
    for i in range(stores):
        instrs.append(Instruction(Opcode.STORE, gp(14), gp(2 + i % 8)))
    return program.add_block(instrs)


def alu_block(program=None, count=4, dependent=False):
    """``count`` ALU instructions, independent or one dependency chain."""
    program = program or Program("alu")
    instrs = []
    for i in range(count):
        reg = gp(2) if dependent else gp(2 + i % 10)
        instrs.append(Instruction(Opcode.ALU, reg, gp(1), dst1=reg))
    return program.add_block(instrs)


def stream_of(block, addr_lists=None, count=None, taken=True):
    """Turn a block into a BBLExec stream."""
    if addr_lists is not None:
        for addrs in addr_lists:
            yield BBLExec(block, tuple(addrs), taken=taken)
    else:
        for _ in range(count or 1):
            yield BBLExec(block, (), taken=taken)


def reference_access(hier, core_id, addr, write, cycle=0, ifetch=False):
    """``MemoryHierarchy.access`` as the reference model: no inline L1
    hit, every access and prefetch fill down the recursive walk of
    ``reference_walk`` (build ``hier`` from its classes).  Tests install
    it in place of the shipped ``access`` to prove the fast path and
    the flat walk invisible in simulated results."""
    line = addr >> hier.line_bits
    l1 = hier.l1i[core_id] if ifetch else hier.l1d[core_id]
    result = AccessRecord(core_id, line, write)
    l1.handle_access(line, write, None, result)
    if hier.prefetchers and not ifetch and "l1d" in result.missed_levels:
        reference_prefetch(hier, core_id, line, result)
    hier.access_latency.record(result.latency)
    if hier.profiler is not None:
        hier.profiler.record(result, cycle)
    return result


def fill(array, line, state):
    """Insert ``line`` into ``array`` (a ``CacheArray``); returns
    (victim_line, victim_state) if an eviction was needed, else
    (None, None).  The shipped walk inlines this; tests and the
    recursive reference walk fill through it."""
    idx = array.set_index(line)
    lines = array._lines[idx]
    if lines is _NO_LINES:
        lines = array._materialise(idx)
    elif line in lines:
        raise ValueError("fill() of already-present line 0x%x" % line)
    policy = None if array._repl is None else array._repl[idx]
    victim_line = victim_state = None
    if array._free[idx]:
        array._free[idx] -= 1
        if policy is not None:
            policy.fill(line)
    else:
        # LRU: the set's first line is its least recent.
        victim_line = (next(iter(lines)) if policy is None
                       else policy.replace(line))
        victim_state = lines.pop(victim_line)
    lines[line] = state
    return victim_line, victim_state


def would_evict(array, line):
    """Line that filling ``line`` into ``array`` (a ``CacheArray``)
    would evict right now, or None; mutates nothing but a ``random``
    policy's RNG."""
    idx = array.set_index(line)
    lines = array._lines[idx]
    if line in lines or array._free[idx]:
        return None
    if array._repl is None:
        return next(iter(lines))
    policy = array._repl[idx]
    return policy._way_line[policy.victim()]


class JournalWeaveEngine(WeaveEngine):
    """A weave engine whose reference executor records ``(component,
    kind, min_cycle, start, done, core_id)`` per executed event — the
    Figure 4 trace.  Only the reference runs events one at a time, so
    run intervals through ``executor=engine._scan``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.journal = []

    def _run_event(self, domain, cycle, event):
        super()._run_event(domain, cycle, event)
        self.journal.append((event.component.name, event.kind,
                             event.min_cycle, max(cycle, event.ready),
                             event.done, event.core_id))


def busy_at(timeline, cycle):
    """Whether ``timeline`` is busy at ``cycle`` (end-exclusive)."""
    idx = bisect_right(timeline._starts, cycle)
    return idx > 0 and timeline._ends[idx - 1] > cycle


def recursive_walk(cache, line, write, ctx, idx, entry):
    """Stand-in for ``MemoryHierarchy._walk_access`` (install with
    ``staticmethod`` on a hierarchy of ``reference_walk`` classes): the
    shipped fast path and prefetch entry stay live and only the walk
    beneath them is the recursive reference.  Like the shipped walk it
    starts at ``cache`` with that level's access already charged."""
    return cache.serve(line, write, None, ctx, entry is not None,
                       ctx.latency - cache.latency)


def latest(directory):
    """Path of the highest-interval checkpoint in ``directory``, or
    None when there is none."""
    found = checkpoints(directory)
    return found[0][1] if found else None


def unfired(plan):
    """The faults of a ``FaultPlan`` that have not fired (a test that
    covers its whole fault matrix asserts this is empty)."""
    return [fault for fault in plan.faults if not fault.fired]


def occupancy(array):
    """Total resident lines of a ``CacheArray``."""
    return sum(len(lines) for lines in array._lines)


def line_state(cache, line):
    """MESI state of ``line`` in ``cache`` (MESI.I if absent); no LRU
    touch."""
    state = cache.array.lookup(line, touch=False)
    return MESI.I if state is None else state


def sharers_of(cache, line):
    """Children of ``cache`` (or main memory) sharing ``line``, as a set
    of objects: the bitmask directory decoded."""
    mask = cache._sharers.get(line, 0)
    return {child for idx, child in enumerate(cache.children)
            if mask >> idx & 1}


def is_exclusive(state):
    """True if the state grants write permission without upgrade."""
    return state in (MESI.E, MESI.M)


def check_single_writer(states):
    """At most one copy in M/E, and if one exists no other copy:
    ``states`` are the MESI states of one line's copies at one level.
    Returns True when legal."""
    states = [s for s in states if s != MESI.I]
    exclusive = sum(1 for s in states if is_exclusive(s))
    return exclusive == 0 or (exclusive == 1 and len(states) == 1)


def reference_check_coherence(hier):
    """``MemoryHierarchy.check_coherence`` line by line: every L1 copy
    grouped by line, then by core, judged by :func:`check_single_writer`
    on each core's strongest state."""
    lines = {}
    for cache in list(hier.l1i) + list(hier.l1d):
        for line, state in cache.array.resident_lines():
            lines.setdefault(line, []).append((cache.name, state))
    violations = []
    for line, copies in lines.items():
        by_core = {}
        for name, state in copies:
            by_core.setdefault(name.split("-")[1], []).append(state)
        if not check_single_writer([max(v) for v in by_core.values()]):
            violations.append((line, copies))
    return violations


def reference_check_inclusion(hier):
    """``MemoryHierarchy.check_inclusion`` line by line: every resident
    line routed to its parent as the walk does and looked up there."""
    violations = []
    for cache in hier.all_caches():
        for line, _state in cache.array.resident_lines():
            parent, _ = cache.parent_select(line)
            if parent is not hier.mainmem \
                    and line_state(parent, line) == MESI.I:
                violations.append((cache.name, parent.name, line))
    return violations


@pytest.fixture
def tiny_config():
    return small_test_system(num_cores=4, core_model="simple")


@pytest.fixture
def tiny_ooo_config():
    return small_test_system(num_cores=2, core_model="ooo")
