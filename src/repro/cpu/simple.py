"""Simple core model: IPC = 1 for everything but memory accesses.

The paper's fast model: "the timing model simply keeps a cycle count,
instruction count, and drives the memory hierarchy.  Instruction fetches,
loads, and stores are simulated at their appropriate cycles by calling
into the cache models, and their delays are accounted in the core's cycle
count."
"""

from __future__ import annotations

from repro.cpu.base import Core, RunOutcome, l1_probe


class SimpleCore(Core):
    """IPC1 core: one cycle per instruction plus memory latencies."""

    __slots__ = ("_cycle", "_last_fetch_line")

    def __init__(self, core_id, mem, config):
        super().__init__(core_id, mem, config)
        self._cycle = 0
        self._last_fetch_line = -1

    @property
    def cycle(self):
        return self._cycle

    issue_floor = cycle  # no access is stamped below the clock

    def run_until(self, limit_cycle):
        # Consumes only the flat schedule-once descriptor fields
        # (fetch_lines, mem_ops, has_syscall): no per-µop object walks.
        # L1 hits are served by the memory's probe, which is flushed on
        # every exit; the clock is written back before each
        # stream_next(), whose magic-op handlers read it.
        stream = self.stream
        if stream is None:
            return RunOutcome.BLOCKED
        stream_next = stream.__next__
        access = self._access
        trace_append = self.trace.append
        fetch_hit, data_hit, _, flush = l1_probe(self.mem, self.core_id)
        cycle = self._cycle
        last_line = self._last_fetch_line
        try:
            while cycle < limit_cycle:
                self._cycle = cycle
                try:
                    decoded, bbl_exec = stream_next()
                except StopIteration:
                    return RunOutcome.DONE
                block = decoded.block
                self.bbls += 1
                self.instrs += block.num_instrs
                self.uops += decoded.num_uops
                self.loads += decoded.num_loads
                self.stores += decoded.num_stores
                # Instruction fetch: one L1I access per new line touched.
                for line_addr in decoded.fetch_lines:
                    if line_addr != last_line:
                        last_line = line_addr
                        if fetch_hit(line_addr):
                            continue
                        result = access(line_addr, False, cycle, True)
                        if result.missed_levels:
                            cycle += result.latency
                        if result.steps or result.wbacks:
                            trace_append((cycle, result))
                # One cycle per instruction; misses add their latency.
                addrs = bbl_exec.addrs
                for mem_slot, write in decoded.mem_ops:
                    addr = addrs[mem_slot]
                    if data_hit(addr, write):
                        # A hit costs nothing beyond its instruction.
                        continue
                    result = access(addr, write, cycle)
                    # Data traces are stamped at the issue cycle, before
                    # the miss latency lands (ifetch stamps after).
                    if result.steps or result.wbacks:
                        trace_append((cycle, result))
                    if result.missed_levels:
                        cycle += result.latency
                cycle += block.num_instrs
                if decoded.has_syscall:
                    syscall = bbl_exec.syscall
                    if syscall is not None:
                        self.pending_syscall = syscall
                        return RunOutcome.SYSCALL
            return RunOutcome.LIMIT
        finally:
            self._cycle = cycle
            self._last_fetch_line = last_line
            flush()

    def integrity_items(self):
        yield from super().integrity_items()
        yield (self._cycle, self._last_fetch_line)

    def apply_delay(self, delay):
        if delay < 0:
            raise ValueError("Weave delay must be >= 0, got %d" % delay)
        self._cycle += delay

    def skip_to(self, cycle):
        if cycle > self._cycle:
            self._cycle = cycle
