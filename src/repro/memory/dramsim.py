"""A DRAMSim2-like cycle-driven DRAM model, plus weave-phase glue.

The paper integrates zsim with DRAMSim2 ("110 lines of glue code") to
show that existing cycle-driven timing models drop into the weave phase
unmodified — at a simulation-speed cost, since cycle-driven models tick
every cycle.  We reproduce that with an independent cycle-driven DRAM
implementation: an *open-page* FCFS controller (DRAMSim2's default
policy, deliberately different from our native closed-page model) whose
internal state advances one memory cycle at a time.

:class:`DRAMSimWeave` is the glue: it adapts the tick-based model to the
weave component interface in a few dozen lines, mirroring the paper's
integration.
"""

from __future__ import annotations

from repro.memory.access import StepKind
from repro.memory.weave import WeaveComponent


class _Bank:
    __slots__ = ("open_row", "ready_at", "precharged_at")

    def __init__(self):
        self.open_row = None
        self.ready_at = 0        # mem cycle the bank can accept a command
        self.precharged_at = 0


class CycleDrivenDRAM:
    """Open-page, FCFS, cycle-driven DRAM channel model.

    All times are in memory-bus cycles.  Requests are processed strictly
    in order (FCFS); the model is advanced with :meth:`tick`, one cycle at
    a time, exactly like DRAMSim2's update loop.
    """

    BURST_CYCLES = 4

    def __init__(self, timing):
        self.t = timing
        self.num_banks = timing.banks_per_rank * timing.ranks_per_channel
        self.banks = [_Bank() for _ in range(self.num_banks)]
        self.now = 0
        self._queue = []            # (req_id, bank, row) FCFS order
        self._done = {}             # req_id -> completion mem cycle
        self._next_req_id = 0
        self._data_bus_free = 0
        self.row_hits = 0
        self.row_misses = 0

    def enqueue(self, bank, row):
        """Add a request; returns a request id to poll for completion."""
        req_id = self._next_req_id
        self._next_req_id += 1
        self._queue.append((req_id, bank % self.num_banks, row))
        return req_id

    def completed(self, req_id):
        """Completion cycle of a finished request, else None."""
        return self._done.get(req_id)

    def tick(self):
        """Advance one memory cycle, issuing the head request if its bank
        and the data bus allow (FCFS: later requests never bypass)."""
        self.now += 1
        if not self._queue:
            return
        req_id, bank_idx, row = self._queue[0]
        bank = self.banks[bank_idx]
        t = self.t
        if bank.ready_at > self.now or self._data_bus_free > self.now:
            return
        if bank.open_row == row:
            # Row hit: CAS only.
            self.row_hits += 1
            done = self.now + t.tCL + self.BURST_CYCLES
            bank.ready_at = self.now + t.tCCD
        elif bank.open_row is None:
            # Bank precharged: ACT + CAS.
            self.row_misses += 1
            done = self.now + t.tRCD + t.tCL + self.BURST_CYCLES
            bank.open_row = row
            bank.ready_at = self.now + t.tRCD + t.tCCD
        else:
            # Row conflict: PRE + ACT + CAS.
            self.row_misses += 1
            done = self.now + t.tRP + t.tRCD + t.tCL + self.BURST_CYCLES
            bank.open_row = row
            bank.ready_at = self.now + t.tRP + t.tRCD + t.tCCD
        self._data_bus_free = done
        self._done[req_id] = done
        self._queue.pop(0)

    def run_until_done(self, req_id, max_cycles=1_000_000):
        """Tick until ``req_id`` completes; returns its completion cycle."""
        for _ in range(max_cycles):
            done = self._done.get(req_id)
            if done is not None:
                return done
            self.tick()
        raise RuntimeError("DRAM request never completed")


class DRAMSimWeave(WeaveComponent):
    """Weave-phase glue around :class:`CycleDrivenDRAM`.

    Converts core cycles to memory cycles, feeds the cycle-driven model,
    and ticks it forward until the request completes — the direct
    analogue of zsim's DRAMSim2 glue.
    """

    def __init__(self, name, mem_config, core_mhz, tile=0):
        super().__init__(name, tile)
        self.cfg = mem_config
        self.ratio = max(1.0, core_mhz / mem_config.bus_mhz)
        self.channels = mem_config.channels_per_controller
        self.drams = [CycleDrivenDRAM(mem_config.timing)
                      for _ in range(self.channels)]
        t = mem_config.timing
        zero_load_mem = t.tRCD + t.tCL + CycleDrivenDRAM.BURST_CYCLES
        self.overhead = max(0, mem_config.zero_load_latency
                            - int(round(zero_load_mem * self.ratio)))

    def occupy(self, cycle, kind, line=0):
        self.events_executed += 1
        dram = self.drams[(line >> 4) % self.channels]
        mem_cycle = int(cycle / self.ratio)
        # Catch the model up to the arrival cycle (draining older work).
        while dram.now < mem_cycle:
            dram.tick()
        bank = (line >> 1) % dram.num_banks
        row = line >> 7
        issue_mem = dram.now
        req = dram.enqueue(bank, row)
        done_mem = dram.run_until_done(req)
        # Charge the request the service time it measured *inside* the
        # model, relative to its own arrival: events from differently
        # delayed cores arrive out of strict order, and the model's
        # monotone clock must not leak absolute skew into latencies.
        service = int(round((done_mem - issue_mem) * self.ratio))
        if kind == StepKind.WBACK:
            return cycle + max(0, service)
        return cycle + max(0, service) + self.overhead

    def zero_load_service(self, kind):
        if kind == StepKind.WBACK:
            return int(round(CycleDrivenDRAM.BURST_CYCLES * self.ratio))
        return self.cfg.zero_load_latency
