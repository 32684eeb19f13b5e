"""Instruction-driven out-of-order core model (the paper's Figure 1).

The model closely follows the Westmere microarchitecture the paper
validates against: branch prediction with fixed-penalty recovery,
instruction fetch with L1I misses, length-predecoder and 4-1-1-1 decoder
stalls (precomputed per block by the decoder), macro-op fusion, limited
issue width, dataflow execution with a register scoreboard, exact µop
port masks and latencies with functional-unit (port) contention, a
load-store unit with store-to-load forwarding, TSO store ordering and
fences, and a reorder buffer of limited size and width.

It is *instruction-driven*: the core model is called once per µop and
simulates all stages for that µop by advancing per-stage clocks
(fetch / decode / issue / retire), rather than maintaining per-cycle
pipeline state.  Interdependencies between stage clocks (ROB fill, issue
stalls, mispredictions, I-cache misses) keep the timing honest.

Deliberate simplifications, matching the paper: wrong-path instructions
are not executed (only their fetch penalty is modeled, since Westmere
recovers in a fixed number of cycles); there is no BTB model
(unconditional branches never mispredict); stores access the memory
system at their store-address execution cycle.
"""

from __future__ import annotations

from collections import deque

from repro.cpu.base import Core, RunOutcome, l1_probe
from repro.cpu.bpred import BranchPredictor
from repro.isa.registers import NUM_REGS
from repro.isa.uops import UopType

# Flat dispatch constants: locals in the inner loop resolve faster than
# class-attribute lookups per µop.
_EXEC = UopType.EXEC
_LOAD = UopType.LOAD
_STORE_ADDR = UopType.STORE_ADDR
_BRANCH = UopType.BRANCH
_FENCE = UopType.FENCE
_SYSCALL = UopType.SYSCALL


class OOOCore(Core):
    """Westmere-class OOO core with instruction-driven timing."""

    __slots__ = ("bpred", "_fetch_clock", "_decode_clock", "_issue_clock",
                 "_issue_slots", "_retire_clock", "_retire_slots",
                 "_scoreboard", "_ports_used", "_rob", "_window",
                 "_store_buffer", "_store_order", "_load_releases",
                 "_last_store_cycle", "_last_mem_done", "_fence_cycle",
                 "_line_bytes", "_last_fetch_line", "_mispredict_resume",
                 "_lsd_recent", "lsd_streams", "cond_branches",
                 "mispredicts", "forwarded_loads", "wrong_path_fetches",
                 "debug_trace")

    def __init__(self, core_id, mem, config):
        super().__init__(core_id, mem, config)
        self.bpred = BranchPredictor(config.bpred)
        self._fetch_clock = 0
        self._decode_clock = 0
        self._issue_clock = 0
        self._issue_slots = 0       # µops issued at _issue_clock
        self._retire_clock = 0
        self._retire_slots = 0
        self._scoreboard = [0] * NUM_REGS
        # Execution ports: cycle -> used-port mask; a µop lands at the
        # first cycle >= its dispatch with a free port in its mask.
        self._ports_used = {}
        # Rings sized by the hardware they model: full <=> len == size,
        # the head is [0], and append() on a full ring evicts it.
        self._rob = deque(maxlen=config.rob_size)   # retire cycles
        self._window = deque(                       # exec cycles
            maxlen=config.issue_window_size)
        self._store_buffer = {}     # word addr -> data ready cycle
        self._store_order = deque(                  # (word, done), SQ
            maxlen=config.store_queue_size)
        self._load_releases = deque(                # load done cycles, LQ
            maxlen=config.load_queue_size)
        self._last_store_cycle = 0  # TSO: stores execute in order
        self._last_mem_done = 0     # completion of latest memory op
        self._fence_cycle = 0
        self._line_bytes = 64
        self._last_fetch_line = -1
        self._mispredict_resume = 0
        self._lsd_recent = []       # (bbl_id, uops) of recent blocks
        self.lsd_streams = 0
        self.cond_branches = 0
        self.mispredicts = 0
        self.forwarded_loads = 0
        self.wrong_path_fetches = 0
        #: When set to a list, every µop appends a
        #: (dispatch, exec, done, retire) tuple — used by pipeline
        #: invariant tests; None (default) costs nothing.
        self.debug_trace = None

    # ------------------------------------------------------------------

    @property
    def cycle(self):
        return self._retire_clock

    def apply_delay(self, delay):
        if delay < 0:
            raise ValueError("Weave delay must be >= 0, got %d" % delay)
        self._fetch_clock += delay
        self._decode_clock += delay
        self._issue_clock += delay
        self._retire_clock += delay

    def skip_to(self, cycle):
        for attr in ("_fetch_clock", "_decode_clock", "_issue_clock",
                     "_retire_clock"):
            if getattr(self, attr) < cycle:
                setattr(self, attr, cycle)

    def integrity_items(self):
        # Stage clocks, the register scoreboard, LSU ordering state, and
        # the speculation counters.  The port window and ROB/window
        # rings are derived timing caches — large and redundant with the
        # clocks — so they stay out of the digest.
        yield from super().integrity_items()
        yield (self._fetch_clock, self._decode_clock, self._issue_clock,
               self._issue_slots, self._retire_clock, self._retire_slots,
               self._last_store_cycle, self._last_mem_done,
               self._fence_cycle, self._mispredict_resume,
               self._last_fetch_line)
        yield tuple(self._scoreboard)
        yield (len(self._store_buffer), len(self._store_order),
               len(self._load_releases), self.cond_branches,
               self.mispredicts, self.forwarded_loads,
               self.wrong_path_fetches, self.lsd_streams)

    def _prune_ports(self, horizon):
        """Forget port occupancy below ``horizon``."""
        self._ports_used = {c: m for c, m in self._ports_used.items()
                            if c >= horizon}

    # ------------------------------------------------------------------

    def run_until(self, limit_cycle):
        stream = self.stream
        if stream is None:
            return RunOutcome.BLOCKED
        stream_next = stream.__next__
        simulate_bbl = self._simulate_bbl
        probe = l1_probe(self.mem, self.core_id)
        flush = probe[3]
        try:
            while self._retire_clock < limit_cycle:
                try:
                    decoded, bbl_exec = stream_next()
                except StopIteration:
                    return RunOutcome.DONE
                syscall = simulate_bbl(decoded, bbl_exec, probe)
                if syscall is not None:
                    self.pending_syscall = syscall
                    return RunOutcome.SYSCALL
            return RunOutcome.LIMIT
        finally:
            flush()
            # Every later µop executes at or after its dispatch, which
            # is at or after the issue clock: older occupancy is dead.
            self._prune_ports(self._issue_clock)

    # ------------------------------------------------------------------

    def _simulate_bbl(self, decoded, bbl_exec, probe):
        # The inner loop consumes the flat schedule-once descriptor
        # (decoded.flat + the static dependency schedule) with every hot
        # name bound to a local.  Stage clocks live in locals and are
        # written back at the end; a fault mid-block ends the run, and a
        # resume restarts from a barrier capsule, never from this core.
        # L1 hits are served by ``probe`` (see cpu.base.l1_probe).
        block = decoded.block
        num_uops = decoded.num_uops
        config = self.config
        self.bbls += 1
        self.instrs += block.num_instrs
        self.uops += num_uops
        self.loads += decoded.num_loads
        self.stores += decoded.num_stores

        # Loop stream detector: a tight loop (the same small block
        # repeating) replays µops from the queue, skipping fetch and
        # decode entirely.
        lsd_hit = False
        if config.loop_stream_detector:
            recent = self._lsd_recent
            # The loop body is everything since the previous occurrence
            # of this block; it streams if it fits the µop queue.
            for idx in range(len(recent) - 1, -1, -1):
                if recent[idx][0] == block.bbl_id:
                    loop_uops = (sum(u for _b, u in recent[idx + 1:])
                                 + num_uops)
                    if loop_uops <= config.lsd_max_uops:
                        lsd_hit = True
                        self.lsd_streams += 1
                    break
            recent.append((block.bbl_id, num_uops))
            if len(recent) > 4:
                del recent[0]

        access = self._access
        trace_append = self.trace.append
        fetch_hit, data_hit, d_lat, _ = probe

        # (1) IFetch + BPred: adjust fetchClock.
        fetch = self._fetch_clock
        if self._mispredict_resume > fetch:
            fetch = self._mispredict_resume
            lsd_hit = False  # mispredicts flush the µop queue
        self._mispredict_resume = 0
        if not lsd_hit:
            last_line = self._last_fetch_line
            for line_addr in decoded.fetch_lines:
                if line_addr != last_line:
                    last_line = line_addr
                    if fetch_hit(line_addr):
                        continue
                    result = access(line_addr, False, fetch, True)
                    if result.missed_levels:
                        fetch += result.latency
                    if result.steps or result.wbacks:
                        trace_append((fetch, result))
            self._last_fetch_line = last_line
        self._fetch_clock = fetch

        # (2.1) Decoder stalls: adjust decodeClock (skipped when the
        # LSD streams the loop from the µop queue).
        decode = self._decode_clock + 1
        if decode < fetch + 1:
            decode = fetch + 1
        if not lsd_hit:
            decode += decoded.decode_cycles - 1
        self._decode_clock = decode

        syscall = None
        addrs = bbl_exec.addrs
        sb = self._scoreboard
        issue_width = config.issue_width
        retire_width = config.retire_width
        rob_size = config.rob_size
        window_size = config.issue_window_size
        load_queue_size = config.load_queue_size
        store_queue_size = config.store_queue_size
        # Port occupancy, inlined: the dict and its getter live in
        # locals shared by every schedule site below.
        ports_used = self._ports_used
        ports_used_get = ports_used.get
        rob = self._rob
        rob_append = rob.append
        window = self._window
        window_append = window.append
        store_buffer = self._store_buffer
        store_order = self._store_order
        releases = self._load_releases
        last_store = self._last_store_cycle
        last_mem_done = self._last_mem_done
        fence_cycle = self._fence_cycle
        issue_clock = self._issue_clock
        issue_slots = self._issue_slots
        retire_clock = self._retire_clock
        retire_slots = self._retire_slots
        debug_trace = self.debug_trace
        conditional = decoded.conditional
        done_cycles = []
        done_append = done_cycles.append

        if issue_clock < decode:
            issue_clock = decode
            issue_slots = 0

        for utype, lat, portmask, mem_slot, dep1, gsrc1, dep2, gsrc2 \
                in decoded.flat:
            # (2.3) Issue width: adjust issueClock.
            if issue_slots >= issue_width:
                issue_clock += 1
                issue_slots = 0
            issue_slots += 1
            dispatch = issue_clock
            if dispatch < decode:
                dispatch = decode

            # ROB capacity: stall issue until the head-of-line µop
            # retires when the ROB is full.
            if len(rob) == rob_size:
                head_retire = rob[0]
                if head_retire > dispatch:
                    dispatch = head_retire
                    issue_clock = head_retire
                    issue_slots = 1

            # Issue-window capacity: oldest unexecuted µop must leave.
            if len(window) == window_size:
                head_exec = window[0]
                if head_exec > dispatch:
                    dispatch = head_exec

            # (2.2) Minimum execution cycle from the static dependency
            # schedule: in-block producers by index, pre-block values
            # from the global scoreboard.
            exec_min = dispatch
            if dep1 >= 0:
                ready = done_cycles[dep1]
                if ready > exec_min:
                    exec_min = ready
            elif gsrc1 >= 0:
                ready = sb[gsrc1]
                if ready > exec_min:
                    exec_min = ready
            if dep2 >= 0:
                ready = done_cycles[dep2]
                if ready > exec_min:
                    exec_min = ready
            elif gsrc2 >= 0:
                ready = sb[gsrc2]
                if ready > exec_min:
                    exec_min = ready

            # (2.4) Execute: schedule on a compatible free port; EXEC
            # (the most common µop) is tested first, and the load/store
            # unit is inlined (it is ~a third of all µops).
            if utype == _EXEC:
                exec_cycle = exec_min
                occ = ports_used_get(exec_cycle, 0)
                free = portmask & ~occ
                while not free:
                    exec_cycle += 1
                    occ = ports_used_get(exec_cycle, 0)
                    free = portmask & ~occ
                ports_used[exec_cycle] = occ | (free & -free)
                done = exec_cycle + lat
            elif utype == _LOAD:
                addr = addrs[mem_slot]
                if fence_cycle > exec_min:
                    exec_min = fence_cycle
                # Load-queue capacity.
                if len(releases) == load_queue_size:
                    head = releases[0]
                    if head > exec_min:
                        exec_min = head
                exec_cycle = exec_min
                occ = ports_used_get(exec_cycle, 0)
                free = portmask & ~occ
                while not free:
                    exec_cycle += 1
                    occ = ports_used_get(exec_cycle, 0)
                    free = portmask & ~occ
                ports_used[exec_cycle] = occ | (free & -free)
                ready = store_buffer.get(addr >> 3)
                if ready is not None:
                    # Store-to-load forwarding: bypass the memory system.
                    self.forwarded_loads += 1
                    done = (exec_cycle if exec_cycle >= ready
                            else ready) + 1
                elif data_hit(addr):
                    done = exec_cycle + d_lat
                else:
                    result = access(addr, False, exec_cycle)
                    if result.steps or result.wbacks:
                        trace_append((exec_cycle, result))
                    done = exec_cycle + result.latency
                releases.append(done)
                if done > last_mem_done:
                    last_mem_done = done
            elif utype == _STORE_ADDR:
                addr = addrs[mem_slot]
                if fence_cycle > exec_min:
                    exec_min = fence_cycle
                # TSO: stores execute in program order.
                if last_store > exec_min:
                    exec_min = last_store
                # Store-queue capacity.
                if len(store_order) == store_queue_size:
                    word_old, done_old = store_order[0]
                    if store_buffer.get(word_old) == done_old:
                        del store_buffer[word_old]
                    if done_old > exec_min:
                        exec_min = done_old
                exec_cycle = exec_min
                occ = ports_used_get(exec_cycle, 0)
                free = portmask & ~occ
                while not free:
                    exec_cycle += 1
                    occ = ports_used_get(exec_cycle, 0)
                    free = portmask & ~occ
                ports_used[exec_cycle] = occ | (free & -free)
                last_store = exec_cycle
                done = exec_cycle + (lat if lat > 1 else 1)
                if data_hit(addr, True):
                    avail = done + d_lat
                else:
                    result = access(addr, True, exec_cycle)
                    if result.steps or result.wbacks:
                        trace_append((exec_cycle, result))
                    avail = done + result.latency
                if avail > last_mem_done:
                    last_mem_done = avail
                word = addr >> 3
                store_buffer[word] = avail
                store_order.append((word, avail))
            else:
                if utype == _FENCE:
                    # A full fence orders *all* prior memory operations.
                    if last_store > exec_min:
                        exec_min = last_store
                    if last_mem_done > exec_min:
                        exec_min = last_mem_done
                exec_cycle = exec_min
                occ = ports_used_get(exec_cycle, 0)
                free = portmask & ~occ
                while not free:
                    exec_cycle += 1
                    occ = ports_used_get(exec_cycle, 0)
                    free = portmask & ~occ
                ports_used[exec_cycle] = occ | (free & -free)
                done = exec_cycle + lat
                if utype == _FENCE:
                    fence_cycle = done
                elif utype == _SYSCALL:
                    syscall = bbl_exec.syscall or True
                elif utype == _BRANCH and conditional:
                    self.cond_branches += 1
                    correct = self.bpred.predict_and_update(
                        block.address, bbl_exec.taken)
                    if not correct:
                        self.mispredicts += 1
                        self._mispredict_resume = (
                            exec_cycle + self.bpred.mispredict_penalty)
                        if config.wrong_path_fetch:
                            self._fetch_wrong_path(block, bbl_exec,
                                                   exec_cycle, fetch_hit)

            # (2.6) Completion cycle, read back by in-block dependents.
            done_append(done)
            window_append(exec_cycle)

            # (2.7) Retire: account ROB width, adjust retireClock.
            retire = done + 1
            if retire <= retire_clock:
                retire = retire_clock
                retire_slots += 1
                if retire_slots >= retire_width:
                    retire_clock += 1
                    retire_slots = 0
            else:
                retire_clock = retire
                retire_slots = 1
            rob_append(retire)
            if debug_trace is not None:
                debug_trace.append((dispatch, exec_cycle, done, retire))

        # Scoreboard writeback from the static schedule: only each
        # register's final in-block writer is visible to later blocks.
        for reg, idx in decoded.final_writes:
            sb[reg] = done_cycles[idx]

        self._last_store_cycle = last_store
        self._last_mem_done = last_mem_done
        self._fence_cycle = fence_cycle
        self._issue_clock = issue_clock
        self._issue_slots = issue_slots
        self._retire_clock = retire_clock
        self._retire_slots = retire_slots
        return syscall

    def _fetch_wrong_path(self, block, bbl_exec, branch_cycle, fetch_hit):
        """A misprediction fetched down the wrong path until the branch
        resolved: touch the first line of the *not-followed* target,
        polluting the I-cache (wrong-path instructions never execute,
        matching the paper).  An L1I hit is served by ``fetch_hit``."""
        # The path actually followed is bbl_exec.next_address; the wrong
        # path is the other side of the branch.
        if bbl_exec.taken:
            wrong = block.end_address       # fall-through not taken
        else:
            wrong = bbl_exec.next_address + block.num_bytes
        line_addr = wrong & ~(self._line_bytes - 1)
        self.wrong_path_fetches += 1
        if fetch_hit(line_addr):
            return
        result = self.mem.access(self.core_id, line_addr, False,
                                 branch_cycle, ifetch=True)
        # Wrong-path fetch latency is hidden by the recovery penalty;
        # only the cache-state side effects persist.
        if result.steps or result.wbacks:
            self.trace.append((branch_cycle, result))

    # ------------------------------------------------------------------

    def fill_stats(self, node):
        super().fill_stats(node)
        node.set("cond_branches", self.cond_branches)
        node.set("mispredicts", self.mispredicts)
        node.set("forwarded_loads", self.forwarded_loads)
        node.set("wrong_path_fetches", self.wrong_path_fetches)
        node.set("lsd_streams", self.lsd_streams)
