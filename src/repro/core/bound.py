"""The bound phase: parallel zero-load simulation with an interval barrier.

Each interval, every core is simulated (with its attached thread) until
its cycle reaches the interval limit, assuming zero-load memory latencies
and recording weave traces.  The interval barrier provides the three
properties of Section 3.2.1:

1. *Skew limiting* — no core runs past the interval limit.
2. *Moderated parallelism* — at most ``host_threads`` cores are "awake"
   at once; finishing a core wakes the next (the host model measures the
   resulting makespan, see :mod:`repro.core.host`).
3. *No systematic bias* — the wake-up order is reshuffled every interval,
   which also injects the non-determinism that makes results robust.

Blocking syscalls integrate through join/leave: a blocked thread leaves
the barrier (its core can pick up other work or idle to the limit) and
joins again once runnable.
"""

from __future__ import annotations

import random
import time

from repro.cpu.base import RunOutcome
from repro.obs.tracer import TID_CORE
from repro.virt.scheduler import SyscallResult
from repro.virt.syscalls import GetTime, Syscall


class BoundPhase:
    """Drives all cores through one interval at a time."""

    def __init__(self, cores, scheduler, shuffle=True, seed=0,
                 telemetry=None):
        self.cores = cores
        self.scheduler = scheduler
        self.shuffle = shuffle
        self.rng = random.Random(seed)
        self._order = list(range(len(cores)))
        self.intervals = 0
        self.syscalls = 0
        self._telem = telemetry

    def attach_telemetry(self, telemetry):
        self._telem = telemetry

    def _trace_core_run(self, core_id, start_s, end_s):
        """Emit one bound-phase per-core span (telemetry attached only)."""
        telem = self._telem
        if telem.tracer is not None:
            telem.tracer.complete_raw(
                "core%d" % core_id, "bound", start_s, end_s,
                TID_CORE + core_id, {"interval": self.intervals})
        if telem.metrics is not None:
            telem.metrics.histogram("bound.core_run_us").record(
                int((end_s - start_s) * 1e6))

    def run_interval(self, limit_cycle, backend=None):
        """Simulate every core up to ``limit_cycle``.  Returns the list of
        (core_id, host_seconds) in wake-up order for the host model.

        This method decides *what* to run — the shuffled wake order and
        the second-chance passes — while ``backend`` (an
        :class:`repro.exec.backend.ExecutionBackend`) decides *how* each pass
        executes; ``None`` uses the inline reference pass.

        Cores whose thread blocks (or that start idle) are revisited
        after the first pass: threads woken mid-interval — by another
        core's futex wake, a released lock, a barrier, or a due sleep —
        rejoin the *current* interval on an idle core, like zsim's
        join/leave barrier.  Only cores still idle at the end of the
        interval skip to the limit.
        """
        self.intervals += 1
        order = self._order
        if self.shuffle:
            self.rng.shuffle(order)
        timings = []

        def run_pass(cores):
            if backend is None:
                return self.run_pass(cores, limit_cycle, timings)
            return backend.run_bound_pass(self, cores, limit_cycle,
                                          timings)

        outcomes = run_pass([self.cores[core_id] for core_id in order])
        idle = [core for core, ran in outcomes if not ran]
        # Second-chance passes: drain threads that became runnable
        # during this interval onto the idle cores.
        while idle:
            self.scheduler.wake_sleepers_until(limit_cycle)
            idle.sort(key=lambda c: c.cycle)
            outcomes = run_pass(idle)
            idle = [core for core, ran in outcomes if not ran]
            if len(idle) == len(outcomes):  # no progress
                break
        # Cores still idle keep their clocks frozen: they resume from a
        # thread's wake cycle when work appears, and the final cycle
        # count reflects work, not idle padding.
        return timings

    def run_pass(self, cores, limit_cycle, timings):
        """Inline reference executor for one bound pass: run ``cores``
        one after another in wake order on the calling thread.  Appends
        (core_id, host_seconds) to ``timings``; returns
        ``[(core, ran_to_limit)]``.  Backends that execute passes
        differently must preserve this effect order — cores share the
        scheduler and the memory hierarchy, so the order is simulated
        semantics, not an implementation detail."""
        telem = self._telem
        outcomes = []
        for core in cores:
            start = time.perf_counter()
            ran = self._run_core(core, limit_cycle)
            end = time.perf_counter()
            timings.append((core.core_id, end - start))
            if telem is not None:
                self._trace_core_run(core.core_id, start, end)
            outcomes.append((core, ran))
        return outcomes

    # ------------------------------------------------------------------

    def _run_core(self, core, limit_cycle):
        """Run one core toward the limit; returns True when the core
        consumed its interval (reached the limit), False when it went
        idle early — idle cores get second-chance passes so threads
        woken later in the interval can still run on them."""
        scheduler = self.scheduler
        core_id = core.core_id
        while core.cycle < limit_cycle:
            if not core.has_thread:
                thread = scheduler.pick_thread(core_id, core.cycle)
                if thread is None:
                    return False
                core.skip_to(thread.wake_cycle)
                core.attach(thread.stream)
            outcome = core.run_until(limit_cycle)
            if outcome == RunOutcome.LIMIT:
                return True
            thread = scheduler.deschedule(core_id, core.cycle)
            if outcome == RunOutcome.DONE:
                core.detach()
                if thread is not None:
                    scheduler.thread_done(thread)
                continue
            if outcome == RunOutcome.SYSCALL:
                self.syscalls += 1
                syscall = core.pending_syscall
                core.pending_syscall = None
                if not isinstance(syscall, Syscall):
                    syscall = GetTime()  # bare SYSCALL µop: non-blocking
                result = scheduler.handle_syscall(thread, syscall,
                                                  core.cycle)
                if result == SyscallResult.CONTINUE:
                    # Non-blocking syscalls appear instantaneous; keep
                    # running the same thread.
                    scheduler.reattach(core_id, thread)
                    continue
                # Blocked or exited: the thread leaves the barrier.
                core.detach()
                continue
            if outcome == RunOutcome.BLOCKED:
                return False
        return True

    def preempt(self, limit_cycle):
        """Round-robin preemption at the interval boundary."""
        for core in self.cores:
            if not core.has_thread:
                continue
            thread = self.scheduler.preempt_if_due(core.core_id, core.cycle)
            if thread is not None:
                core.detach()
