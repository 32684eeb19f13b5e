"""Round-robin user-level scheduler with affinities and futex semantics.

Implements the paper's scheduler (Section 3.3): applications may launch
more threads than simulated cores; a round-robin scheduler with
per-thread affinities time-multiplexes them.  Blocking syscalls *leave*
the interval barrier (their core can run another thread or idle) and
*join* when they complete, avoiding simulator-OS deadlock.

All decisions are made in simulated (bound-phase) cycles, so scheduling
is deterministic for a given workload and configuration.

Execution backends may run bound-phase cores on worker threads (see
:mod:`repro.exec`); every mutating entry point therefore takes the
scheduler lock so a thread handoff (syscall, wake, preemption,
deschedule) is atomic even when the caller is not the engine's driver
thread.  The backends' ordered core handoff keeps the *order* of these
calls serial-equivalent; the lock keeps each call internally consistent
on free-threaded hosts.
"""

from __future__ import annotations

import threading

from collections import deque

from repro.obs.log import get_logger
from repro.obs.tracer import TID_SCHED
from repro.virt.process import SimThread, ThreadState
from repro.virt import syscalls as sc

_log = get_logger("virt.scheduler")


def _locked(method):
    """Run a scheduler entry point under the scheduler lock (see module
    docs: backends may call in from worker threads)."""
    import functools

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)
    return wrapper


class SyscallResult:
    CONTINUE = "continue"   # non-blocking: appears instantaneous
    BLOCKED = "blocked"     # thread left the barrier
    EXITED = "exited"


class Scheduler:
    """Deterministic round-robin scheduler over simulated cores."""

    def __init__(self, num_cores, quantum=50_000, syscall_overhead=100,
                 system_view=None, telemetry=None):
        self.num_cores = num_cores
        self._telem = telemetry
        # Reentrant: handle_syscall wakes waiters, which re-enter
        # internal helpers under the same lock.
        self._lock = threading.RLock()
        self.quantum = quantum
        self.syscall_overhead = syscall_overhead
        #: Optional SystemView serving virtualized /proc reads.
        self.system_view = system_view
        self.threads = []
        self._home_load = [0] * num_cores
        self._run_queue = deque()
        self._running = [None] * num_cores   # core id -> SimThread
        # Futexes: key -> waiters deque; tokens: key -> stored wake count.
        self._futex_waiters = {}
        self._futex_tokens = {}
        # Barriers: key -> (arrived list).
        self._barriers = {}
        # Locks: key -> owner thread; waiters: key -> deque.
        self._lock_owner = {}
        self._lock_waiters = {}
        # Sleepers: list of (wake_cycle, thread), kept sorted lazily.
        self._sleepers = []
        self.context_switches = 0
        self.syscalls_handled = 0

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def __getstate__(self):
        """Scheduler state is plain data except the lock (a host-side
        artifact) and the telemetry context; both are dropped and
        recreated/reattached on load (see repro.resilience)."""
        state = self.__dict__.copy()
        state["_lock"] = None
        state["_telem"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def blocked_report(self):
        """Per-thread blocked-state snapshot for diagnostics (deadlock
        errors): one dict per live thread."""
        with self._lock:
            return [{"thread": t.name, "state": t.state,
                     "core": t.core, "home_core": t.home_core,
                     "wake_cycle": t.wake_cycle,
                     "blocked_count": t.blocked_count,
                     "syscalls": t.syscall_count}
                    for t in self.live_threads]

    def integrity_items(self):
        """Digest items for the integrity sentinel (called at the
        interval barrier, where the scheduler is quiesced): global
        counters, per-thread scheduling state in registration order,
        queue/slot occupancy, and sync-object summaries.  Threads are
        identified by name — object reprs would leak host addresses
        into the digest.  Sync-object keys may mix types, so sorts key
        on repr."""
        yield (self.num_cores, self.context_switches,
               self.syscalls_handled)
        for t in self.threads:
            yield (t.name, t.state, t.core, t.home_core, t.wake_cycle,
                   t.run_start_cycle, t.cpu_cycles, t.blocked_count,
                   t.syscall_count)
        yield tuple(t.name for t in self._run_queue)
        yield tuple(t.name if t is not None else None
                    for t in self._running)
        yield tuple(sorted(((key, len(waiters)) for key, waiters
                            in self._futex_waiters.items()), key=repr))
        yield tuple(sorted(self._futex_tokens.items(), key=repr))
        yield tuple(sorted(((key, len(arrived)) for key, arrived
                            in self._barriers.items()), key=repr))
        yield tuple(sorted(((key, owner.name) for key, owner
                            in self._lock_owner.items()), key=repr))
        yield tuple(sorted(((key, len(waiters)) for key, waiters
                            in self._lock_waiters.items()), key=repr))
        yield tuple(sorted((cycle, t.name) for cycle, t in self._sleepers))

    def audit_invariants(self):
        """Barrier-time bookkeeping invariants for the integrity
        sentinel's auditor; returns ``(component, excerpt)`` pairs.
        Only structural facts that hold at *every* barrier are checked
        (the run queue may legally hold stale non-runnable entries —
        ``pick_thread`` skips them — so thread states are not
        policed)."""
        violations = []
        with self._lock:
            on_core = {}
            for core_id, thread in enumerate(self._running):
                if thread is None:
                    continue
                if id(thread) in on_core:
                    violations.append(
                        ("sched", "thread %s is running on cores %d "
                         "and %d" % (thread.name, on_core[id(thread)],
                                     core_id)))
                on_core[id(thread)] = core_id
                if thread.core != core_id:
                    violations.append(
                        ("sched", "thread %s occupies core %d but "
                         "records core=%r" % (thread.name, core_id,
                                              thread.core)))
            for thread in self._run_queue:
                if id(thread) in on_core:
                    violations.append(
                        ("sched", "thread %s is both running (core %d) "
                         "and run-queued" % (thread.name,
                                             on_core[id(thread)])))
        return violations

    # ------------------------------------------------------------------
    # Thread management
    # ------------------------------------------------------------------

    @_locked
    def add_thread(self, thread):
        if not isinstance(thread, SimThread):
            raise TypeError("add_thread expects a SimThread")
        self.threads.append(thread)
        thread.state = ThreadState.RUNNABLE
        # Home-core assignment: least-loaded core the affinity allows.
        # Threads stay on their home unless it keeps them waiting (see
        # pick_thread), which spreads threads across cores and keeps
        # placement sticky, like a real affinity-aware round-robin.
        candidates = (range(self.num_cores) if thread.affinity is None
                      else sorted(c for c in thread.affinity
                                  if 0 <= c < self.num_cores))
        if not candidates:
            raise ValueError("Thread %s has an empty affinity set"
                             % thread.name)
        home = min(candidates, key=self._home_load.__getitem__)
        thread.home_core = home
        self._home_load[home] += 1
        self._run_queue.append(thread)
        return thread

    @_locked
    def pick_thread(self, core_id, cycle):
        """Pop the next runnable thread for ``core_id``: its own homed
        threads first (FIFO); a foreign thread may be stolen only when
        its home core is busy running some other thread (work
        conservation without churn)."""
        self._wake_sleepers(cycle)
        queue = self._run_queue
        chosen = None
        for thread in queue:
            if thread.state != ThreadState.RUNNABLE:
                continue
            home = thread.home_core
            if home is None or home == core_id:
                chosen = thread
                break
            if (chosen is None and thread.can_run_on(core_id)
                    and self._running[home] is not None):
                chosen = thread
                # Keep scanning: a homed thread still wins.
        if chosen is None:
            # Drop stale entries opportunistically.
            while queue and queue[0].state != ThreadState.RUNNABLE:
                queue.popleft()
            return None
        queue.remove(chosen)
        chosen.state = ThreadState.RUNNING
        chosen.core = core_id
        chosen.run_start_cycle = max(cycle, chosen.wake_cycle)
        self._running[core_id] = chosen
        self.context_switches += 1
        if self._telem is not None:
            self._sched_event("schedule", chosen,
                              {"core": core_id, "cycle": cycle})
        return chosen

    def attach_telemetry(self, telemetry):
        self._telem = telemetry

    def _sched_event(self, kind, thread, args):
        """One scheduler event (telemetry attached only): a trace
        instant on the scheduler lane plus a counter."""
        telem = self._telem
        args["thread"] = thread.name
        if telem.tracer is not None:
            telem.tracer.instant(kind, "sched", TID_SCHED, args)
        if telem.metrics is not None:
            telem.metrics.inc("sched.%s" % kind)

    @_locked
    def reattach(self, core_id, thread):
        """Put a thread back on its core after a non-blocking syscall."""
        thread.state = ThreadState.RUNNING
        thread.core = core_id
        self._running[core_id] = thread

    @_locked
    def deschedule(self, core_id, cycle=None):
        """Remove the running thread from a core (it keeps its state);
        with ``cycle``, the thread's CPU time is credited."""
        thread = self._running[core_id]
        self._running[core_id] = None
        if thread is not None:
            thread.core = None
            if cycle is not None and cycle > thread.run_start_cycle:
                thread.cpu_cycles += cycle - thread.run_start_cycle
                thread.run_start_cycle = cycle
        return thread

    @_locked
    def preempt_if_due(self, core_id, cycle):
        """Round-robin: preempt the core's thread at a quantum boundary
        when other runnable threads are waiting.  Returns the preempted
        thread or None."""
        thread = self._running[core_id]
        if thread is None or not self._run_queue:
            return None
        if cycle - thread.run_start_cycle < self.quantum:
            return None
        if not any(t.can_run_on(core_id) for t in self._run_queue):
            return None
        self.deschedule(core_id, cycle)
        thread.state = ThreadState.RUNNABLE
        thread.wake_cycle = cycle
        self._run_queue.append(thread)
        if self._telem is not None:
            self._sched_event("preempt", thread,
                              {"core": core_id, "cycle": cycle})
        return thread

    @_locked
    def runnable_count(self, cycle=None):
        if cycle is not None:
            self._wake_sleepers(cycle)
        return len(self._run_queue)

    @property
    def live_threads(self):
        return [t for t in self.threads if t.state != ThreadState.DONE]

    @property
    def all_done(self):
        return not self.live_threads

    @_locked
    def wake_sleepers_until(self, cycle):
        """Move sleepers due by ``cycle`` onto the run queue (used by the
        bound phase's second-chance pass within an interval)."""
        self._wake_sleepers(cycle)

    @_locked
    def next_wake_cycle(self):
        """Earliest sleeper wake-up, or None (deadlock detection)."""
        if not self._sleepers:
            return None
        return min(c for c, _ in self._sleepers)

    # ------------------------------------------------------------------
    # Syscall handling
    # ------------------------------------------------------------------

    @_locked
    def handle_syscall(self, thread, syscall, cycle):
        """Apply ``syscall`` issued by ``thread`` at ``cycle``.  Returns a
        :class:`SyscallResult` value."""
        self.syscalls_handled += 1
        thread.syscall_count += 1
        if self._telem is not None and self._telem.metrics is not None:
            self._telem.metrics.inc("sched.syscalls.%s"
                                    % type(syscall).__name__)
        if isinstance(syscall, sc.FutexWait):
            tokens = self._futex_tokens.get(syscall.key, 0)
            if tokens > 0:
                self._futex_tokens[syscall.key] = tokens - 1
                return SyscallResult.CONTINUE
            self._futex_waiters.setdefault(syscall.key,
                                           deque()).append(thread)
            return self._block(thread)
        if isinstance(syscall, sc.FutexWake):
            waiters = self._futex_waiters.get(syscall.key)
            woken = 0
            while waiters and woken < syscall.count:
                self._wake(waiters.popleft(), cycle)
                woken += 1
            if woken < syscall.count:
                self._futex_tokens[syscall.key] = (
                    self._futex_tokens.get(syscall.key, 0)
                    + syscall.count - woken)
            return SyscallResult.CONTINUE
        if isinstance(syscall, sc.Barrier):
            arrived = self._barriers.setdefault(syscall.key, [])
            arrived.append(thread)
            if len(arrived) < syscall.parties:
                return self._block(thread)
            # Last arrival: release everyone at this cycle.
            for waiter in arrived[:-1]:
                self._wake(waiter, cycle)
            del self._barriers[syscall.key]
            return SyscallResult.CONTINUE
        if isinstance(syscall, sc.Lock):
            owner = self._lock_owner.get(syscall.key)
            if owner is None:
                self._lock_owner[syscall.key] = thread
                return SyscallResult.CONTINUE
            self._lock_waiters.setdefault(syscall.key,
                                          deque()).append(thread)
            return self._block(thread)
        if isinstance(syscall, sc.Unlock):
            if self._lock_owner.get(syscall.key) is not thread:
                raise RuntimeError("Unlock of lock %r not held by %r"
                                   % (syscall.key, thread.name))
            waiters = self._lock_waiters.get(syscall.key)
            if waiters:
                successor = waiters.popleft()
                self._lock_owner[syscall.key] = successor
                self._wake(successor, cycle)
            else:
                del self._lock_owner[syscall.key]
            return SyscallResult.CONTINUE
        if isinstance(syscall, sc.Sleep):
            thread.state = ThreadState.BLOCKED
            thread.blocked_count += 1
            self._sleepers.append((cycle + syscall.cycles, thread))
            return SyscallResult.BLOCKED
        if isinstance(syscall, sc.Spawn):
            child = syscall.thread_factory()
            child.wake_cycle = cycle + self.syscall_overhead
            self.add_thread(child)
            return SyscallResult.CONTINUE
        if isinstance(syscall, sc.ThreadExit):
            thread.state = ThreadState.DONE
            return SyscallResult.EXITED
        if isinstance(syscall, sc.ReadSysFile):
            content = (self.system_view.open_path(syscall.path)
                       if self.system_view is not None else None)
            if syscall.callback is not None:
                syscall.callback(content)
            return SyscallResult.CONTINUE
        if isinstance(syscall, (sc.GetTime, sc.Yield)):
            return SyscallResult.CONTINUE
        raise TypeError("Unknown syscall: %r" % (syscall,))

    @_locked
    def thread_done(self, thread):
        thread.state = ThreadState.DONE

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _block(self, thread):
        thread.state = ThreadState.BLOCKED
        thread.blocked_count += 1
        if self._telem is not None:
            self._sched_event("block", thread, {})
        return SyscallResult.BLOCKED

    def _wake(self, thread, cycle):
        thread.state = ThreadState.RUNNABLE
        thread.wake_cycle = cycle + self.syscall_overhead
        self._run_queue.append(thread)
        if self._telem is not None:
            self._sched_event("wake", thread, {"cycle": cycle})

    def _wake_sleepers(self, cycle):
        if not self._sleepers:
            return
        due = [(c, t) for c, t in self._sleepers if c <= cycle]
        if due:
            self._sleepers = [(c, t) for c, t in self._sleepers if c > cycle]
            for wake_cycle, thread in sorted(due, key=lambda x: x[0]):
                thread.state = ThreadState.RUNNABLE
                thread.wake_cycle = wake_cycle
                self._run_queue.append(thread)
