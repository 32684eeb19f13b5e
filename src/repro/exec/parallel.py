"""The parallel backend: a worker pool over bound cores and weave domains.

Determinism contract
--------------------

Backends must never change simulated results, only wall time.  Two
mechanisms enforce that here:

* **Bound phase — ordered handoff.**  Cores share the scheduler and the
  memory hierarchy, so the *effect order* of core runs is simulated
  semantics (cache replacement state, futex handoffs).  Work items are
  dispatched to workers through bounded per-worker queues, but a ticket
  turnstile makes core *i*'s simulation start only after core *i-1*'s
  finished — the barrier's wake order, exactly as the serial backend
  runs it.  On CPython the GIL would serialize the cores anyway; the
  turnstile turns that accident into a guarantee, and on free-threaded
  builds it is what keeps results bit-identical.

* **Weave phase — independent batches.**  Per round, each domain may
  execute the prefix of its queue that is provably independent: events
  whose children all stay inside the domain, strictly below the
  *horizon* (the earliest head cycle of any other crossing-emitting
  domain).  In the serial order every event strictly below the horizon
  executes before any emitter can run, so no delivery — even one whose
  enqueue cycle lands in the past — can be interleaved ahead of the
  batch; equal-cycle ties involve the serial tie-break (lowest domain
  index first) and go through the sequential sync step instead.
  Batches touch disjoint state (components and
  event fields are domain-private by construction), so the per-domain
  workers run them genuinely concurrently.  Events that *do* emit
  domain crossings are the synchronization points: they execute one at
  a time, globally earliest-first, the serial rule.  The per-component
  ``occupy`` order — the only order simulated timing depends on — is
  identical to the serial executor's.

Failure containment (see :mod:`repro.resilience`): job errors are
captured with their dispatch context and re-raised as a typed
:class:`~repro.errors.WorkerFailure` chained to the original exception;
a configurable watchdog bounds how long a pass waits for worker progress
(a stalled or killed worker surfaces as
:class:`~repro.errors.WatchdogTimeout` instead of hanging the turnstile
forever); and a pool epoch lets ``shutdown()`` abandon a poisoned pool —
in-flight jobs from the old epoch are dropped on arrival, so no stale
job mutates state after the faulted run ended.

Wall-clock scaling on stock CPython is still bounded by the GIL (see
docs/bound_weave.md); the worker/locking infrastructure is exercised
continuously by the equivalence suite so free-threaded builds inherit a
correct parallel engine.
"""

from __future__ import annotations

import queue
import threading
import time

from repro.errors import (ExecutionFault, WatchdogTimeout, WorkerFailure,
                          format_cause)
from repro.exec.backend import ExecutionBackend, PassAborted, WorkerKilled
from repro.obs.tracer import TID_WORKER


class _Turnstile:
    """Ordered handoff: ticket *i* may proceed only after tickets
    ``0..i-1`` advanced (the bound phase's wake-order discipline).
    ``abort()`` wakes every parked waiter with :class:`PassAborted` so
    a watchdogged pass can unwind instead of waiting forever."""

    def __init__(self):
        self._turn = 0
        self._aborted = False
        self._cond = threading.Condition()

    def wait_for(self, ticket):
        with self._cond:
            while self._turn != ticket and not self._aborted:
                self._cond.wait()
            if self._aborted:
                raise PassAborted("bound pass aborted at ticket %d"
                                  % ticket)

    def advance(self):
        with self._cond:
            self._turn += 1
            self._cond.notify_all()

    def abort(self):
        with self._cond:
            self._aborted = True
            self._cond.notify_all()


class _Worker(threading.Thread):
    """One pool worker: a bounded inbox of jobs plus idle accounting."""

    QUEUE_DEPTH = 2

    def __init__(self, index, backend):
        super().__init__(name="%s-worker%d" % (backend.name, index),
                         daemon=True)
        self.index = index
        self._backend = backend
        self.inbox = queue.Queue(maxsize=self.QUEUE_DEPTH)
        #: Microseconds spent waiting for work (and, for bound items,
        #: waiting for the turnstile) since the last ``take_idle_us``.
        self.idle_us = 0.0

    def run(self):
        while True:
            t0 = time.perf_counter()
            job = self.inbox.get()
            self.idle_us += (time.perf_counter() - t0) * 1e6
            if job is None:
                return
            fn, done, errors, ctx, epoch = job
            killed = False
            try:
                # Stale jobs (dispatched before a shutdown()) are dropped:
                # running them would mutate state after the faulted run
                # ended.  Their completion is still signaled.
                if epoch == self._backend.pool_epoch():
                    fn(self.index)
            except WorkerKilled:
                killed = True
            except BaseException as exc:  # propagate to the coordinator
                errors.append((exc, ctx))
            if killed:
                return  # simulated crash: exit without signaling done
            done.release()

    def take_idle_us(self):
        idle, self.idle_us = self.idle_us, 0.0
        return idle


def _emits_crossing(event):
    """True when executing ``event`` would deliver to another domain —
    the weave phase's only synchronization points."""
    domain = event.domain
    for child, _gap in event.edges():
        if child.domain != domain:
            return True
    return False


class ParallelBackend(ExecutionBackend):
    """Worker-pool execution of bound cores and weave domains."""

    name = "parallel"

    #: Grace period after a watchdog abort for unwinding workers to
    #: drain before the pass gives up on them.
    ABORT_GRACE_S = 1.0

    #: Bounded wait for a worker to take its shutdown sentinel; a dead
    #: or wedged worker with a full inbox is abandoned past this.
    SHUTDOWN_JOIN_S = 5.0

    def __init__(self, host_threads=None):
        self.host_threads = host_threads
        self._workers = []
        self._sim = None
        self._epoch = 0
        self._turnstile = None

    # -- lifecycle -----------------------------------------------------

    def start(self, sim):
        self._sim = sim
        if self.host_threads is None:
            self.host_threads = max(
                1, sim.config.boundweave.host_threads)

    def shutdown(self):
        """Drain and join the pool.  Safe after a poisoned pass: the
        epoch bump turns queued jobs into no-ops, sentinel delivery is
        bounded, and workers that never come back (killed or stalled
        mid-job) are abandoned as daemons instead of hanging the
        driver."""
        workers, self._workers = self._workers, []
        self._epoch += 1
        self._turnstile = None
        for worker in workers:
            try:
                worker.inbox.put(None, timeout=0.5)
            except queue.Full:
                pass  # dead worker, full inbox: it can never drain
        deadline = time.perf_counter() + self.SHUTDOWN_JOIN_S
        for worker in workers:
            worker.join(timeout=max(0.0, deadline - time.perf_counter()))

    def abort_pass(self):
        """Wake any workers parked on the current bound-pass turnstile
        (they unwind with :class:`PassAborted`)."""
        turnstile = self._turnstile
        if turnstile is not None:
            turnstile.abort()

    def pool_epoch(self):
        return self._epoch

    def _ensure_pool(self, want):
        """Grow the pool (lazily) to min(want, host_threads) workers."""
        want = max(1, min(want, self.host_threads or 1))
        telem = getattr(self._sim, "_telem", None)
        tracer = telem.tracer if telem is not None else None
        while len(self._workers) < want:
            worker = _Worker(len(self._workers), self)
            if tracer is not None:
                tracer.name_track(TID_WORKER + worker.index,
                                  "%s worker%d" % (self.name,
                                                   worker.index))
            worker.start()
            self._workers.append(worker)
        return self._workers

    def _run_jobs(self, jobs, phase, interval):
        """Dispatch ``(worker_index, fn, ctx)`` jobs through the bounded
        inboxes and block until all complete.

        The first real job error is re-raised as a
        :class:`WorkerFailure` chained to the original exception (full
        traceback preserved) *after* the pass drains, so no completion
        is left dangling.  With a watchdog budget set, a stretch of
        ``budget`` seconds without a single completion aborts the pass
        and raises :class:`WatchdogTimeout`."""
        done = threading.Semaphore(0)
        errors = []
        epoch = self._epoch
        plan = self.fault_plan
        budget = self.watchdog_budget
        flight = self._flight()
        if flight is not None:
            flight.record("dispatch", backend=self.name, phase=phase,
                          interval=interval, jobs=len(jobs),
                          workers=len(self._workers), epoch=epoch)
        pending = 0
        timed_out = False
        for index, fn, ctx in jobs:
            ctx = dict(ctx, phase=phase, interval=interval, worker=index)
            if plan is not None:
                fn = plan.wrap(fn, ctx, self, epoch)
            try:
                # The bounded put is itself watchdogged: a dead worker
                # stops draining its inbox, and an unbounded put here
                # would hang the driver before the completion loop ever
                # noticed the missing progress.
                self._workers[index].inbox.put(
                    (fn, done, errors, ctx, epoch), timeout=budget)
            except queue.Full:
                timed_out = True
                break
            pending += 1
        while not timed_out and pending:
            # Progress-based: each completion restarts the budget clock.
            if done.acquire(timeout=budget):
                pending -= 1
            else:
                timed_out = True
                break
        if timed_out:
            # A worker is stalled or dead.  Abort the turnstile so
            # parked workers unwind, grace-drain them, then raise.
            self.abort_pass()
            deadline = time.perf_counter() + min(budget,
                                                 self.ABORT_GRACE_S)
            while pending:
                left = deadline - time.perf_counter()
                if left <= 0 or not done.acquire(timeout=left):
                    break
                pending -= 1
        failure = next(((exc, ctx) for exc, ctx in errors
                        if not isinstance(exc, PassAborted)), None)
        if failure is not None:
            exc, ctx = failure
            if flight is not None:
                flight.record("worker_failure", backend=self.name,
                              phase=phase, interval=interval,
                              worker=ctx.get("worker"),
                              error=type(exc).__name__)
            if isinstance(exc, ExecutionFault):
                raise exc  # already typed with context (HorizonViolation)
            raise WorkerFailure(
                "worker %s failed a %s job (interval %s, %s): %s"
                % (ctx.get("worker"), phase, interval,
                   self._ctx_target(ctx), exc),
                traceback_text=format_cause(exc), phase=phase,
                interval=interval, worker=ctx.get("worker"),
                core=ctx.get("core"),
                domain=ctx.get("domain")) from exc
        if timed_out:
            if flight is not None:
                flight.record("watchdog_timeout", backend=self.name,
                              phase=phase, interval=interval,
                              pending=pending, jobs=len(jobs),
                              budget_s=budget)
            raise WatchdogTimeout(
                "no worker progress for %.2fs in %s pass (interval %s): "
                "%d of %d jobs incomplete"
                % (budget, phase, interval, pending, len(jobs)),
                budget_s=budget, completed=len(jobs) - pending,
                pending=pending, phase=phase, interval=interval)

    @staticmethod
    def _ctx_target(ctx):
        if ctx.get("core") is not None:
            return "core %s" % ctx["core"]
        if ctx.get("domain") is not None:
            return "domain %s" % ctx["domain"]
        return "job"

    # -- bound phase ---------------------------------------------------

    def run_bound_pass(self, bound, cores, limit_cycle, timings):
        workers = self._ensure_pool(len(cores))
        num_workers = len(workers)
        if num_workers <= 1 or len(cores) <= 1:
            return bound.run_pass(cores, limit_cycle, timings)
        turnstile = _Turnstile()
        slots = [None] * len(cores)

        def make_job(ticket, core):
            def job(worker_index):
                wait0 = time.perf_counter()
                turnstile.wait_for(ticket)
                start = time.perf_counter()
                # Waiting for the handoff is idle time, not work.
                workers[worker_index].idle_us += (start - wait0) * 1e6
                try:
                    ran = bound._run_core(core, limit_cycle)
                    slots[ticket] = (ran, start, time.perf_counter(),
                                     worker_index)
                finally:
                    turnstile.advance()
            return job

        self._turnstile = turnstile
        try:
            self._run_jobs(
                [(ticket % num_workers, make_job(ticket, core),
                  {"core": core.core_id})
                 for ticket, core in enumerate(cores)],
                phase="bound", interval=bound.intervals)
        finally:
            self._turnstile = None
        telem = bound._telem
        tracer = telem.tracer if telem is not None else None
        outcomes = []
        for core, slot in zip(cores, slots):
            ran, start, end, worker_index = slot
            timings.append((core.core_id, end - start))
            if telem is not None:
                bound._trace_core_run(core.core_id, start, end)
            if tracer is not None:
                tracer.complete_raw(
                    "core%d" % core.core_id, "exec", start, end,
                    TID_WORKER + worker_index,
                    {"interval": bound.intervals})
            outcomes.append((core, ran))
        return outcomes

    # -- weave phase ---------------------------------------------------

    def run_weave(self, weave, traces):
        # Crossing probes (the ablation) read other domains' clocks, and
        # one domain has nothing to overlap: both run the engine's own
        # drain, unless the fault plan needs the queues it corrupts.
        if self.fault_plan is None and (not weave.crossing_deps
                                        or len(weave.domains) <= 1):
            return weave.run_interval(traces)
        return weave.run_interval(
            traces, executor=lambda events: self._execute_weave(weave,
                                                                events))

    def _execute_weave(self, weave, events):
        domains = weave.domains
        plan = self.fault_plan
        interval = weave.stats.intervals
        weave.seed_queues(events)
        if plan is not None:
            plan.corrupt(weave, interval)
        if not weave.crossing_deps or len(domains) <= 1:
            weave._drain_earliest_first()
            return
        workers = self._ensure_pool(len(domains))
        num_workers = len(workers)
        telem = weave._telem
        tracer = telem.tracer if telem is not None else None
        # Only domains holding crossing-emitting events can ever deliver
        # into another domain this interval; only they constrain other
        # domains' batch horizons.  (A domain's own future emitters don't
        # need the horizon: its batch stops at the first one it meets.)
        emitter = [False] * len(domains)
        for event in events:
            if not emitter[event.domain] and _emits_crossing(event):
                emitter[event.domain] = True
        while True:
            jobs = []
            for domain in domains:
                head_cycle = domain.head_cycle()
                if head_cycle is None:
                    continue
                horizon = None
                for other in domains:
                    if other is domain or not emitter[other.domain_id]:
                        continue
                    other_head = other.head_cycle()
                    if other_head is not None and (horizon is None
                                                   or other_head < horizon):
                        horizon = other_head
                # Strictly below the horizon: at equal cycles the serial
                # tie-break (lowest domain index) may run the emitter
                # first, and its delivery can land at or below that
                # cycle — those ties go through the sync step.
                if horizon is not None and head_cycle >= horizon:
                    continue
                if _emits_crossing(domain.head_item()):
                    continue
                jobs.append((domain.domain_id % num_workers,
                             self._batch_job(weave, domain, horizon,
                                             tracer),
                             {"domain": domain.domain_id}))
            if jobs:
                self._run_jobs(jobs, phase="weave", interval=interval)
                continue
            # Synchronization point: the globally earliest event (it
            # emits domain crossings, or every queue is past another's
            # horizon) executes under the serial rule.
            best = None
            best_cycle = None
            for domain in domains:
                head = domain.head_cycle()
                if head is not None and (best_cycle is None
                                         or head < best_cycle):
                    best_cycle = head
                    best = domain
            if best is None:
                return
            cycle, event = best.pop()
            weave._run_event(best, cycle, event)

    @staticmethod
    def _batch_job(weave, domain, horizon, tracer):
        """One domain's independent batch: local events up to the
        horizon whose children stay inside the domain."""
        def job(worker_index):
            start = time.perf_counter()
            executed = 0
            while True:
                head_cycle = domain.head_cycle()
                if head_cycle is None or (horizon is not None
                                          and head_cycle >= horizon):
                    break
                head = domain.head_item()
                if _emits_crossing(head):
                    break
                cycle, event = domain.pop()
                weave._run_event(domain, cycle, event)
                executed += 1
            if tracer is not None and executed:
                tracer.complete_raw(
                    "domain%d batch" % domain.domain_id, "exec", start,
                    time.perf_counter(), TID_WORKER + worker_index,
                    {"events": executed})
        return job

    # -- observability -------------------------------------------------

    def sample_idle(self, metrics):
        for worker in self._workers:
            metrics.histogram("exec.worker_idle_us").record(
                int(worker.take_idle_us()))
