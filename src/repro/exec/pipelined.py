"""The pipelined backend: bound and weave as two pipeline stages.

The paper's stated future work is to pipeline the bound and weave
phases: interval *k*'s weave overlaps interval *k+1*'s bound, so
steady-state wall time per interval is ``max(bound, weave)`` instead of
their sum (``HostModel.pipelined_*`` models exactly that).

This backend builds the pipeline's machinery — the bound phase runs on
the driver thread while a dedicated weave-stage thread consumes interval
jobs from a bounded queue — but keeps a **feedback barrier**: interval
*k*'s weave delays feed interval *k+1*'s core clocks (and the next
interval limit), so the driver waits for the stage before starting the
next bound phase.  That barrier is what preserves the engine's
serial-equivalence guarantee; relaxing it (applying weave feedback one
interval late) is the lever a real pipelined build would pull, and it
would change simulated results — which is why it is not the default and
why the equivalence suite would catch anyone flipping it silently.

The practical consequence on stock CPython: the measured speedup stays
~1x while ``HostModel.pipelined_speedup`` reports what the overlap
would buy.  ``benchmarks/bench_backend_scaling.py`` records exactly that
measured-vs-modeled gap.

Failure containment mirrors the parallel backend: stage errors are
re-raised on the driver as a typed :class:`~repro.errors.WorkerFailure`
chained to the original (typed :class:`~repro.errors.ExecutionFault`
instances pass through untouched), the feedback wait honors
``watchdog_budget`` so a stalled or killed stage thread raises
:class:`~repro.errors.WatchdogTimeout` instead of wedging the driver,
and ``shutdown()`` fences the stage with the pool epoch — a stale job
finishing late is dropped rather than applied after the run ended.
"""

from __future__ import annotations

import queue
import threading
import time

from repro.errors import (ExecutionFault, WatchdogTimeout, WorkerFailure,
                          format_cause)
from repro.exec.backend import ExecutionBackend, WorkerKilled
from repro.obs.tracer import TID_WORKER

#: Track index (within the worker lane block) of the weave stage thread.
WEAVE_STAGE_TRACK = 99


class PipelinedBackend(ExecutionBackend):
    """Two-stage bound/weave pipeline with a bounded handoff queue."""

    name = "pipelined"

    #: Depth of the stage queue: how many weave intervals may be queued
    #: behind the one executing.  Depth 1 is the paper's two-stage
    #: pipeline.
    QUEUE_DEPTH = 1

    #: Bounded join for the stage thread on shutdown; a stalled stage
    #: is abandoned (daemon) past this rather than hanging the driver.
    SHUTDOWN_JOIN_S = 5.0

    def __init__(self, host_threads=None):
        self.host_threads = host_threads
        self._sim = None
        self._jobs = None
        self._thread = None
        self._epoch = 0
        #: Microseconds the weave stage spent waiting for work.
        self._stage_idle_us = 0.0

    # -- lifecycle -----------------------------------------------------

    def start(self, sim):
        self._sim = sim

    def shutdown(self):
        thread, self._thread = self._thread, None
        self._epoch += 1
        if thread is not None:
            try:
                self._jobs.put(None, timeout=0.5)
            except queue.Full:
                pass  # stage dead or wedged with a full queue
            thread.join(timeout=self.SHUTDOWN_JOIN_S)
            self._jobs = None

    def _ensure_stage(self):
        if self._thread is None:
            self._jobs = queue.Queue(maxsize=self.QUEUE_DEPTH)
            self._thread = threading.Thread(
                target=self._stage_loop, args=(self._jobs,),
                name="pipelined-weave-stage", daemon=True)
            telem = getattr(self._sim, "_telem", None)
            if telem is not None and telem.tracer is not None:
                telem.tracer.name_track(TID_WORKER + WEAVE_STAGE_TRACK,
                                        "weave stage")
            self._thread.start()

    def _stage_loop(self, jobs):
        # ``jobs`` is bound at thread creation: after shutdown() abandons
        # a wedged thread and nulls self._jobs, a stale loop iteration
        # must still have a queue to block on (it drains the None
        # sentinel shutdown() left there and exits).
        while True:
            t0 = time.perf_counter()
            job = jobs.get()
            self._stage_idle_us += (time.perf_counter() - t0) * 1e6
            if job is None:
                return
            fn, slot, epoch = job
            start = time.perf_counter()
            killed = False
            try:
                if epoch == self._epoch:
                    slot["delays"] = fn(0)
                else:
                    slot["stale"] = True  # dropped: dispatched pre-shutdown
            except WorkerKilled:
                killed = True
            except BaseException as exc:
                slot["error"] = exc
            if killed:
                return  # simulated crash: exit without signaling done
            slot["end"] = time.perf_counter()
            slot["start"] = start
            slot["done"].set()

    # -- phases --------------------------------------------------------

    def run_weave(self, weave, traces):
        self._ensure_stage()
        plan = self.fault_plan
        # run_interval increments the counter, so this interval is +1.
        interval = weave.stats.intervals + 1

        def work(worker_index):
            if plan is None:
                return weave.run_interval(traces)
            return weave.run_interval(
                traces,
                executor=lambda events: self._corrupt_execute(weave,
                                                              events))

        fn = work
        if plan is not None:
            fn = plan.wrap(fn, {"phase": "weave-stage",
                                "interval": interval, "worker": 0},
                           self, self._epoch)
        flight = self._flight()
        if flight is not None:
            flight.record("dispatch", backend=self.name,
                          phase="weave-stage", interval=interval,
                          traces=len(traces), epoch=self._epoch)
        slot = {"done": threading.Event()}
        self._jobs.put((fn, slot, self._epoch))
        # Feedback barrier (see module docs): interval k's delays feed
        # interval k+1's bound phase, so the driver must wait here.
        # The watchdog budget bounds that wait — a stalled or killed
        # stage surfaces as a typed fault instead of wedging the run.
        if not slot["done"].wait(timeout=self.watchdog_budget):
            if flight is not None:
                flight.record("watchdog_timeout", backend=self.name,
                              phase="weave-stage", interval=interval,
                              worker=0, budget_s=self.watchdog_budget)
            raise WatchdogTimeout(
                "weave stage made no progress for %.2fs (interval %d)"
                % (self.watchdog_budget, interval),
                budget_s=self.watchdog_budget, completed=0, pending=1,
                phase="weave-stage", interval=interval)
        telem = weave._telem
        if telem is not None and telem.tracer is not None:
            telem.tracer.complete_raw(
                "weave interval", "exec", slot["start"], slot["end"],
                TID_WORKER + WEAVE_STAGE_TRACK)
        error = slot.get("error")
        if error is not None:
            if flight is not None:
                flight.record("worker_failure", backend=self.name,
                              phase="weave-stage", interval=interval,
                              worker=0, error=type(error).__name__)
            if isinstance(error, ExecutionFault):
                raise error  # already typed (e.g. HorizonViolation)
            raise WorkerFailure(
                "weave stage failed (interval %d): %s" % (interval,
                                                          error),
                traceback_text=format_cause(error), phase="weave-stage",
                interval=interval, worker=0) from error
        return slot["delays"]

    def _corrupt_execute(self, weave, events):
        """Reference executor with the fault plan's corruption hook
        applied between seeding and draining (mirrors the parallel
        backend's injection point)."""
        weave.seed_queues(events)
        self.fault_plan.corrupt(weave, weave.stats.intervals)
        weave._drain_earliest_first()

    # -- observability -------------------------------------------------

    def sample_idle(self, metrics):
        if self._thread is not None:
            idle, self._stage_idle_us = self._stage_idle_us, 0.0
            metrics.histogram("exec.worker_idle_us").record(int(idle))
