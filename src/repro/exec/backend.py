"""The ExecutionBackend protocol.

A backend executes the work the engine layers describe:

* ``run_bound_pass`` — one bound-phase pass over a list of cores, in
  barrier wake order.  The pass must *behave as if* the cores ran one
  after another in that order: cores share the scheduler and the memory
  hierarchy, so the observable effect order is part of the simulated
  semantics (it determines cache replacement state, futex handoffs, and
  ultimately cycles).  Backends are free to use worker threads as long
  as they preserve that effect order.
* ``run_weave`` — one weave-phase interval.  The reference semantics is
  the engine's earliest-first cooperative executor; backends may run
  domains concurrently wherever the event graph proves independence.

Lifecycle: ``start(sim)`` is called once when a :class:`~repro.core.ZSim`
adopts the backend, ``shutdown()`` when a run finishes (worker threads
must not leak across runs; backends restart lazily if reused).

``sample_idle(metrics)`` is called once per interval when telemetry is
attached so backends with real workers can report measured idle time
(``exec.worker_idle_us``) instead of the serial backend's apportioned
spans.

Supervision hooks (see :mod:`repro.resilience`): ``watchdog_budget``
bounds how long a backend waits for worker progress before raising a
typed :class:`~repro.errors.WatchdogTimeout`; ``fault_plan`` lets the
deterministic fault-injection harness wrap dispatched jobs; ``recover()``
invalidates in-flight work (via the pool epoch) and abandons a poisoned
pool so a degraded re-run can proceed with fresh workers.
"""

from __future__ import annotations


class WorkerKilled(BaseException):
    """Injected crash (fault harness): the worker thread exits without
    completing its job — simulating a died-without-a-trace worker.
    Deliberately a BaseException so normal handlers cannot swallow it."""


class PassAborted(Exception):
    """Raised in jobs parked on an aborted turnstile after a watchdog
    timeout: the pass is being torn down, the job's work never ran."""


class ExecutionBackend:
    """Base class/protocol for execution backends (see module docs)."""

    #: Short name used by ``--backend`` and stats reporting.
    name = "abstract"

    #: Seconds of no worker progress before a pass raises
    #: :class:`~repro.errors.WatchdogTimeout`; None waits forever.
    watchdog_budget = None

    #: Optional :class:`repro.resilience.faults.FaultPlan` consulted at job
    #: dispatch (test/CI harness only; None in production runs).
    fault_plan = None

    # -- lifecycle -----------------------------------------------------

    def start(self, sim):
        """Adopt a simulator.  Called from ``ZSim.__init__``; resource
        allocation (worker threads) should stay lazy so unused backends
        cost nothing.  Subclasses overriding this should call
        ``super().start(sim)`` (or set ``self._sim``) so observability
        hooks can reach the simulator's flight recorder."""
        self._sim = sim

    def _flight(self):
        """The adopted simulator's flight recorder, or None.  Call
        sites follow the telemetry guard discipline: bind this once per
        pass/interval and guard every record with ``is not None``."""
        return getattr(getattr(self, "_sim", None), "flight", None)

    def shutdown(self):
        """Release host resources (join worker threads).  Idempotent;
        a backend may be restarted lazily after shutdown."""

    def pool_epoch(self):
        """Monotonic pool generation.  Jobs dispatched under an older
        epoch are stale: workers drop them on arrival, and fault
        wrappers stop stalling when the epoch moves on."""
        return getattr(self, "_epoch", 0)

    def recover(self):
        """Invalidate in-flight work and abandon the worker pool after
        an execution fault (workers may be stalled or dead); the next
        pass lazily builds a fresh pool.  Default: plain shutdown."""
        self.shutdown()

    # -- bound phase ---------------------------------------------------

    def run_bound_pass(self, bound, cores, limit_cycle, timings):
        """Run one bound-phase pass over ``cores`` (wake order).

        Must append ``(core_id, host_seconds)`` to ``timings`` in wake
        order and return ``[(core, ran_to_limit)]``.  The default
        delegates to the bound phase's inline reference pass.
        """
        return bound.run_pass(cores, limit_cycle, timings)

    # -- weave phase ---------------------------------------------------

    def run_weave(self, weave, traces):
        """Execute one weave interval; returns ``{core_id: delay}``."""
        return weave.run_interval(traces)

    # -- observability -------------------------------------------------

    def sample_idle(self, metrics):
        """Record per-worker idle time into ``metrics`` (one histogram
        sample per worker per interval).  No-op for inline backends."""

    def host_stats(self):
        """Host-side backend counters for ``stats()["host"]["exec"]``
        (pool sizes, worker deaths, respawns, speculation outcomes).
        An empty dict (the default) omits the node entirely."""
        return {}

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.name)
