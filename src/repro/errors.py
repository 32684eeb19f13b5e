"""Typed error hierarchy for the simulator.

Every failure the engine can diagnose raises a subclass of
:class:`SimulationError` carrying structured context (the offending
core/domain/worker, the interval, blocked-thread reports) instead of a
bare ``RuntimeError`` whose only payload is its message.  The split that
matters operationally:

* :class:`ExecutionFault` — something went wrong *executing* an interval
  (a worker died, stalled past the watchdog budget, or tripped the weave
  horizon invariant).  Like an :class:`IntegrityError`, it ends the run
  typed with a post-mortem capsule.  Interval barriers are consistent
  global states and the run is deterministic, so ``repro run --resume``
  continues from the newest checkpoint to the fault-free result (see
  :mod:`repro.resilience`).
* Everything else — deadlocked simulated threads, bad configs, corrupt
  checkpoints, a failed integrity audit, an exhausted wall-clock budget
  — is a property of the simulation itself.  No fault is retried
  in-process.
"""

from __future__ import annotations

import traceback


def format_cause(exc):
    """Render an exception's full traceback, for embedding in a
    :class:`WorkerFailure` raised on a different thread."""
    return "".join(traceback.format_exception(type(exc), exc,
                                              exc.__traceback__))


class SimulationError(RuntimeError):
    """Base class for all typed simulator errors."""


class ConfigError(SimulationError, ValueError):
    """Invalid configuration (also a ValueError for backward
    compatibility with callers catching the old untyped raises)."""


class DeadlockError(SimulationError):
    """No runnable threads, no sleepers, no attached cores: the
    simulated program can never make progress again.

    Attributes:
        blocked: list of per-thread dicts (name, state, last core,
            wake_cycle, blocked/syscall counts) from
            ``Scheduler.blocked_report()``.
        next_wake: earliest sleeper wake cycle (always None here — a
            pending sleeper would not be a deadlock).
        interval: 1-based interval number at detection time.
    """

    def __init__(self, message, blocked=(), next_wake=None, interval=None):
        super().__init__(message)
        self.blocked = list(blocked)
        self.next_wake = next_wake
        self.interval = interval


class ExecutionFault(SimulationError):
    """Base class for faults in *how* an interval executed (not in the
    simulated program).  Ends the run; resumable from a checkpoint."""

    def __init__(self, message, phase=None, interval=None, worker=None,
                 core=None, domain=None):
        super().__init__(message)
        self.phase = phase          # "bound" | "weave" | "weave-stage"
        self.interval = interval    # 1-based interval number
        self.worker = worker        # pool worker index (if known)
        self.core = core            # offending core id (bound jobs)
        self.domain = domain        # offending weave domain id


class WorkerFailure(ExecutionFault):
    """A pool worker's job raised.  ``__cause__`` is the original
    exception (raised with ``raise ... from``), ``traceback_text`` its
    rendered traceback at the point of failure."""

    def __init__(self, message, traceback_text="", **ctx):
        super().__init__(message, **ctx)
        self.traceback_text = traceback_text


class WatchdogTimeout(ExecutionFault):
    """No worker completed a job within the watchdog budget: a worker
    is stalled (or was killed) and the pass cannot finish."""

    def __init__(self, message, budget_s=None, completed=None,
                 pending=None, **ctx):
        super().__init__(message, **ctx)
        self.budget_s = budget_s
        self.completed = completed
        self.pending = pending


class HorizonViolation(ExecutionFault):
    """A weave domain popped an event below its floor: below the
    interval floor (the bound phase's lower bound on every access the
    interval replays), or below its own previous pop, which is legal in
    no execution.  Event timestamps are corrupt, a record was issued
    below the bound, or an executor broke the horizon discipline."""

    def __init__(self, message, cycle=None, floor=None, **ctx):
        super().__init__(message, **ctx)
        self.cycle = cycle
        self.floor = floor


class IntegrityError(SimulationError):
    """The state-integrity sentinel caught silent corruption: an
    invariant audit failed (MESI single-writer, inclusion, weave queue
    discipline, scheduler bookkeeping) or a capsule's fingerprint
    diverged from its recorded digest.  Not an :class:`ExecutionFault`:
    the simulator is deterministic, so replaying the interval would
    reproduce a model bug, and the run ends instead, carrying its
    post-mortem capsule.  Every checkpoint capsule was audited before
    it was written, so the newest one is a clean restart point (see
    repro.resilience.integrity).

    Attributes:
        component: dotted path of the guilty subsystem
            (e.g. ``mem.l1d-3`` or ``weave.domain1``).
        excerpt: short state excerpt pinpointing the violation.
        fingerprint: observed digest (fingerprint divergences only).
        expected: recorded digest the observation was checked against.
        interval: the barrier's 1-based interval number.
        phase: ``"audit"``, or the verifying context (``"resume"``,
            ``"verify"``).
    """

    def __init__(self, message, component=None, excerpt=None,
                 fingerprint=None, expected=None, interval=None,
                 phase=None):
        super().__init__(message)
        self.component = component
        self.excerpt = excerpt
        self.fingerprint = fingerprint
        self.expected = expected
        self.interval = interval
        self.phase = phase


class ProcessPoolError(ExecutionFault):
    """The process backend's worker pool failed systemically: fork
    itself errored, the whole pool died repeatedly, or a speculation
    replay diverged from its validated prefix.  Individual worker
    deaths never raise this — they degrade to inline execution — so
    when it does surface the run ends, resumable on another backend."""


class WallClockExceeded(SimulationError):
    """The run outlived ``--max-wall-seconds``.  When checkpointing is
    on, ``checkpoint_path`` names the snapshot written on the way out
    so the run can be resumed."""

    def __init__(self, message, budget_s=None, elapsed_s=None,
                 intervals=None, checkpoint_path=None):
        super().__init__(message)
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s
        self.intervals = intervals
        self.checkpoint_path = checkpoint_path


class RunInterrupted(WallClockExceeded):
    """The run was stopped by an external request (SIGTERM/SIGINT to
    ``repro run``).  A subclass of :class:`WallClockExceeded` on
    purpose: an interrupted run takes exactly the budget-exhausted exit
    path — final checkpoint when checkpointing is on, exit code 75,
    resumable — instead of dying with a traceback."""

    def __init__(self, message, reason=None, **kwargs):
        super().__init__(message, **kwargs)
        self.reason = reason


class CheckpointError(SimulationError):
    """A checkpoint could not be written, read, or applied."""


class CheckpointVersionError(CheckpointError):
    """A checkpoint's format version does not match this build."""

    def __init__(self, message, found=None, expected=None):
        super().__init__(message)
        self.found = found
        self.expected = expected
