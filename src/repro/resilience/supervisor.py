"""The resilience supervisor: supervised interval execution.

Wraps the simulator's interval loop with a recovery policy built on two
engine guarantees:

1. **Interval barriers are consistent global states** — so an interval
   that faulted mid-flight can be rewound (in-memory snapshot, see
   :mod:`repro.resilience.checkpoint`) and replayed.
2. **Backends never change simulated results, only wall time** — so the
   replay can run on the serial reference backend and the final stats
   tree is identical to what the faulted backend would have produced.

Per supervised interval: snapshot, execute on the configured backend,
and on any :class:`~repro.errors.ExecutionFault` (worker death, watchdog
timeout, horizon violation, process-pool failure) quiesce the backend
(``recover()``), restore the snapshot, and re-run the interval serially.

After a recovery the next few intervals run serially too, with
*decorrelated jitter* on the stretch length (AWS-style: each backoff is
drawn between the base and three times the previous draw, capped at
eight times the base) so that a periodic external disturbance cannot
phase-lock with the retry schedule.  The jitter RNG is seeded from the
engine seed: the schedule is random-looking but reproducible.

``max_retries`` *consecutive* faulted intervals demote the run one rung
down the **degradation ladder**::

    process -> parallel -> serial
    pipelined ----------^

Each demotion builds and adopts the next backend (transferring the
watchdog budget and fault plan) and resets the consecutive-fault
counter, so a systemically failing process pool degrades to threads
before giving up on parallelism entirely.  Landing on serial is the
permanent fallback — serial is the reference semantics and cannot
execution-fault.

Faults that are not execution faults — deadlocks, wall-clock budget,
simulated-program errors, and :class:`~repro.errors.IntegrityError` —
are properties of the simulation itself and propagate untouched: a
deterministic replay would only reproduce them.
"""

from __future__ import annotations

import random
import time

from repro.errors import ExecutionFault
from repro.obs.log import get_logger
from repro.resilience.checkpoint import discard, restore, snapshot

_log = get_logger("resilience.supervisor")

#: One rung down per ``max_retries`` consecutive faults; serial is the
#: floor (the reference backend cannot execution-fault).
_LADDER = {"process": "parallel", "parallel": "serial",
           "pipelined": "serial"}


#: A backoff draw never exceeds this multiple of the base.
JITTER_CAP = 8


class DecorrelatedJitter:
    """Seeded decorrelated-jitter draw sequence (AWS-style), in whole
    intervals.

    Each draw is uniform in ``[base, min(3 * previous, JITTER_CAP *
    base)]``, so consecutive draws stretch the window geometrically and
    :meth:`reset` shrinks it back to the base.  A ``base`` of 0
    disables backoff (every draw is 0).
    """

    def __init__(self, base, seed=0):
        self.base = base
        self._rng = random.Random(seed)
        self._prev = 0

    def next(self):
        """Draw the next backoff; grows the window off the previous
        draw."""
        base = self.base
        if base <= 0:
            return 0
        prev = self._prev or base
        draw = self._rng.randint(base, min(prev * 3, base * JITTER_CAP))
        self._prev = draw
        return draw

    def reset(self):
        """Shrink the window back to the base (call on success)."""
        self._prev = 0


class Supervisor:
    """Supervised execution of the simulator's interval loop."""

    def __init__(self, sim, max_retries=3, backoff_intervals=2,
                 seed=None):
        from repro.exec.serial import SerialBackend
        self.sim = sim
        self.max_retries = max(1, int(max_retries))
        #: Base (minimum) serial stretch after a recovery; the actual
        #: stretch is jittered (see ``_next_backoff``).  0 disables.
        self.backoff_intervals = max(0, int(backoff_intervals))
        if seed is None:
            seed = sim.config.boundweave.seed
        self._jitter = DecorrelatedJitter(self.backoff_intervals,
                                          seed=seed)
        self._serial = SerialBackend()
        self._serial.start(sim)
        self._consecutive = 0
        self._backoff_left = 0
        self.recoveries = 0
        self.fallback_permanent = False
        self.last_backoff_intervals = 0
        self.total_backoff_intervals = 0
        #: Ladder demotions, in order: dicts with interval/from/to.
        self.demotions = []
        #: Handled-fault history: dicts with interval/kind/message/
        #: context/attempt/backoff, in order of occurrence.
        self.history = []
        sim.supervisor = self

    # ------------------------------------------------------------------

    def run_interval(self, limit):
        """Execute one interval under supervision; returns the same
        telemetry tuple as ``ZSim._execute_interval``."""
        sim = self.sim
        if self.fallback_permanent:
            return sim._execute_interval(limit, backend=self._serial)
        if self._backoff_left > 0:
            # Degraded stretch after a recovery: serial execution is
            # the reference semantics, so no snapshot is needed.
            self._backoff_left -= 1
            return sim._execute_interval(limit, backend=self._serial)
        payload = snapshot(sim)
        try:
            outcome = sim._execute_interval(limit)
        except ExecutionFault as fault:
            return self._recover(fault, payload, limit)
        self._consecutive = 0
        self._jitter.reset()
        discard(sim)
        return outcome

    def _next_backoff(self):
        """Decorrelated-jitter backoff draw (in intervals): uniform in
        ``[base, min(3 * previous, cap * base)]``.  Consecutive faults
        stretch the window geometrically; a success (or a demotion)
        resets it."""
        return self._jitter.next()

    def _recover(self, fault, payload, limit):
        sim = self.sim
        self._consecutive += 1
        self.recoveries += 1
        entry = {
            "interval": fault.interval,
            "kind": type(fault).__name__,
            "message": str(fault),
            "phase": fault.phase,
            "worker": fault.worker,
            "core": fault.core,
            "domain": fault.domain,
            "attempt": self.recoveries,
            "consecutive": self._consecutive,
        }
        self.history.append(entry)
        _log.warning("execution fault (%s) in interval %s: %s — "
                     "rewinding to the interval barrier and replaying "
                     "serially", entry["kind"], entry["interval"], fault)
        traceback_text = getattr(fault, "traceback_text", "")
        if traceback_text:
            _log.debug("worker traceback:\n%s", traceback_text)
        self._note_telemetry(entry)
        flight = getattr(sim, "flight", None)
        if flight is not None:
            flight.record("recovery", fault=entry["kind"],
                          interval=entry["interval"],
                          phase=entry["phase"], worker=entry["worker"],
                          consecutive=self._consecutive)
            # The recovery capsule is the post-mortem for the fault the
            # run *survived*: captured before the rewind, so the ring
            # still holds the backend's events leading up to it.
            flight.capture(
                sim, kind=entry["kind"], message=entry["message"],
                recovery="interval rewound to the barrier and replayed "
                         "on the serial backend",
                worker=entry["worker"], interval=entry["interval"],
                phase=entry["phase"])
        # Order matters: quiesce the pool (epoch bump + join/abandon)
        # BEFORE restoring, so no straggler job mutates rewound state.
        recover_start = time.perf_counter()
        sim.backend.recover()
        restore(sim, payload)
        if self._consecutive >= self.max_retries:
            self._demote(entry["interval"])
        backoff = 0
        if not self.fallback_permanent:
            backoff = self._next_backoff()
            self._backoff_left = backoff
        entry["backoff_intervals"] = backoff
        self.last_backoff_intervals = backoff
        self.total_backoff_intervals += backoff
        outcome = sim._execute_interval(limit, backend=self._serial)
        _log.info("interval %s replayed serially in %.3f s",
                  entry["interval"],
                  time.perf_counter() - recover_start)
        return outcome

    def _demote(self, interval):
        """Step one rung down the degradation ladder (see module
        docs).  Landing on serial is the permanent fallback."""
        if self.fallback_permanent:
            return
        sim = self.sim
        cur = sim.backend.name
        if cur == "serial":
            # Already at the floor (faults can still reach us here via
            # queue corruption); just stop snapshotting.
            self.fallback_permanent = True
            return
        nxt = _LADDER.get(cur, "serial")
        self.demotions.append({"interval": interval,
                               "from": cur, "to": nxt})
        flight = getattr(sim, "flight", None)
        if flight is not None:
            flight.record("demotion", interval=interval,
                          from_backend=cur, to_backend=nxt,
                          consecutive=self._consecutive)
        _log.warning("%d consecutive faulted intervals on the %s "
                     "backend: degrading to %s",
                     self._consecutive, cur, nxt)
        old = sim.backend
        if nxt == "serial":
            new = self._serial
            self.fallback_permanent = True
        else:
            from repro.exec import make_backend
            new = make_backend(
                nxt, host_threads=sim.config.boundweave.host_threads)
            new.start(sim)
        new.watchdog_budget = old.watchdog_budget
        new.fault_plan = old.fault_plan
        old.shutdown()
        sim.backend = new
        sim.host_model.backend_name = new.name
        # The new rung gets a fresh fault budget and jitter sequence.
        self._consecutive = 0
        self._jitter.reset()

    def _note_telemetry(self, entry):
        """A trace instant per fault; the counts are the stats tree's
        ``host/resilience``."""
        telem = self.sim._telem
        if telem is not None and telem.tracer is not None:
            from repro.obs.tracer import TID_MAIN
            telem.tracer.instant("execution fault", "resilience",
                                 TID_MAIN, dict(entry))

    # ------------------------------------------------------------------

    def summary(self):
        """Counters for the stats tree (``host/resilience``)."""
        return {
            "recoveries": self.recoveries,
            "fallback_permanent": int(self.fallback_permanent),
            "consecutive": self._consecutive,
            "last_backoff_intervals": self.last_backoff_intervals,
            "total_backoff_intervals": self.total_backoff_intervals,
            "demotions": len(self.demotions),
            "demotion_path": "->".join(
                [d["from"] for d in self.demotions]
                + [self.demotions[-1]["to"]]) if self.demotions else "",
        }
