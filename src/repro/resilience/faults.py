"""Deterministic fault injection for the execution backends.

A :class:`FaultPlan` is a seeded, fully deterministic schedule of host
faults — *worker N dies at interval K*, *the weave stage stalls*, *a
job outlives the watchdog budget*, *an event timestamp is corrupted so
the horizon invariant fires*.  Backends consult the plan at two seams:

* **Job dispatch** (``plan.wrap``): every job handed to a pool worker or
  the pipeline stage carries a context dict (phase, interval, worker,
  core, domain).  The first unfired fault whose selectors match wraps
  the job; each fault fires exactly once.
* **Queue corruption** (``plan.corrupt``): after an executor seeds the
  weave queues for an interval, matching :class:`CorruptEvent` faults
  rewrite one queued timestamp in place — the heap surfaces it out of
  order and :class:`~repro.errors.HorizonViolation` fires on pop.

Faults simulate *host* failures, never simulated-program behavior.  A
fault that surfaces ends the run typed with a post-mortem capsule, and a
resume from the newest checkpoint without the plan must produce a stats
tree identical to a fault-free run — that is the property
``tests/test_resilience.py`` asserts and the CI ``fault-exit`` job
guards.

The plan grammar (CLI ``--inject-faults``) is ``;``-separated entries::

    kind@interval[:selector]...[:seconds]

    kill@3:w0          kill worker 0 at its first interval-3 job
    stall@5:w1:0.5     worker 1 hangs (up to 0.5 s) at interval 5
    delay@6:w0:0.2     worker 0's job sleeps 0.2 s before running
    raise@2:c1         the job simulating core 1 raises after running
    corrupt@4:d1       corrupt a queued timestamp in weave domain 1
    sigkill@3:w0       SIGKILL worker process 0 at interval 3
    sigstop@4          SIGSTOP a (seeded-)random worker at interval 4

``sigkill``/``sigstop`` are *real-process* faults: the process backend
delivers the signal to a live OS worker right after forking its pool
(``plan.process_faults``); thread backends never match them.

Selectors: ``w<N>`` worker index, ``c<N>`` core id, ``d<N>`` domain id,
or a literal phase name (``bound``, ``weave``, ``weave-stage``).
Intervals are 1-based, matching the engine's interval counters.
"""

from __future__ import annotations

import random
import signal
import time

from repro.errors import ConfigError
from repro.exec.backend import WorkerKilled

_PHASES = ("bound", "weave", "weave-stage")


class Fault:
    """One scheduled fault.  Subclasses define ``kind`` and either
    ``wrap`` (dispatch faults) or ``apply`` (queue-corruption faults)."""

    kind = "fault"
    #: Dispatch faults are consulted by ``plan.wrap``; non-dispatch
    #: faults (queue corruption) by ``plan.corrupt``.
    dispatch = True
    #: Real-process faults (signals to live worker processes) are
    #: consulted by ``plan.process_faults`` instead of either seam.
    process = False

    def __init__(self, interval, worker=None, core=None, domain=None,
                 phase=None, seconds=None):
        self.interval = interval
        self.worker = worker
        self.core = core
        self.domain = domain
        self.phase = phase
        self.seconds = seconds
        self.fired = False

    def matches(self, ctx):
        if self.fired or ctx.get("interval") != self.interval:
            return False
        for key in ("worker", "core", "domain", "phase"):
            want = getattr(self, key)
            if want is not None and ctx.get(key) != want:
                return False
        return True

    def wrap(self, fn, ctx, backend, epoch):
        raise NotImplementedError

    def describe(self):
        sel = [s for s in ("w%s" % self.worker if self.worker is not None
                           else None,
                           "c%s" % self.core if self.core is not None
                           else None,
                           "d%s" % self.domain if self.domain is not None
                           else None,
                           self.phase) if s]
        tail = ":".join([""] + sel) if sel else ""
        if self.seconds is not None:
            tail += ":%g" % self.seconds
        return "%s@%d%s" % (self.kind, self.interval, tail)

    def __repr__(self):
        return "%s(%s%s)" % (type(self).__name__, self.describe(),
                             ", fired" if self.fired else "")


class KillWorker(Fault):
    """The worker dies without a trace: its thread exits without
    completing the job, so the only symptom is missing progress — the
    watchdog budget is what surfaces it."""

    kind = "kill"

    def wrap(self, fn, ctx, backend, epoch):
        def wrapper(worker_index):
            raise WorkerKilled(
                "injected: worker %s killed at interval %s (%s)"
                % (ctx.get("worker"), ctx.get("interval"),
                   ctx.get("phase")))
        return wrapper


class StallWorker(Fault):
    """The worker hangs instead of working: it spins until the faulted
    run's shutdown bumps the pool epoch (or ``seconds``/the hard cap
    elapses).  If no shutdown ever comes, the job degrades into a plain
    delay so an unwatched run stays sound."""

    kind = "stall"
    HARD_CAP_S = 30.0

    def wrap(self, fn, ctx, backend, epoch):
        def wrapper(worker_index):
            deadline = time.perf_counter() + (self.seconds
                                              or self.HARD_CAP_S)
            while (backend.pool_epoch() == epoch
                   and time.perf_counter() < deadline):
                time.sleep(0.002)
            if backend.pool_epoch() == epoch:
                fn(worker_index)
        return wrapper


class DelayJob(Fault):
    """The job runs late — past the watchdog budget if ``seconds``
    exceeds it.  After the sleep the job only runs if its epoch is
    still current; a straggler must not mutate a run that already
    ended."""

    kind = "delay"
    DEFAULT_S = 0.05

    def wrap(self, fn, ctx, backend, epoch):
        def wrapper(worker_index):
            time.sleep(self.seconds or self.DEFAULT_S)
            if backend.pool_epoch() == epoch:
                fn(worker_index)
        return wrapper


class RaiseInJob(Fault):
    """The job raises a plain RuntimeError *after* doing its work (so
    pass-ordering obligations like the bound turnstile are met and the
    hang-free guarantee holds even unwatched).  State WAS mutated when
    the error surfaces, so only a barrier capsule is a clean restart."""

    kind = "raise"

    def wrap(self, fn, ctx, backend, epoch):
        def wrapper(worker_index):
            fn(worker_index)
            raise RuntimeError(
                "injected failure in %s job (interval %s, worker %s)"
                % (ctx.get("phase"), ctx.get("interval"),
                   ctx.get("worker")))
        return wrapper


class CorruptEvent(Fault):
    """State corruption, in two flavors selected by the selector:

    * ``corrupt@I[:dN]`` (domain selector or none) rewrites one queued
      weave timestamp to a wildly early cycle.  The entry sits at a
      heap leaf; the first pop promotes it to the root, the second pop
      surfaces it below the domain's interval floor and
      :class:`~repro.errors.HorizonViolation` fires — a *loud* fault.
    * ``corrupt@I:cN`` (core selector) silently invalidates a line the
      core's L1D still holds from the parent cache's array, leaving the
      coherence directory untouched — an inclusion violation with **no
      typed symptom at all**.  Only the integrity sentinel's auditor
      (``--audit-every``) detects it; an unaudited run carries the
      damage into every downstream interval and checkpoint (see
      repro.resilience.integrity).
    """

    kind = "corrupt"
    dispatch = False
    DELTA = 1 << 40

    def apply(self, weave, rng):
        domains = list(weave.domains)
        if self.domain is not None:
            domains = [d for d in domains if d.domain_id == self.domain]
        else:
            rng.shuffle(domains)
        for domain in domains:
            # A leaf of a queue with >= 2 entries: heappop's sift
            # surfaces it on the second pop, below the first pop's cycle.
            if len(domain._queue) >= 2:
                cycle, seq, item = domain._queue[-1]
                domain._queue[-1] = (cycle - self.DELTA, seq, item)
                self.fired = True
                return True
        return False

    def apply_state(self, sim, rng):
        """Silent flavor (``c<N>`` selector): drop the parent cache's
        copy of a line the victim core's L1D still holds.  The
        directory is deliberately left stale — the corruption must be
        symptomless until an audit walks the hierarchy.  Deterministic:
        residency iterates set by set, least recently used first,
        identical across same-seeded runs."""
        core = self.core or 0
        l1d = sim.hierarchy.l1d[min(core, len(sim.hierarchy.l1d) - 1)]
        for line, _state in l1d.array.resident_lines():
            # An L1's parent is an L2 or an L3 bank, never main memory.
            array = l1d.parent_select(line)[0].array
            if array.lookup(line, touch=False) is not None:
                array.invalidate(line)
                self.fired = True
                return True
        return False


class ProcessSignalFault(Fault):
    """Base for real-process faults: a signal delivered to a live OS
    worker process (the process backend's pool).  Applied by the
    backend right after it forks the pool for the matching interval;
    the ``w<N>`` selector picks the victim slot, otherwise a seeded
    random worker dies."""

    dispatch = False
    process = True
    signum = None

    def pick_worker(self, num_workers, rng=None):
        """Victim slot when no ``w<N>`` selector was given (or the
        selector is out of range for this pass)."""
        rng = rng or random
        return rng.randrange(max(1, num_workers))


class SigKillWorker(ProcessSignalFault):
    """SIGKILL a live worker process mid-interval: the hard host fault
    (OOM killer, operator kill).  The driver sees the pipe close and
    runs the worker's cores inline; the pool is respawned at the next
    barrier."""

    kind = "sigkill"
    signum = signal.SIGKILL


class SigStopWorker(ProcessSignalFault):
    """SIGSTOP a live worker process: it stays alive but silent, so the
    only symptom is missing heartbeats — the heartbeat budget is what
    surfaces it (the driver kills the stopped worker and degrades its
    cores to inline execution)."""

    kind = "sigstop"
    signum = signal.SIGSTOP


_KINDS = {cls.kind: cls for cls in (KillWorker, StallWorker, DelayJob,
                                    RaiseInJob, CorruptEvent,
                                    SigKillWorker, SigStopWorker)}


class FaultPlan:
    """A deterministic schedule of faults (see module docs)."""

    def __init__(self, faults=(), seed=0):
        self.faults = list(faults)
        #: Seeded: victim picks and corrupted timestamps repeat.
        self.rng = random.Random(seed)

    # -- construction --------------------------------------------------

    @classmethod
    def parse(cls, spec, seed=0):
        """Parse a ``;``-separated plan string; raises
        :class:`~repro.errors.ConfigError` on malformed entries."""
        faults = [cls._parse_one(part)
                  for part in (p.strip() for p in spec.split(";")) if part]
        if not faults:
            raise ConfigError("Empty fault plan: %r" % (spec,))
        return cls(faults, seed=seed)

    @staticmethod
    def _parse_one(part):
        head, sep, rest = part.partition("@")
        if not sep or head not in _KINDS:
            raise ConfigError(
                "Bad fault spec %r: want kind@interval[:selector...]"
                "[:seconds] with kind in %s" % (part, sorted(_KINDS)))
        fields = rest.split(":")
        try:
            interval = int(fields[0])
        except (ValueError, IndexError):
            raise ConfigError("Bad fault interval in %r" % (part,))
        kwargs = {}
        for field in fields[1:]:
            if not field:
                continue
            tag, num = field[0], field[1:]
            if tag == "w" and num.isdigit():
                kwargs["worker"] = int(num)
            elif tag == "c" and num.isdigit():
                kwargs["core"] = int(num)
            elif tag == "d" and num.isdigit():
                kwargs["domain"] = int(num)
            elif field in _PHASES:
                kwargs["phase"] = field
            else:
                try:
                    kwargs["seconds"] = float(field)
                except ValueError:
                    raise ConfigError(
                        "Bad fault selector %r in %r" % (field, part))
        return _KINDS[head](interval, **kwargs)

    # -- backend seams -------------------------------------------------

    def wrap(self, fn, ctx, backend, epoch):
        """Called at job dispatch; returns ``fn``, possibly wrapped by
        the first unfired matching fault (which is thereby consumed)."""
        for fault in self.faults:
            if fault.dispatch and fault.matches(ctx):
                fault.fired = True
                flight = getattr(getattr(backend, "_sim", None),
                                 "flight", None)
                if flight is not None:
                    flight.record("fault_injected", fault=fault.kind,
                                  interval=ctx.get("interval"),
                                  phase=ctx.get("phase"),
                                  worker=ctx.get("worker"),
                                  core=ctx.get("core"),
                                  domain=ctx.get("domain"))
                return fault.wrap(fn, ctx, backend, epoch)
        return fn

    def corrupt(self, weave, interval):
        """Called after an executor seeds the weave queues.  Core-
        selector corrupt faults are the *silent* flavor and belong to
        the :meth:`scribble` seam, never to a weave queue."""
        for fault in self.faults:
            if (not fault.dispatch and not fault.process
                    and not fault.fired and fault.interval == interval
                    and fault.core is None):
                fault.apply(weave, self.rng)

    def scribble(self, sim, interval):
        """Silent state-corruption seam: called by the simulator between
        the bound and weave phases of every interval (all backends,
        serial included).  Matching ``corrupt@I:cN`` faults damage
        architectural state directly — the integrity sentinel is the
        only thing that can detect them."""
        for fault in self.faults:
            if (isinstance(fault, CorruptEvent)
                    and fault.core is not None and not fault.fired
                    and fault.interval == interval):
                if fault.apply_state(sim, self.rng):
                    flight = getattr(sim, "flight", None)
                    if flight is not None:
                        flight.record("fault_injected", fault=fault.kind,
                                      interval=interval, core=fault.core,
                                      silent=True)

    def process_faults(self, interval):
        """Unfired real-process faults for ``interval`` (the process
        backend applies them right after forking its pool; the backend
        marks them fired once the signal is delivered)."""
        return [fault for fault in self.faults
                if fault.process and not fault.fired
                and fault.interval == interval]

    def unfired(self):
        """The faults that never fired, in plan order."""
        return [fault for fault in self.faults if not fault.fired]

    def __repr__(self):
        return "FaultPlan(%s)" % "; ".join(f.describe()
                                           for f in self.faults)
