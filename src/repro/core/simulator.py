"""ZSim: the top-level bound-weave simulator.

Ties every subsystem together: the memory hierarchy (bound models +
weave components), core timing models, the scheduler and virtualization
layer, the interval barrier, and the weave engine.  Supports the four
model sets of the evaluation (IPC1/OOO cores x contention on/off) plus
the two alternative contention models of Figure 6 (M/D/1 queueing in the
bound phase, and the DRAMSim-style cycle-driven model in the weave
phase).
"""

from __future__ import annotations

import gc
import time

from repro.core.bound import BoundPhase
from repro.core.domains import CoreWeave
from repro.errors import (CheckpointError, DeadlockError, ExecutionFault,
                          RunInterrupted, WallClockExceeded)
from repro.core.host import HostModel
from repro.core.weave import WeaveEngine
from repro.cpu import make_core
from repro.exec import make_backend
from repro.exec.backend import ExecutionBackend
from repro.memory.contention import MD1Model
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs.log import get_logger
from repro.obs.tracer import TID_MAIN
from repro.stats.counters import StatsNode
from repro.virt.process import SimThread
from repro.virt.scheduler import Scheduler
from repro.virt.sysview import SystemView

CONTENTION_MODELS = ("none", "md1", "weave", "dramsim")

_log = get_logger("core.simulator")


def _flight_recorder(flight):
    """The ``flight`` argument of ZSim and ZSim.resume: None builds the
    default recorder, False turns it off, a recorder is used as given."""
    if flight is None:
        from repro.obs.flight import FlightRecorder
        return FlightRecorder()
    return None if flight is False else flight


class _MD1Memory:
    """Hierarchy wrapper adding Graphite-style M/D/1 queueing latency to
    memory accesses in the bound phase (no weave phase)."""

    def __init__(self, hierarchy):
        self.hierarchy = hierarchy
        self.config = hierarchy.config
        mem = hierarchy.config.memory
        ratio = max(1.0, hierarchy.config.core.freq_mhz / mem.bus_mhz)
        # The contended resource is each channel's data bus.
        service = max(2, int(round(4 * ratio)))
        channels = mem.controllers * mem.channels_per_controller
        self._models = [MD1Model(service) for _ in range(channels)]
        self._channels = channels

    def access(self, core_id, addr, write, cycle=0, ifetch=False):
        result = self.hierarchy.access(core_id, addr, write, cycle, ifetch)
        if "l3" in result.missed_levels:     # only an L3 miss reads memory
            line = result.line
            model = self._models[line % self._channels]
            wait = model.latency(cycle) - model.service
            result.latency += int(wait)
        return result

    def l1_probe(self, core_id):
        # An L1 hit never reaches memory, so it never queues.
        return self.hierarchy.l1_probe(core_id)

    def __getattr__(self, name):
        # Raise AttributeError (never recurse) for dunders and for
        # lookups that happen before __init__ ran — copy/pickle probe
        # for __deepcopy__/__reduce__ on half-built instances, which
        # execution-backend workers may trigger.
        if name.startswith("__") or "hierarchy" not in self.__dict__:
            raise AttributeError(
                "%s has no attribute %r" % (type(self).__name__, name))
        return getattr(self.hierarchy, name)


class SimulationResult:
    """Everything a harness needs from one simulation run."""

    def __init__(self, sim, wall_seconds):
        self.config = sim.config
        self.cores = sim.cores
        self.hierarchy = sim.hierarchy
        self.scheduler = sim.scheduler
        self.host_model = sim.host_model
        self.weave_stats = sim.weave.stats if sim.weave else None
        self.wall_seconds = wall_seconds
        self.instrs = sum(core.instrs for core in sim.cores)
        self.uops = sum(core.uops for core in sim.cores)
        self.cycles = max((core.cycle for core in sim.cores), default=0)
        self.intervals = sim.bound.intervals
        self.integrity = (sim.integrity.summary()
                          if sim.integrity is not None else None)
        self.host_exec = sim.backend.host_stats()
        self.host_dbt = self._dbt_summary(sim)

    @staticmethod
    def _dbt_summary(sim):
        """Host-side data-plane amortization counters (ISSUE 7): how much
        per-instruction work the schedule-once descriptors and the L1
        fast path actually absorbed this run."""
        tcaches = {}
        for thread in sim.scheduler.threads:
            stream = getattr(thread, "stream", None)
            tcache = getattr(stream, "tcache", None)
            if tcache is not None:
                tcaches[id(tcache)] = tcache
        translations = sum(t.translations for t in tcaches.values())
        thits = sum(t.hits for t in tcaches.values())
        lookups = translations + thits
        hierarchy = sim.hierarchy
        fast = hierarchy.fastpath_hits
        slow = hierarchy.slow_accesses
        accesses = fast + slow
        caches = hierarchy.all_caches()
        summary = {
            "translations": translations,
            "translation_hits": thits,
            "translation_hit_rate": thits / lookups if lookups else 0.0,
            "fastpath_hits": fast,
            # No such path any more; benchmarks/perf/worker.py indexes it.
            "l2_fastpath_hits": 0,
            "slow_accesses": slow,
            "fastpath_hit_rate": fast / accesses if accesses else 0.0,
            "dir_bitmask_ops": sum(c.dir_ops for c in caches),
            # Sparse per-set state: how much of the configured chip this
            # run paid for.  Counted here, never on the access path.
            "cache_sets_total": sum(c.array.num_sets for c in caches),
            "cache_sets_materialised": sum(c.array.num_materialised()
                                           for c in caches),
        }
        return summary

    @property
    def mips(self):
        """Simulation speed in simulated MIPS (the paper's metric)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.instrs / self.wall_seconds / 1e6

    @property
    def ipc(self):
        return self.instrs / self.cycles if self.cycles else 0.0

    def core_mpki(self, level):
        """Aggregate MPKI across cores at one cache level."""
        misses = sum({"l1i": c.l1i_misses, "l1d": c.l1d_misses,
                      "l2": c.l2_misses, "l3": c.l3_misses}[level]
                     for c in self.cores)
        if self.instrs == 0:
            return 0.0
        return 1000.0 * misses / self.instrs

    def branch_mpki(self):
        mispredicts = sum(getattr(c, "mispredicts", 0) for c in self.cores)
        if self.instrs == 0:
            return 0.0
        return 1000.0 * mispredicts / self.instrs

    def stats(self):
        root = StatsNode("sim")
        root.set("instrs", self.instrs)
        root.set("uops", self.uops)
        root.set("cycles", self.cycles)
        root.set("intervals", self.intervals)
        for core in self.cores:
            core.fill_stats(root.child("core%d" % core.core_id))
        self.hierarchy.fill_stats(root.child("mem"))
        host = root.child("host")
        self.host_model.fill_stats(host)
        # Host-side too, so never in simulated-result comparisons: the
        # backend pool's counters, the data plane's hit rates (they
        # depend on interval sizing and wrappers) and the sentinel's (a
        # checkpoint adds any audit the stride skipped).
        for name, counters in (("exec", self.host_exec),
                               ("dbt", self.host_dbt),
                               ("integrity", self.integrity)):
            if counters:
                node = host.child(name)
                for key, value in sorted(counters.items()):
                    node.set(key, value)
        if self.weave_stats is not None:
            weave = root.child("weave")
            weave.set("intervals", self.weave_stats.intervals)
            weave.set("events", self.weave_stats.events)
            weave.set("crossings", self.weave_stats.crossings)
            weave.set("crossing_requeues",
                      self.weave_stats.crossing_requeues)
            weave.set("total_delay", self.weave_stats.total_delay)
        return root


class ZSim:
    """The simulator (one instance per simulation run)."""

    def __init__(self, config, threads=(), contention_model="weave",
                 profiler=None, host_threads=HostModel.DEFAULT_THREADS,
                 mem_wrapper=None, telemetry=None, backend=None,
                 flight=None):
        if contention_model not in CONTENTION_MODELS:
            raise ValueError("Unknown contention model: %r"
                             % (contention_model,))
        config.validate()
        self.config = config
        self.contention_model = contention_model
        #: Optional repro.obs.Telemetry context; None = no-op telemetry.
        self._telem = telemetry
        build_weave = contention_model in ("weave", "dramsim")
        self.hierarchy = MemoryHierarchy(config, build_weave=build_weave,
                                         profiler=profiler,
                                         telemetry=telemetry)
        if contention_model == "dramsim":
            self._swap_in_dramsim()
        mem = self.hierarchy
        if contention_model == "md1":
            mem = _MD1Memory(self.hierarchy)
        if mem_wrapper is not None:
            mem = mem_wrapper(mem)
        self.mem = mem
        # Heterogeneous chips: per-core config overrides (e.g. a few
        # OOO cores plus many simple cores sharing the L3).
        overrides = config.hetero_cores or {}
        self.cores = [make_core(i, mem, overrides.get(i, config.core))
                      for i in range(config.num_cores)]
        self.scheduler = Scheduler(config.num_cores,
                                   system_view=SystemView(config),
                                   telemetry=telemetry)
        bw = config.boundweave
        self.bound = BoundPhase(self.cores, self.scheduler,
                                shuffle=bw.shuffle_wake_order, seed=bw.seed,
                                telemetry=telemetry)
        self.weave = None
        self.core_weaves = []
        if build_weave:
            self.core_weaves = [
                CoreWeave("core%d" % i, i, tile=config.core_tile(i))
                for i in range(config.num_cores)]
            mlp_window = {}
            for i in range(config.num_cores):
                model = overrides.get(i, config.core).model
                mlp_window[i] = (1 if model == "simple"
                                 else bw.ooo_mlp_window)
            self.weave = WeaveEngine(
                self.core_weaves, self.hierarchy.weave_components,
                config.num_tiles, bw.num_domains, floor=self.hierarchy.floor,
                crossing_deps=bw.crossing_dependencies,
                mlp_window=mlp_window, telemetry=telemetry)
        self.host_model = HostModel(host_threads)
        # Execution backend: how bound passes and weave intervals run on
        # the host (serial reference, worker pool, or two-stage
        # pipeline).  None defers to config.boundweave.backend.
        if backend is None:
            backend = bw.backend or "serial"
        if isinstance(backend, str):
            backend = make_backend(backend)
        elif not isinstance(backend, ExecutionBackend):
            raise TypeError("backend must be a name or an "
                            "ExecutionBackend, got %r" % (backend,))
        self.backend = backend
        self.backend.start(self)
        self.host_model.backend_name = self.backend.name
        if bw.watchdog_budget_s:
            self.backend.watchdog_budget = bw.watchdog_budget_s
        #: Flight recorder (see repro.obs.flight): an always-on bounded
        #: ring of run events, frozen into a post-mortem capsule on any
        #: crash.  Default-on because its per-event cost is a deque
        #: append; pass ``flight=False`` to disable (call sites guard on
        #: ``flight is not None``), or a configured FlightRecorder to
        #: set capacity/capsule_dir.
        self.flight = _flight_recorder(flight)
        #: Optional live run monitor (repro.obs.monitor.RunMonitor),
        #: installed by the CLI's --status-file flag.
        self.monitor = None
        #: State-integrity sentinel (repro.resilience.integrity):
        #: fingerprint chain at every barrier plus invariant audits at
        #: the configured stride.  Part of *simulated* state on purpose
        #: (it is not in checkpoint._detached): restores rewind the
        #: chain with the state it fingerprints.  None when
        #: boundweave.audit_every is 0 (CLI: --audit-every).
        self.integrity = None
        if bw.audit_every:
            from repro.resilience.integrity import IntegritySentinel
            self.integrity = IntegritySentinel(audit_every=bw.audit_every)
        #: Resilience layer hooks (see repro.resilience): a Checkpointer
        #: and wall budget installed by the harness.  None means off.
        self.checkpointer = None
        self.max_wall_seconds = None
        #: Cooperative stop: set by request_stop() (signal handlers);
        #: checked at each interval barrier, where state is consistent.
        self._stop_requested = None
        self._resume = None
        if telemetry is not None and telemetry.tracer is not None:
            self._name_tracks(telemetry.tracer)
        for thread in threads:
            self.add_thread(thread)

    # ------------------------------------------------------------------

    def add_thread(self, thread):
        if not isinstance(thread, SimThread):
            raise TypeError("add_thread expects a SimThread; wrap streams "
                            "with repro.virt.SimThread")
        self.scheduler.add_thread(thread)

    def _swap_in_dramsim(self):
        """Replace the native memory-controller weave models with the
        cycle-driven DRAMSim-style model (the 'glue code' experiment)."""
        from repro.memory.dramsim import DRAMSimWeave
        mainmem = self.hierarchy.mainmem
        components = self.hierarchy.weave_components
        for idx, weave in enumerate(mainmem.ctrl_weaves):
            dram = DRAMSimWeave("dramsim%d" % idx, self.config.memory,
                                self.config.core.freq_mhz,
                                tile=mainmem.controller_tile(idx))
            mainmem.ctrl_weaves[idx] = dram
            if weave in components:
                components[components.index(weave)] = dram

    # ------------------------------------------------------------------

    def run(self, max_instrs=None, max_cycles=None, max_intervals=None,
            telemetry=None):
        """Run to completion (all threads done) or to a limit.  Returns a
        :class:`SimulationResult`.  ``telemetry`` installs (or replaces)
        the observability context for this run."""
        if telemetry is not None:
            self.attach_telemetry(telemetry)
        telem = self._telem
        tracer = telem.tracer if telem is not None else None
        metrics = telem.metrics if telem is not None else None
        interval = self.config.boundweave.interval_cycles
        limit = interval
        _log.info("run start: %s, %d cores, %s contention, interval %d",
                  self.config.name, self.config.num_cores,
                  self.contention_model, interval)
        start_wall = time.perf_counter()
        intervals_run = 0
        if self._resume is not None:
            # Restored from a checkpoint: continue the interval loop
            # exactly where the checkpointed run left off.
            intervals_run, limit = self._resume
            self._resume = None
            _log.info("resuming at interval %d (limit cycle %d)",
                      intervals_run, limit)
        run_state = "done"
        # An interval's records, trace lists and weave events hold no
        # reference cycles: they die by refcount at the barrier, so
        # gen-0 collections mostly scan survivors for nothing; raising
        # the thresholds for the run's duration trims that overhead
        # without changing observable behavior (restored in finally).
        gc_thresholds = gc.get_threshold()
        gc.set_threshold(200_000, 50, 50)
        try:
            while not self._done(self.scheduler, intervals_run,
                                 max_instrs, max_cycles, max_intervals):
                self._check_wall_budget(start_wall, intervals_run, limit)
                self._check_stop_request(intervals_run, limit)
                bound_start, bound_end, weave_seconds, domain_events = \
                    self._execute_interval(limit)
                intervals_run += 1
                # Interval-barrier observability (dereferenced per
                # iteration: the objects are host-side and could be
                # swapped by a harness).  Every observer reads the one
                # (cycle, instrs) pair.
                flight = self.flight
                monitor = self.monitor
                if (telem is not None or flight is not None
                        or monitor is not None):
                    cycle = max(c.cycle for c in self.cores)
                    instrs = sum(c.instrs for c in self.cores)
                    if telem is not None:
                        self._record_interval_telemetry(
                            tracer, metrics, intervals_run, limit, cycle,
                            instrs, bound_start, bound_end,
                            weave_seconds, domain_events)
                    if flight is not None:
                        flight.record("interval",
                                      interval=intervals_run,
                                      limit=limit, cycle=cycle,
                                      instrs=instrs)
                    if monitor is not None:
                        monitor.update(self, intervals_run, limit, cycle,
                                       instrs)
                limit = self._advance_limit(limit, interval)
                if self.checkpointer is not None:
                    # After _advance_limit so the capsule records the
                    # next interval's limit (what resume continues with).
                    self.checkpointer.maybe_save(self, intervals_run,
                                                 limit)
        except WallClockExceeded as exc:
            # Graceful stops (wall budget, SIGTERM/SIGINT): resumable
            # by design, but still worth a capsule — a stopped
            # multi-hour run should leave its final seconds behind.
            run_state = "stopped"
            if self.flight is not None:
                self.flight.capture(self, kind="stopped",
                                    message=str(exc),
                                    interval=intervals_run)
            raise
        except BaseException as exc:
            # Deadlocks, execution and integrity faults, and plain
            # crashes: dump the black box before unwinding.  A typed
            # fault ends the run and names its interval; the newest
            # checkpoint resumes it.
            run_state = "failed"
            if self.flight is not None:
                self.flight.capture(
                    self, kind=type(exc).__name__, message=str(exc),
                    interval=getattr(exc, "interval", None)
                    or intervals_run)
            raise
        finally:
            gc.set_threshold(*gc_thresholds)
            self.backend.shutdown()
            if self.monitor is not None:
                self.monitor.finish(self, run_state)
        wall = time.perf_counter() - start_wall
        result = SimulationResult(self, wall)
        _log.info("run done: %d instrs, %d cycles, %d intervals, "
                  "%.3f s wall (%.3f MIPS)", result.instrs, result.cycles,
                  intervals_run, wall, result.mips)
        return result

    def _execute_interval(self, limit):
        """One interval of the bound-weave loop: bound passes to the
        limit cycle, weave phase with contention feedback, host-model
        accounting, and the barrier preemption sweep.  Returns the
        ``(bound_start, bound_end, weave_seconds, domain_events)``
        telemetry tuple."""
        backend = self.backend
        bound_start = time.perf_counter()
        try:
            bound_times = self.bound.run_interval(limit, backend=backend)
            bound_end = time.perf_counter()
            # Silent-corruption seam: core-selector `corrupt` faults
            # damage architectural state between the phases, which only
            # the integrity sentinel detects (see FaultPlan.scribble).
            plan = getattr(backend, "fault_plan", None)
            if plan is not None:
                plan.scribble(self, self.bound.intervals)
            weave_seconds, domain_events = self._weave_interval(backend)
        except ExecutionFault as fault:
            # A weave drain loop cannot name the interval it faulted in.
            fault.interval = fault.interval or self.bound.intervals
            raise
        self.host_model.record_interval(
            bound_times, domain_events, weave_seconds,
            measured_seconds=(bound_end - bound_start) + weave_seconds)
        self.bound.preempt(limit)
        # Fingerprint (and, on stride, audit) the barrier state; an
        # IntegrityError ends the run with its post-mortem capsule.
        sentinel = self.integrity
        if sentinel is not None:
            sentinel.observe(self, self.bound.intervals)
        return bound_start, bound_end, weave_seconds, domain_events

    def _check_wall_budget(self, start_wall, intervals_run, limit):
        """Raise :class:`WallClockExceeded` when the run outlived its
        ``max_wall_seconds`` budget, writing a final checkpoint first
        when checkpointing is on (the run is resumable)."""
        budget = self.max_wall_seconds
        if budget is None:
            return
        elapsed = time.perf_counter() - start_wall
        if elapsed < budget:
            return
        path = None
        if self.checkpointer is not None:
            path = self.checkpointer.save(self, intervals_run, limit)
        raise WallClockExceeded(
            "wall-clock budget of %.1f s exhausted after %.1f s "
            "(%d intervals)%s"
            % (budget, elapsed, intervals_run,
               "; resume from %s" % path if path else ""),
            budget_s=budget, elapsed_s=elapsed, intervals=intervals_run,
            checkpoint_path=path)

    def request_stop(self, reason="stop requested"):
        """Ask the run to stop at the next interval barrier (safe to
        call from a signal handler: only sets a flag).  The run loop
        then writes a final checkpoint (when checkpointing is on) and
        raises :class:`~repro.errors.RunInterrupted` — the same
        resumable exit path as an exhausted wall-clock budget."""
        self._stop_requested = reason

    def _check_stop_request(self, intervals_run, limit):
        """Honor request_stop() at the interval barrier (a consistent
        global state, so the final checkpoint is sound)."""
        reason = self._stop_requested
        if reason is None:
            return
        path = None
        if self.checkpointer is not None:
            path = self.checkpointer.save(self, intervals_run, limit)
        raise RunInterrupted(
            "run interrupted (%s) after %d intervals%s"
            % (reason, intervals_run,
               "; resume from %s" % path if path else ""),
            reason=reason, intervals=intervals_run,
            checkpoint_path=path)

    def _done(self, scheduler, intervals_run, max_instrs, max_cycles,
              max_intervals):
        """Termination predicate of the interval loop."""
        if scheduler.all_done:
            return True
        if max_intervals is not None and intervals_run >= max_intervals:
            return True
        if max_instrs is not None and \
                sum(c.instrs for c in self.cores) >= max_instrs:
            return True
        return max_cycles is not None and \
            max(c.cycle for c in self.cores) >= max_cycles

    def _weave_interval(self, backend):
        """Run the weave phase for the traces of the interval that just
        ended (through the execution backend), apply the resulting
        contention delays, and raise the interval floor to the lowest
        cycle any core (idle ones at their frozen clocks) can still issue
        an access at.  Returns (weave_seconds, domain_events)."""
        if self.weave is None:
            for core in self.cores:
                core.trace.clear()
            return 0.0, []
        floor = float("inf")
        traces = {}
        for core in self.cores:
            if core.trace:
                traces[core.core_id] = core.trace
                core.trace = []
            else:  # no trace, no delay: its floor is final
                floor = min(floor, core.issue_floor)
        weave_start = time.perf_counter()
        delays = backend.run_weave(self.weave, traces)
        weave_seconds = time.perf_counter() - weave_start
        for core_id, delay in delays.items():
            core = self.cores[core_id]
            core.apply_delay(delay)
            floor = min(floor, core.issue_floor)
        self.weave.floor.cycle = floor
        return weave_seconds, self.weave.last_interval_domain_events

    def attach_telemetry(self, telemetry):
        """Install an observability context on this simulator and every
        instrumented subsystem (bound phase, weave engine, hierarchy,
        scheduler).  Pass None to detach."""
        self._telem = telemetry
        self.bound.attach_telemetry(telemetry)
        self.scheduler.attach_telemetry(telemetry)
        self.hierarchy.attach_telemetry(telemetry)
        if self.weave is not None:
            self.weave.attach_telemetry(telemetry)
        if telemetry is not None and telemetry.tracer is not None:
            self._name_tracks(telemetry.tracer)

    def _name_tracks(self, tracer):
        from repro.obs.tracer import TID_CORE, TID_DOMAIN
        for core in self.cores:
            tracer.name_track(TID_CORE + core.core_id,
                              "bound core%d" % core.core_id)
        if self.weave is not None:
            for domain in self.weave.domains:
                tracer.name_track(TID_DOMAIN + domain.domain_id,
                                  "weave domain%d" % domain.domain_id)

    def _record_interval_telemetry(self, tracer, metrics, interval_no,
                                   limit, cycle, instrs, bound_start,
                                   bound_end, weave_seconds,
                                   domain_events):
        """One interval's worth of spans and metric samples (only called
        when telemetry is attached)."""
        if tracer is not None:
            tracer.complete_raw("bound", "phase", bound_start, bound_end,
                                TID_MAIN, {"interval": interval_no,
                                           "limit_cycle": limit})
            if self.weave is not None:
                tracer.complete_raw("weave", "phase", bound_end,
                                    bound_end + weave_seconds, TID_MAIN,
                                    {"interval": interval_no,
                                     "events": sum(domain_events)})
            tracer.instant("barrier", "interval", TID_MAIN,
                           {"interval": interval_no, "cycle": cycle,
                            "instrs": instrs})
        if metrics is not None:
            self.backend.sample_idle(metrics)
            metrics.sample_interval(
                interval_no, cycle=cycle, instrs=instrs,
                bound_seconds=bound_end - bound_start,
                weave_seconds=weave_seconds,
                weave_events=sum(domain_events),
                runnable_threads=self.scheduler.runnable_count())
        _log.debug("interval %d: cycle %d, %d instrs, bound %.3f ms, "
                   "weave %.3f ms", interval_no, cycle, instrs,
                   (bound_end - bound_start) * 1e3, weave_seconds * 1e3)

    def _advance_limit(self, limit, interval):
        scheduler = self.scheduler
        min_cycle = min(core.cycle for core in self.cores)
        next_limit = max(limit, min_cycle) + interval
        if (not scheduler.all_done
                and scheduler.runnable_count(next_limit) == 0
                and not any(c.has_thread for c in self.cores)):
            wake = scheduler.next_wake_cycle()
            if wake is None:
                blocked = scheduler.blocked_report()
                raise DeadlockError(
                    "Deadlock: no runnable threads, no sleepers; "
                    "blocked threads: %s"
                    % ", ".join(t["thread"] for t in blocked),
                    blocked=blocked, next_wake=None,
                    interval=self.bound.intervals)
            next_limit = max(next_limit, wake + interval)
        return next_limit

    # ------------------------------------------------------------------
    # Checkpoint resume
    # ------------------------------------------------------------------

    @classmethod
    def resume(cls, capsule, threads, backend=None, telemetry=None,
               flight=None):
        """Reconstruct a simulator from a checkpoint capsule (see
        :func:`repro.resilience.read_checkpoint`).

        ``threads`` must be freshly built by the *same* workload recipe
        (spec, seed, thread count) as the checkpointed run: the saved
        streams carry only their position, and each is fast-forwarded
        over the matching fresh thread's generator — deterministic by
        the workload seeding contract.  The returned simulator's
        ``run()`` continues the interval loop where the checkpointed
        run stopped and produces the same final stats tree as an
        uninterrupted run.
        """
        sim = capsule["sim"]
        saved = sim.scheduler.threads
        threads = list(threads)
        if len(threads) != len(saved):
            raise CheckpointError(
                "checkpoint has %d threads but the workload built %d: "
                "resume needs the original workload recipe"
                % (len(saved), len(threads)))
        for saved_thread, fresh in zip(saved, threads):
            saved_thread.stream.resume_source(fresh.stream._stream)
        if backend is None:
            backend = capsule.get("backend") or "serial"
        if isinstance(backend, str):
            backend = make_backend(backend)
        sim.backend = backend
        backend.start(sim)
        sim.host_model.backend_name = backend.name
        bw = sim.config.boundweave
        if bw.watchdog_budget_s:
            backend.watchdog_budget = bw.watchdog_budget_s
        if telemetry is not None:
            sim.attach_telemetry(telemetry)
        # Checkpoints detach the host-side observers (see
        # resilience.checkpoint._detached); the resumed run gets fresh ones.
        sim.flight = _flight_recorder(flight)
        sim.monitor = None
        # With a sentinel aboard, prove the capsule restored exactly
        # what was saved before running a single interval on top of it.
        record = (capsule.get("meta") or {}).get("integrity")
        if record and sim.integrity is not None:
            from repro.resilience.integrity import verify_state
            verify_state(sim, record, context="resume")
        sim._resume = (capsule["interval"], capsule["limit"])
        return sim
