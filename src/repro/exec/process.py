"""The process backend: crash-tolerant speculation on OS worker processes.

The thread backends are GIL-bound and share one address space: a worker
that segfaults, gets OOM-killed, or is SIGKILLed by the host takes the
whole run with it.  This backend puts bound-phase work in *real
processes*, forked at the interval barrier, so a dying worker can cost
at most wasted speculation — never corrupted simulator state.

How it stays exact (the backend contract: wall time may change,
simulated results may not):

* **Fork is the snapshot.**  At each bound pass the driver forks the
  worker pool; copy-on-write gives every worker a bit-exact replica of
  the full simulator — including the unpicklable instruction-stream
  generators — with no serialization step.  Forking at the barrier is
  also the respawn mechanism: a worker that died simply is not forked
  *from*; the next pass starts from the authoritative driver state.
* **Workers speculate, the driver commits.**  A core's interval run is
  a deterministic function of (core-private state, stream records,
  access results).  Each worker runs its shard's cores against the
  forked replica, recording every ``mem.access`` call — arguments plus
  a fingerprint of the result — and ships back the end-of-run core
  state over a picklable pipe protocol.  The driver then *validates* in
  strict wake order: it replays the recorded accesses against the
  authoritative hierarchy (producing the exact serial side effects) and
  compares fingerprints.  A full match proves the speculated inputs
  were what a serial run would have seen, so the shipped core state is
  committed and the stream advanced.  Any mismatch (cross-core sharing
  changed an access result) falls back to an inline re-run that serves
  the already-applied replay prefix, so no access touches the hierarchy
  twice.  Cores whose speculation died with their worker — or never ran
  (syscalls need the shared scheduler) — run inline, which *is* the
  serial semantics.  Every path lands on the same stats tree.
* **Supervision.**  A heartbeat/progress loop bounds how long the
  driver waits on the pipes: a SIGKILLed worker surfaces as EOF, a
  SIGSTOPped one exhausts the heartbeat budget and is killed by the
  driver.  Either way its cores run inline and the pool is respawned —
  epoch-fenced, so a stale message from a previous generation is
  dropped — at the next pass.  Systemic failure (fork errors or the
  whole pool dying repeatedly) raises a typed
  :class:`~repro.errors.ProcessPoolError`, an execution fault that ends
  the run typed; ``--resume`` continues it from its newest checkpoint.

The weave phase runs inline on the driver: weave events hold live
component references (not picklable without an event IR) and the
crossing sync points would force a driver round-trip per horizon batch,
which measures slower than just draining the queues in-process.  The
bound phase is where the core-model time is, and it dominates.

Counters land in ``stats()["host"]["exec"]`` (forks, deaths, heartbeat
kills, respawns, commits vs rejected speculations, inline fallbacks)
and per-worker tracer lanes show each worker process's busy span.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time
from multiprocessing.connection import wait as _conn_wait

from repro.cpu.base import RunOutcome
from repro.errors import ProcessPoolError
from repro.exec.backend import ExecutionBackend
from repro.obs.log import get_logger
from repro.obs.tracer import TID_WORKER

_log = get_logger("exec.process")

#: Fewer runnable cores than this is not worth a fork.
MIN_SPECULATE_CORES = 2

#: Consecutive systemic pool failures (fork errors or the whole pool
#: dying) tolerated before a pass raises ProcessPoolError, which ends
#: the run typed.
MAX_POOL_FAILURES = 2

#: Bounded-grace shutdown: seconds to wait for a worker to exit before
#: it is killed outright.
SHUTDOWN_GRACE_S = 2.0

#: Tracer-lane stride between respawn generations of the same worker
#: slot.  A respawned worker is a different OS process; giving it a
#: fresh lane (``TID_WORKER + gen * stride + slot``) keeps its spans
#: from interleaving into its dead predecessor's lane in Chrome traces.
LANE_STRIDE = 128

#: Recovery action recorded in worker-death capsules (what the driver
#: does, so ``repro report`` can say it).
_DEATH_RECOVERY = ("victim cores re-run inline on the driver; "
                   "pool respawned at the next barrier")


def _fingerprint(result):
    """Order-sensitive digest of everything a core (or the weave trace)
    reads from an :class:`~repro.memory.access.AccessRecord`.  Computed
    identically in the forked worker and the driver (same interpreter
    image, same hash seed), so equal fingerprints mean the speculated
    access saw exactly the result the authoritative replay produced."""
    return hash((
        result.latency,
        result.line,
        result.hit_level,
        tuple(result.missed_levels),
        result.invalidations,
        result.shared_evictions,
        tuple((comp.name, off, kind) for comp, off, kind in result.steps),
        tuple((comp.name, off, kind) for comp, off, kind in result.wbacks),
    ))


class _ForwardingMem:
    """Forwards every attribute but ``access`` to the wrapped ``_mem``."""

    def __getattr__(self, name):
        if name.startswith("__") or "_mem" not in self.__dict__:
            raise AttributeError(
                "%s has no attribute %r" % (type(self).__name__, name))
        return getattr(self._mem, name)


class _RecordingMem(_ForwardingMem):
    """Worker-side wrapper over the (forked) memory system: passes every
    access through and records (args, result, fingerprint)."""

    def __init__(self, mem):
        self._mem = mem
        self.addrs = []
        self.writes = []
        self.cycles = []
        self.ifetches = []
        self.fps = []
        self.results = []

    def access(self, core_id, addr, write, cycle=0, ifetch=False):
        result = self._mem.access(core_id, addr, write, cycle, ifetch)
        self.addrs.append(addr)
        self.writes.append(bool(write))
        self.cycles.append(cycle)
        self.ifetches.append(bool(ifetch))
        self.fps.append(_fingerprint(result))
        self.results.append(result)
        return result


class _PrefixReplayMem(_ForwardingMem):
    """Driver-side wrapper serving the validated replay prefix to an
    inline re-run after a speculation mismatch.  The first ``len(results)``
    accesses were already applied to the authoritative hierarchy during
    validation; serving them from the list keeps the re-run's inputs
    exact without mutating the hierarchy twice.  Past the prefix the
    wrapper goes live."""

    def __init__(self, mem, args, results):
        self._mem = mem
        self._args = args          # [(addr, write, cycle, ifetch)]
        self._results = results
        self._next = 0

    def access(self, core_id, addr, write, cycle=0, ifetch=False):
        i = self._next
        if i < len(self._results):
            if self._args[i] != (addr, bool(write), cycle, bool(ifetch)):
                # The determinism claim broke: the re-run diverged from
                # the recorded prefix while its inputs matched.  The
                # hierarchy already absorbed the prefix, so this pass
                # cannot be patched up — surface a typed fault that
                # ends the run.
                raise ProcessPoolError(
                    "speculation replay diverged at access %d of core %d"
                    % (i, core_id), phase="bound", core=core_id)
            self._next = i + 1
            return self._results[i]
        return self._mem.access(core_id, addr, write, cycle, ifetch)


#: Core attributes that stay the driver's own on commit: the memory
#: system and stream are live driver objects, and the trace is rebuilt
#: from driver-replayed results (worker results reference forked weave
#: components and must never cross the pipe).
_CORE_DETACHED = ("mem", "stream", "trace")


class ProcessBackend(ExecutionBackend):
    """Bound-phase speculation on forked OS worker processes (see
    module docs)."""

    name = "process"

    def __init__(self, host_threads=None, workers=None,
                 heartbeat_budget_s=None):
        # ``host_threads`` accepted for make_backend() symmetry; it acts
        # as the pool-size default just like the parallel backend.
        self.pool_size = workers if workers is not None else host_threads
        self.heartbeat_budget_s = heartbeat_budget_s
        self._sim = None
        self._epoch = 0
        self._procs = []
        self._fork_ok = hasattr(os, "fork")
        self._warned_no_fork = False
        self._pool_failures_in_a_row = 0
        self._pending_respawn = 0
        #: Per-slot respawn generation (bumped when the slot's worker
        #: dies) and the set of already-named tracer lanes.
        self._lane_gen = {}
        self._named_lanes = set()
        self._idle_us = 0.0
        self.counters = {
            "workers_forked": 0,
            "worker_deaths": 0,
            "heartbeat_kills": 0,
            "respawns": 0,
            "pool_failures": 0,
            "spec_commits": 0,
            "spec_rejects": 0,
            "spec_skips": 0,
            "inline_runs": 0,
        }

    # -- lifecycle -----------------------------------------------------

    def start(self, sim):
        self._sim = sim
        bw = sim.config.boundweave
        if self.pool_size is None:
            self.pool_size = bw.process_workers or 0
        if self.heartbeat_budget_s is None:
            self.heartbeat_budget_s = bw.heartbeat_budget_s

    def shutdown(self):
        """Bounded-grace shutdown of any live workers.  Workers are
        per-pass, so between passes this is a no-op; mid-fault it kills
        the stragglers instead of waiting on them."""
        self._epoch += 1
        procs, self._procs = self._procs, []
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=SHUTDOWN_GRACE_S)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)

    def host_stats(self):
        stats = dict(self.counters)
        stats["pool_size"] = self._resolved_pool_size()
        return stats

    def _resolved_pool_size(self):
        if self.pool_size:
            return int(self.pool_size)
        return max(1, (os.cpu_count() or 2) - 1)

    # -- bound phase ---------------------------------------------------

    def run_bound_pass(self, bound, cores, limit_cycle, timings):
        eligible = [core for core in cores if core.has_thread]
        workers = min(self._resolved_pool_size(), len(eligible))
        if (not self._fork_ok or workers < 1
                or len(eligible) < MIN_SPECULATE_CORES):
            if not self._fork_ok and not self._warned_no_fork:
                self._warned_no_fork = True
                _log.warning("os.fork is unavailable on this host: the "
                             "process backend runs inline (serial "
                             "semantics)")
            self.counters["inline_runs"] += len(cores)
            return bound.run_pass(cores, limit_cycle, timings)
        spec = self._speculate(bound, eligible, limit_cycle, workers)
        return self._commit(bound, cores, limit_cycle, timings, spec)

    # -- speculation (fork + collect) ----------------------------------

    def _speculate(self, bound, eligible, limit_cycle, workers):
        """Fork ``workers`` processes over ``eligible`` (round-robin by
        wake position), collect speculation payloads under the
        heartbeat budget, and reap the pool.  Returns
        ``{core_id: payload}`` — possibly empty; every missing core
        simply runs inline."""
        interval = bound.intervals
        epoch = self._epoch
        flight = self._flight()
        shards = [eligible[w::workers] for w in range(workers)]
        ctx = multiprocessing.get_context("fork")
        if self._pending_respawn:
            self.counters["respawns"] += self._pending_respawn
            if flight is not None:
                flight.record("respawn", backend=self.name,
                              interval=interval,
                              workers=self._pending_respawn)
            self._pending_respawn = 0
        procs, conns = [], {}
        hold = bool(self.fault_plan
                    and self.fault_plan.process_faults(interval))
        try:
            for w, shard in enumerate(shards):
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=self._worker_main,
                    args=(child_conn, epoch, w,
                          [core.core_id for core in shard], limit_cycle,
                          hold),
                    name="repro-exec-worker%d" % w, daemon=True)
                proc.start()
                child_conn.close()
                procs.append(proc)
                conns[w] = parent_conn
                self.counters["workers_forked"] += 1
        except OSError as exc:
            for proc in procs:
                if proc.is_alive():
                    proc.kill()
            for proc in procs:
                proc.join(timeout=1.0)
            self._note_pool_failure("fork failed: %s" % exc, interval)
            return {}
        self._procs = procs
        if flight is not None:
            flight.record("fork", backend=self.name, interval=interval,
                          workers=workers, epoch=epoch,
                          cores=len(eligible))
        self._name_worker_tracks(workers)
        self._apply_process_faults(interval, procs)
        spec, dead = self._collect(conns, procs, epoch, interval)
        self._reap(procs)
        self._procs = []
        deaths = len(dead)
        self.counters["worker_deaths"] += deaths
        self._pending_respawn += deaths
        if deaths and flight is not None:
            # A worker death is exactly the event the flight recorder
            # exists for: freeze the ring into a capsule naming the
            # victim(s), the interval, and the recovery action.
            flight.capture(
                self._sim, kind="worker_death",
                message="worker%s %s died during interval %d"
                % ("s" if deaths > 1 else "",
                   ",".join(str(w) for w in sorted(dead)), interval),
                recovery=_DEATH_RECOVERY, worker=sorted(dead)[0],
                interval=interval, phase="bound")
        if deaths >= len(procs) and not spec:
            self._note_pool_failure(
                "every worker died during interval %d" % interval,
                interval)
        else:
            self._pool_failures_in_a_row = 0
        return spec

    def _collect(self, conns, procs, epoch, interval):
        """Drain worker pipes under the heartbeat budget.  Any message
        is progress; a silent stretch longer than the budget means the
        stragglers are stopped or wedged — they are killed and their
        cores fall back to inline execution."""
        budget = max(0.05, float(self.heartbeat_budget_s or 10.0))
        pending = dict(conns)
        spec = {}
        dead = []
        spans = {}
        flight = self._flight()
        deadline = time.monotonic() + budget
        pass_start = time.monotonic()
        while pending:
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                for w in list(pending):
                    proc = procs[w]
                    if proc.is_alive():
                        proc.kill()
                        self.counters["heartbeat_kills"] += 1
                        if flight is not None:
                            flight.record("heartbeat_kill",
                                          backend=self.name, worker=w,
                                          interval=interval,
                                          budget_s=budget)
                        _log.warning(
                            "worker %d made no progress for %.2fs "
                            "(interval %d): killed; its cores run "
                            "inline", w, budget, interval)
                    pending.pop(w).close()
                    dead.append(w)
                break
            ready = _conn_wait(list(pending.values()), timeout)
            progressed = False
            for conn in ready:
                w = next(k for k, v in pending.items() if v is conn)
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    # SIGKILL / crash: the pipe closed mid-shard.
                    pending.pop(w).close()
                    dead.append(w)
                    if flight is not None:
                        flight.record("worker_death",
                                      backend=self.name, worker=w,
                                      interval=interval)
                    _log.warning("worker %d died during interval %d; "
                                 "its cores run inline", w, interval)
                    continue
                progressed = True
                if msg[1] != epoch:
                    continue  # stale generation (epoch fence)
                tag = msg[0]
                if tag == "core":
                    spec[msg[3]] = msg[4]
                elif tag == "skip":
                    self.counters["spec_skips"] += 1
                elif tag == "err":
                    self.counters["spec_skips"] += 1
                    _log.warning("worker %d speculation error on core "
                                 "%s: %s", w, msg[3], msg[4])
                elif tag == "done":
                    busy_s, t0, t1 = msg[3], msg[4], msg[5]
                    spans[w] = (t0, t1, busy_s)
                    if flight is not None:
                        # Heartbeat slack: how close this worker came to
                        # being declared dead (low slack = load-tune the
                        # budget before it kills healthy workers).
                        flight.record(
                            "hb_slack", backend=self.name, worker=w,
                            interval=interval, budget_s=budget,
                            slack_s=round(deadline - time.monotonic(),
                                          6))
                    pending.pop(w).close()
            if progressed:
                deadline = time.monotonic() + budget
        window = time.monotonic() - pass_start
        self._note_spans(spans, interval, window)
        # Bump the dead slots' lane generation *after* their final spans
        # landed: the respawned workers forked at the next barrier get
        # fresh tracer lanes instead of interleaving into these.
        for w in dead:
            self._lane_gen[w] = self._lane_gen.get(w, 0) + 1
        return spec, dead

    def _reap(self, procs):
        for proc in procs:
            proc.join(timeout=SHUTDOWN_GRACE_S)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)

    def _note_pool_failure(self, reason, interval):
        self.counters["pool_failures"] += 1
        self._pool_failures_in_a_row += 1
        flight = self._flight()
        if flight is not None:
            flight.record("pool_failure", backend=self.name,
                          interval=interval, reason=reason,
                          consecutive=self._pool_failures_in_a_row)
        _log.warning("process pool failure (%d consecutive): %s",
                     self._pool_failures_in_a_row, reason)
        if self._pool_failures_in_a_row >= MAX_POOL_FAILURES:
            # The driver state is untouched (speculation never mutates
            # it), but the pool is systemically broken: surface a typed
            # fault that ends the run.
            raise ProcessPoolError(
                "process pool failed %d times in a row: %s"
                % (self._pool_failures_in_a_row, reason),
                phase="bound", interval=interval)

    def _apply_process_faults(self, interval, procs):
        """Real-process fault injection: SIGKILL/SIGSTOP a live worker
        (see repro.resilience.faults).

        The delivery race matters on a loaded (or single-CPU) host: a
        fast worker can finish its whole shard before the parent gets
        to run again, and a signal to an exited worker tests nothing.
        So on fault-injection passes the workers freeze *themselves*
        (self-SIGSTOP before any work; see ``_worker_main``'s ``hold``);
        here the driver waits for the pool to be stopped — a stopped
        process is guaranteed alive — delivers the fault signals, and
        resumes every worker that is not itself a SIGSTOP victim with
        SIGCONT."""
        plan = self.fault_plan
        if plan is None:
            return
        faults = plan.process_faults(interval)
        if not faults:
            return
        self._await_stopped(procs)
        keep_stopped = set()
        for fault in faults:
            victim = fault.worker
            if victim is None or victim >= len(procs):
                victim = fault.pick_worker(len(procs), plan.rng)
            proc = procs[victim]
            if proc.pid is None or not proc.is_alive():
                continue
            os.kill(proc.pid, fault.signum)
            fault.fired = True
            flight = self._flight()
            if flight is not None:
                flight.record("fault_injected", backend=self.name,
                              fault=fault.kind, worker=victim,
                              interval=interval, pid=proc.pid)
            if fault.signum == signal.SIGSTOP:
                keep_stopped.add(victim)
            _log.warning("injected %s: worker %d (pid %d) at interval "
                         "%d", fault.kind, victim, proc.pid, interval)
        for w, proc in enumerate(procs):
            if w not in keep_stopped:
                self._signal_quietly(proc, signal.SIGCONT)

    @staticmethod
    def _signal_quietly(proc, signum):
        if proc.pid is None:
            return
        try:
            os.kill(proc.pid, signum)
        except (ProcessLookupError, OSError):
            pass

    @staticmethod
    def _is_stopped(pid):
        """Whether ``pid`` is in the stopped (T) state, via /proc.  On
        hosts without /proc the wait below just times out — degraded
        fault *injection*, never a wrong result."""
        try:
            with open("/proc/%d/stat" % pid, "rb") as fh:
                data = fh.read()
            return data.rsplit(b")", 1)[1].split()[0] in (b"T", b"t")
        except (OSError, IndexError):
            return False

    def _await_stopped(self, procs, timeout=5.0):
        """Wait for every live worker to reach its self-SIGSTOP.  A
        worker that times out is simply resumed late by the SIGCONT
        sweep (or heartbeat-killed); correctness never depends on the
        freeze."""
        deadline = time.monotonic() + timeout
        for proc in procs:
            while time.monotonic() < deadline:
                if (proc.pid is None or not proc.is_alive()
                        or self._is_stopped(proc.pid)):
                    break
                time.sleep(0.001)

    # -- worker side ---------------------------------------------------

    def _worker_main(self, conn, epoch, worker_index, core_ids, limit,
                     hold=False):
        """Runs in the forked child.  Speculates each shard core against
        the forked replica and streams payloads back; exits via
        ``os._exit`` so no driver-side atexit/flush machinery runs in
        the child."""
        status = 0
        try:
            if hold:
                # Fault-injection passes: stop before doing any work so
                # the driver's signal is guaranteed to land on a live
                # worker (the driver SIGCONTs non-victims).  Self-stop
                # is race-free where a parent-sent SIGSTOP is not: a
                # fast worker could otherwise finish and exit first.
                os.kill(os.getpid(), signal.SIGSTOP)
            sim = self._sim
            sim.hierarchy.profiler = None
            if sim._telem is not None:
                sim.attach_telemetry(None)
            t0 = time.perf_counter()
            busy = 0.0
            for core_id in core_ids:
                conn.send(("hb", epoch, worker_index, core_id))
                core = sim.cores[core_id]
                start = time.perf_counter()
                try:
                    payload = self._speculate_core(core, limit)
                except Exception as exc:  # keep the shard going
                    conn.send(("err", epoch, worker_index, core_id,
                               "%s: %s" % (type(exc).__name__, exc)))
                    continue
                spent = time.perf_counter() - start
                busy += spent
                if payload is None:
                    conn.send(("skip", epoch, worker_index, core_id))
                else:
                    conn.send(("core", epoch, worker_index, core_id,
                               payload + (spent,)))
            conn.send(("done", epoch, worker_index, busy, t0,
                       time.perf_counter()))
        except Exception:
            status = 1
        finally:
            try:
                conn.close()
            except OSError:
                pass
            os._exit(status)

    @staticmethod
    def _speculate_core(core, limit):
        """One core's speculative interval run against the forked
        replica.  Eligible only when the run reaches the interval limit
        without scheduler interaction (no syscall/done/blocked): such a
        run is a pure function of core state, stream records, and
        access results — exactly what the driver can validate."""
        recorder = _RecordingMem(core.mem)
        stream = core.stream
        bbls_before = stream.bbls_executed
        core.mem = recorder
        try:
            outcome = core.run_until(limit)
        finally:
            core.mem = recorder._mem
        if outcome != RunOutcome.LIMIT:
            return None
        state = {name: getattr(core, name) for cls in type(core).__mro__
                 for name in vars(cls).get("__slots__", ())
                 if name not in _CORE_DETACHED}
        try:
            state = pickle.loads(pickle.dumps(
                state, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            return None  # unpicklable core state: run inline
        index_of = {id(result): i
                    for i, result in enumerate(recorder.results)}
        trace_cycles = []
        trace_idx = []
        for cycle, result in core.trace:
            idx = index_of.get(id(result))
            if idx is None:
                return None  # trace entry not from this run: bail out
            trace_cycles.append(cycle)
            trace_idx.append(idx)
        return (state, stream.bbls_executed - bbls_before,
                recorder.addrs, recorder.writes, recorder.cycles,
                recorder.ifetches, recorder.fps, trace_cycles, trace_idx)

    # -- commit (driver side) ------------------------------------------

    def _commit(self, bound, cores, limit_cycle, timings, spec):
        """Validate-and-commit in strict wake order.  Every core takes
        exactly one of three paths — commit, prefix re-run, or inline —
        and all three produce the serial side effects."""
        telem = bound._telem
        flight = self._flight()
        before = (self.counters["spec_commits"],
                  self.counters["spec_rejects"],
                  self.counters["inline_runs"])
        outcomes = []
        for core in cores:
            payload = spec.get(core.core_id)
            start = time.perf_counter()
            if payload is not None and core.has_thread:
                ran, charge = self._commit_core(bound, core, limit_cycle,
                                                payload)
                if (charge is None and flight is not None):
                    # charge=None on a present payload means the
                    # fingerprint validation rejected the speculation.
                    flight.record("spec_mismatch", backend=self.name,
                                  core=core.core_id,
                                  interval=bound.intervals)
            else:
                self.counters["inline_runs"] += 1
                ran = bound._run_core(core, limit_cycle)
                charge = None
            end = time.perf_counter()
            # ``charge`` is the serial-equivalent cost of this core's
            # run: the worker's speculation wall time on a commit (the
            # driver only paid the serial-mandatory hierarchy replay,
            # which measured_wall captures), the driver window
            # otherwise.
            timings.append((core.core_id,
                            charge if charge is not None else end - start))
            if telem is not None:
                bound._trace_core_run(core.core_id, start, end)
            outcomes.append((core, ran))
        if flight is not None:
            flight.record(
                "commit", backend=self.name, interval=bound.intervals,
                commits=self.counters["spec_commits"] - before[0],
                rejects=self.counters["spec_rejects"] - before[1],
                inline=self.counters["inline_runs"] - before[2])
        return outcomes

    def _commit_core(self, bound, core, limit_cycle, payload):
        (state, n_bbls, addrs, writes, cycles, ifetches, fps,
         trace_cycles, trace_idx, spec_seconds) = payload
        mem = core.mem
        core_id = core.core_id
        replayed = []
        mismatch = -1
        for i in range(len(addrs)):
            result = mem.access(core_id, addrs[i], writes[i], cycles[i],
                                ifetches[i])
            replayed.append(result)
            if _fingerprint(result) != fps[i]:
                mismatch = i
                break
        if mismatch < 0:
            stream = core.stream
            for _ in range(n_bbls):
                try:
                    next(stream)
                except StopIteration:
                    raise ProcessPoolError(
                        "stream of core %d ended during commit replay "
                        "(speculated %d blocks)" % (core_id, n_bbls),
                        phase="bound", core=core_id) from None
            for name, value in state.items():
                setattr(core, name, value)
            core.trace = [(trace_cycles[j], replayed[trace_idx[j]])
                          for j in range(len(trace_idx))]
            self.counters["spec_commits"] += 1
            return True, spec_seconds
        # Mismatch: cross-core sharing changed an input.  Re-run inline
        # from the pristine core state, serving the applied prefix.
        self.counters["spec_rejects"] += 1
        args = list(zip(addrs[:mismatch + 1], writes[:mismatch + 1],
                        cycles[:mismatch + 1], ifetches[:mismatch + 1]))
        core.mem = _PrefixReplayMem(mem, args, replayed)
        try:
            ran = bound._run_core(core, limit_cycle)
        finally:
            core.mem = mem
        return ran, None

    # -- weave phase ---------------------------------------------------

    def run_weave(self, weave, traces):
        """Weave runs inline on the driver (see module docs); the fault
        plan's queue-corruption seam is honored like the other
        backends'."""
        plan = self.fault_plan
        if plan is None:
            return weave.run_interval(traces)
        return weave.run_interval(
            traces,
            executor=lambda events: self._corrupt_execute(weave, events))

    def _corrupt_execute(self, weave, events):
        weave.seed_queues(events)
        self.fault_plan.corrupt(weave, weave.stats.intervals)
        weave._drain_earliest_first()

    # -- observability -------------------------------------------------

    def _worker_lane(self, w):
        """Tracer lane for worker slot ``w``'s *current* generation.
        Dead slots bump the generation, so a respawned worker never
        shares a lane with its dead predecessor."""
        return TID_WORKER + LANE_STRIDE * self._lane_gen.get(w, 0) + w

    def _name_worker_tracks(self, workers):
        telem = getattr(self._sim, "_telem", None)
        if telem is None or telem.tracer is None:
            return
        for w in range(workers):
            lane = self._worker_lane(w)
            if lane in self._named_lanes:
                continue
            gen = self._lane_gen.get(w, 0)
            telem.tracer.name_track(
                lane, "process worker%d" % w if not gen
                else "process worker%d (respawn %d)" % (w, gen))
            self._named_lanes.add(lane)

    def _note_spans(self, spans, interval, window_s):
        telem = getattr(self._sim, "_telem", None)
        tracer = telem.tracer if telem is not None else None
        for w, (t0, t1, busy_s) in spans.items():
            self._idle_us += max(0.0, window_s - busy_s) * 1e6
            if tracer is not None:
                # perf_counter is CLOCK_MONOTONIC on Linux: one system-
                # wide clock, so child timestamps land on the driver's
                # timeline directly.
                tracer.complete_raw("speculate (interval %d)" % interval,
                                    "exec", t0, t1, self._worker_lane(w))

    def sample_idle(self, metrics):
        idle, self._idle_us = self._idle_us, 0.0
        if idle:
            metrics.histogram("exec.worker_idle_us").record(int(idle))
