"""The fleet orchestrator: crash-tolerant execution of a sweep spec.

Runs every job of a :class:`~repro.fleet.spec.SweepSpec` as its own
``repro run`` subprocess — N at a time — and survives everything the
runs survive, including its own death:

* **Durability.**  Every job transition is written ahead to the
  :class:`~repro.fleet.journal.Journal`; ``repro fleet resume`` replays
  it, re-enqueues only incomplete jobs, and never re-runs a completed
  one (its stats tree sits untouched in the job directory).
* **Per-job robustness.**  A wall-clock timeout sends SIGTERM — the
  run's graceful-stop path writes a final checkpoint and exits 75 — and
  escalates to SIGKILL after a grace period.  Failed or killed attempts
  retry after a seeded decorrelated-jitter backoff
  (:class:`~repro.resilience.backoff.DecorrelatedJitter`), resuming
  from the job's own checkpoint directory so retries never restart
  from zero.
* **Quarantine circuit breaker.**  ``quarantine_after`` consecutive
  attempts *without checkpoint progress* park the job (recording its
  post-mortem capsules) instead of burning the fleet's retry budget; a
  job that keeps progressing between timeouts keeps its full budget.
* **Graceful drain.**  SIGTERM/SIGINT to the orchestrator SIGTERMs the
  in-flight jobs, journals their stopped attempts, publishes a final
  status snapshot, and exits 75 — resumable, like everything else.

Subprocess isolation is the point: a job that segfaults the
interpreter, leaks memory until the OOM killer arrives, or wedges a
worker pool costs exactly one attempt of one job.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import zlib

from repro.errors import CheckpointError, FleetError, JobQuarantined
from repro.fleet.journal import Journal, read_journal
from repro.fleet.monitor import FleetMonitor
from repro.fleet.spec import SweepSpec
from repro.obs.log import get_logger
from repro.obs.monitor import write_status_json
from repro.resilience.backoff import DecorrelatedJitter
from repro.resilience.checkpoint import checkpoints, read_checkpoint

_log = get_logger("fleet.orchestrator")

#: Exit status for a drained (resumable) campaign — same convention as
#: ``repro run``'s wall-budget stop.
EXIT_DRAINED = 75

#: Job exit codes the orchestrator treats as a graceful, resumable stop
#: (the run's wall-budget/SIGTERM path).
_EXIT_STOPPED = 75


class JobState:
    """Mutable per-job bookkeeping (the journal is the durable copy)."""

    def __init__(self, spec, jitter):
        self.spec = spec
        self.state = "pending"   # pending|running|done|quarantined
        self.attempts = 0
        self.consecutive = 0     # attempts without checkpoint progress
        self.last_exit = None
        self.backoff_until = 0.0
        self.progress_interval = -1
        self.jitter = jitter
        # Live-attempt fields (None while not running).
        self.proc = None
        self.log_fh = None
        self.started_at = None
        self.deadline = None
        self.term_sent_at = None
        #: Pid recorded by a replayed ``start`` with no matching exit:
        #: a possibly-still-alive orphan from a killed orchestrator.
        self.orphan_pid = None

    @property
    def job_id(self):
        return self.spec.job_id


class FleetOrchestrator:
    """One campaign: a sweep spec executed under a durable journal."""

    def __init__(self, directory, spec_data=None, resume=False,
                 workers=2, quarantine_after=3, job_timeout_s=None,
                 term_grace_s=10.0, backoff_base_s=0.5,
                 checkpoint_every=2, status_port=None, seed=0,
                 retry_quarantined=False, rotate_bytes=None,
                 poll_s=0.05, python=None):
        self.directory = str(directory)
        self.workers = max(1, int(workers))
        self.quarantine_after = max(1, int(quarantine_after))
        self.job_timeout_s = job_timeout_s
        self.term_grace_s = max(0.5, float(term_grace_s))
        self.backoff_base_s = max(0.0, float(backoff_base_s))
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.seed = int(seed)
        self.retry_quarantined = bool(retry_quarantined)
        self.poll_s = max(0.01, float(poll_s))
        self.python = python or sys.executable
        self.resumed = bool(resume)
        self._stop_requested = None
        self._dirty = True
        self._last_publish = 0.0
        os.makedirs(os.path.join(self.directory, "jobs"), exist_ok=True)

        spec_path = os.path.join(self.directory, "spec.json")
        journal_path = os.path.join(self.directory, "journal.jsonl")
        if resume:
            if spec_data is not None:
                raise FleetError("resume re-reads the campaign's saved "
                                 "spec; do not pass a new one")
            try:
                with open(spec_path) as fh:
                    spec_data = json.load(fh)
            except (OSError, ValueError) as exc:
                raise FleetError(
                    "%s is not a resumable campaign directory (no "
                    "readable spec.json: %s)"
                    % (self.directory, exc)) from exc
        else:
            if spec_data is None:
                raise FleetError("a new campaign needs a sweep spec")
            if os.path.exists(journal_path):
                raise FleetError(
                    "%s already holds a campaign journal; use "
                    "`repro fleet resume %s` (or a fresh directory)"
                    % (self.directory, self.directory))
        self.spec = SweepSpec.from_dict(spec_data)
        if not resume:
            # The saved spec is what resume replays against: job ids
            # are derived from it, so it must be the exact dict.
            write_status_json(spec_path, spec_data)

        self.jobs = {}
        for job in self.spec.jobs:
            jitter = DecorrelatedJitter(
                self.backoff_base_s,
                seed=self.seed ^ zlib.crc32(job.job_id.encode()))
            self.jobs[job.job_id] = JobState(job, jitter)

        self.journal = Journal(
            journal_path,
            **({"rotate_bytes": rotate_bytes}
               if rotate_bytes is not None else {}))
        if resume:
            records, skipped = read_journal(journal_path)
            self._replay(records)
            if skipped:
                _log.warning("journal replay skipped %d unreadable "
                             "line(s)", skipped)
        self.monitor = FleetMonitor(
            os.path.join(self.directory, "status.json"),
            port=status_port, campaign=self.spec.name)

    # -- directories ---------------------------------------------------

    def _jobdir(self, st):
        return os.path.join(self.directory, "jobs", st.job_id)

    def _ckptdir(self, st):
        return os.path.join(self._jobdir(st), "ckpt")

    def _stats_path(self, st):
        return os.path.join(self._jobdir(st), "stats.json")

    def _capsules(self, st):
        jobdir = self._jobdir(st)
        try:
            names = sorted(os.listdir(jobdir))
        except OSError:
            return []
        return [os.path.join(jobdir, n) for n in names
                if n.startswith("postmortem-") and n.endswith(".json")]

    def _quarantine_reason(self, capsule_paths):
        """Classify a quarantine from the job's post-mortem capsules:
        ``"integrity"`` when any capsule names an IntegrityError (the
        sentinel escalated a reproducing divergence), else
        ``"failure"``."""
        for path in capsule_paths:
            try:
                with open(path) as fh:
                    capsule = json.load(fh)
            except (OSError, ValueError):
                continue
            kind = (capsule.get("reason") or {}).get("kind")
            if kind == "IntegrityError":
                return "integrity"
        return "failure"

    def _integrity_record(self, st):
        """The newest checkpoint's fingerprint-chain record for this
        job, journal-ready (light read: the capsule's simulator stays
        pickled).  None when the job ran without the sentinel."""
        found = checkpoints(self._ckptdir(st))
        if not found:
            return None
        try:
            capsule = read_checkpoint(found[0][1], load_sim=False)
        except (CheckpointError, OSError):
            return None
        record = (capsule.get("meta") or {}).get("integrity")
        if not record:
            return None
        return {"interval": record.get("interval"),
                "chain": "%08x" % (record.get("chain", 0),),
                "audit_every": record.get("audit_every")}

    # -- journal replay ------------------------------------------------

    def _replay(self, records):
        """Rebuild job states from the journal.  Replay is idempotent:
        a completed job stays completed no matter how many times the
        campaign was killed and resumed."""
        for record in records:
            job_id = record.get("job")
            event = record.get("event")
            if job_id is None:
                continue
            st = self.jobs.get(job_id)
            if st is None:
                _log.warning("journal names unknown job %s (spec "
                             "changed?); ignoring its records", job_id)
                continue
            if event == "start":
                st.attempts = max(st.attempts,
                                  int(record.get("attempt", 0)))
                st.state = "running"
                st.orphan_pid = None  # pid arrives in "spawned"
            elif event == "spawned":
                st.orphan_pid = record.get("pid")
            elif event == "exit":
                st.attempts = max(st.attempts,
                                  int(record.get("attempt", 0)))
                st.last_exit = record.get("exit")
                st.consecutive = int(record.get("consecutive", 0))
                st.orphan_pid = None
                st.state = ("done" if record.get("outcome") == "completed"
                            else "pending")
            elif event == "quarantined":
                st.state = "quarantined"
                st.orphan_pid = None
            elif event == "state":
                st.attempts = int(record.get("attempts", st.attempts))
                st.consecutive = int(record.get("consecutive",
                                                st.consecutive))
                st.last_exit = record.get("exit", st.last_exit)
                state = record.get("state", "pending")
                if state == "backoff":
                    state = "pending"
                if state == "running":
                    st.orphan_pid = record.get("pid")
                st.state = state
            # Unknown events (campaign/drain/timeout/end) carry no
            # per-job state; new event kinds stay replay-compatible.
        for st in self.jobs.values():
            if st.state == "running":
                # The orchestrator died mid-job.  The attempt may still
                # be running as an orphan — reap it before re-enqueuing,
                # or two attempts would race on one checkpoint dir.
                self._reap_orphan(st)
                st.state = "pending"
            if st.state == "done" and not os.path.exists(
                    self._stats_path(st)):
                _log.warning("job %s journaled as completed but its "
                             "stats tree is missing; re-running",
                             st.job_id)
                st.state = "pending"
            if st.state == "quarantined" and self.retry_quarantined:
                _log.warning("unparking quarantined job %s "
                             "(--retry-quarantined)", st.job_id)
                st.state = "pending"
                st.consecutive = 0
            # Checkpoint progress made before the crash counts: the
            # next attempt resumes from disk, so the breaker must
            # measure progress relative to what disk already holds.
            found = checkpoints(self._ckptdir(st))
            if found:
                st.progress_interval = max(st.progress_interval,
                                           found[0][0])

    def _reap_orphan(self, st):
        """Kill a still-running attempt left behind by a SIGKILLed
        orchestrator.  Only acts when ``/proc/<pid>/cmdline`` names this
        job's stats path — pid reuse must never kill a bystander."""
        pid = st.orphan_pid
        st.orphan_pid = None
        if not pid:
            return
        try:
            with open("/proc/%d/cmdline" % pid, "rb") as fh:
                cmdline = fh.read().decode(errors="replace")
        except OSError:
            return  # already gone (or no /proc): nothing to reap
        if self._stats_path(st) not in cmdline:
            return
        _log.warning("reaping orphaned attempt of %s (pid %d)",
                     st.job_id, pid)
        for signum in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.kill(pid, signum)
            except OSError:
                return
            deadline = time.monotonic() + (self.term_grace_s
                                           if signum == signal.SIGTERM
                                           else 2.0)
            while time.monotonic() < deadline:
                if not os.path.exists("/proc/%d" % pid):
                    return
                time.sleep(0.05)

    # -- attempt lifecycle ---------------------------------------------

    def _launch(self, st, now):
        jobdir = self._jobdir(st)
        ckptdir = self._ckptdir(st)
        os.makedirs(ckptdir, exist_ok=True)
        resume_from = bool(checkpoints(ckptdir))
        argv = [self.python, "-m", "repro"] + st.spec.run_argv() + [
            "--stats-json", self._stats_path(st),
            "--checkpoint-dir", ckptdir,
            "--checkpoint-every", str(self.checkpoint_every),
            "--flight-dir", jobdir,
        ]
        if resume_from:
            argv += ["--resume", ckptdir]
        st.attempts += 1
        # Write-ahead: the start record lands before the process does.
        self.journal.append("start", job=st.job_id, attempt=st.attempts,
                            resume=resume_from, pid=None)
        st.log_fh = open(os.path.join(jobdir, "job.log"), "a")
        st.log_fh.write("--- attempt %d: %s\n"
                        % (st.attempts, " ".join(argv)))
        st.log_fh.flush()
        try:
            # start_new_session: a Ctrl-C to the orchestrator's group
            # must not bypass the drain and hit the jobs directly.
            st.proc = subprocess.Popen(argv, stdout=st.log_fh,
                                       stderr=subprocess.STDOUT,
                                       start_new_session=True)
        except OSError as exc:
            st.log_fh.close()
            st.log_fh = None
            _log.error("could not launch %s: %s", st.job_id, exc)
            self._finish_attempt(st, exit_code=127, now=now)
            return
        self.journal.append("spawned", job=st.job_id,
                            attempt=st.attempts, pid=st.proc.pid)
        st.state = "running"
        st.started_at = now
        st.deadline = (now + self.job_timeout_s
                       if self.job_timeout_s else None)
        st.term_sent_at = None
        self._dirty = True
        _log.info("launched %s attempt %d (pid %d)%s", st.job_id,
                  st.attempts, st.proc.pid,
                  " resuming from checkpoint" if resume_from else "")

    def _job_progressed(self, st):
        """Did this attempt push the job's newest checkpoint forward?
        Progress resets the quarantine breaker: a slow-but-advancing
        job is not a rotten one."""
        found = checkpoints(self._ckptdir(st))
        if found and found[0][0] > st.progress_interval:
            st.progress_interval = found[0][0]
            return True
        return False

    def _finish_attempt(self, st, exit_code, now, drained=False):
        if st.proc is not None:
            st.proc = None
        if st.log_fh is not None:
            try:
                st.log_fh.close()
            except OSError:
                pass
            st.log_fh = None
        duration = round(now - st.started_at, 3) if st.started_at else 0.0
        st.started_at = None
        st.deadline = None
        st.term_sent_at = None
        st.last_exit = exit_code
        self._dirty = True
        progressed = self._job_progressed(st)
        stats_path = self._stats_path(st)
        if exit_code == 0 and os.path.exists(stats_path):
            st.state = "done"
            st.consecutive = 0
            st.jitter.reset()
            self.journal.append("exit", job=st.job_id,
                                attempt=st.attempts, exit=0,
                                outcome="completed", consecutive=0,
                                duration_s=duration, stats=stats_path,
                                integrity=self._integrity_record(st))
            _log.info("job %s completed (attempt %d, %.1fs)",
                      st.job_id, st.attempts, duration)
            return
        if drained:
            # Stopped by our own drain: not a failure, no backoff; the
            # resumed campaign re-enqueues it immediately.
            st.state = "pending"
            st.backoff_until = now
            self.journal.append("exit", job=st.job_id,
                                attempt=st.attempts, exit=exit_code,
                                outcome="retry", drained=True,
                                consecutive=st.consecutive,
                                duration_s=duration)
            return
        if progressed:
            st.consecutive = 0
            st.jitter.reset()
        st.consecutive += 1
        stopped = (exit_code == _EXIT_STOPPED or exit_code < 0
                   or exit_code == 137)
        try:
            if st.consecutive >= self.quarantine_after:
                raise JobQuarantined(
                    "job %s failed %d consecutive attempt(s) without "
                    "checkpoint progress (last exit %s)"
                    % (st.job_id, st.consecutive, exit_code),
                    job=st.job_id, attempts=st.attempts,
                    exit_code=exit_code, capsules=self._capsules(st))
        except JobQuarantined as parked:
            st.state = "quarantined"
            reason = self._quarantine_reason(parked.capsules)
            self.journal.append("quarantined", job=st.job_id,
                                attempt=st.attempts, exit=exit_code,
                                consecutive=st.consecutive,
                                reason=reason,
                                capsules=parked.capsules,
                                integrity=self._integrity_record(st))
            _log.error("quarantined %s (%s): %s (capsules: %s)",
                       st.job_id, reason, parked,
                       ", ".join(parked.capsules) or "none")
            return
        backoff = st.jitter.next()
        st.state = "pending"
        st.backoff_until = now + backoff
        self.journal.append("exit", job=st.job_id, attempt=st.attempts,
                            exit=exit_code, outcome="retry",
                            stopped=stopped, progressed=progressed,
                            consecutive=st.consecutive,
                            backoff_s=round(backoff, 3),
                            duration_s=duration)
        _log.warning("job %s attempt %d exited %s (%s); retry in "
                     "%.2fs (consecutive=%d)", st.job_id, st.attempts,
                     exit_code,
                     "stopped" if stopped else "failed", backoff,
                     st.consecutive)

    # -- main loop -----------------------------------------------------

    def _running(self):
        return [st for st in self.jobs.values()
                if st.state == "running"]

    def _reap_finished(self, now):
        for st in self._running():
            if st.proc is None:
                continue
            rc = st.proc.poll()
            if rc is None:
                continue
            self._finish_attempt(st, exit_code=rc, now=now)

    def _check_timeouts(self, now):
        for st in self._running():
            if st.proc is None:
                continue
            if st.term_sent_at is not None:
                if now - st.term_sent_at > self.term_grace_s:
                    _log.warning("job %s ignored SIGTERM for %.1fs; "
                                 "SIGKILL", st.job_id, self.term_grace_s)
                    self._signal(st, signal.SIGKILL)
                continue
            if st.deadline is not None and now > st.deadline:
                self.journal.append("timeout", job=st.job_id,
                                    attempt=st.attempts,
                                    budget_s=self.job_timeout_s)
                _log.warning("job %s outlived its %.1fs budget; "
                             "SIGTERM (graceful checkpoint + exit %d)",
                             st.job_id, self.job_timeout_s,
                             _EXIT_STOPPED)
                self._signal(st, signal.SIGTERM)
                st.term_sent_at = now

    @staticmethod
    def _signal(st, signum):
        try:
            st.proc.send_signal(signum)
        except OSError:
            pass

    def _launch_ready(self, now):
        free = self.workers - len(self._running())
        if free <= 0:
            return
        ready = [st for st in self.jobs.values()
                 if st.state == "pending" and st.backoff_until <= now]
        ready.sort(key=lambda st: st.spec.index)
        for st in ready[:free]:
            self._launch(st, now)

    def _snapshot_records(self):
        """Compaction records that reconstruct current state (journal
        rotation)."""
        records = [{"event": "campaign", "t": round(time.time(), 3),
                    "name": self.spec.name, "jobs": len(self.jobs),
                    "compacted": True}]
        for job_id in sorted(self.jobs):
            st = self.jobs[job_id]
            record = {"event": "state", "t": round(time.time(), 3),
                      "job": job_id, "state": st.state,
                      "attempts": st.attempts,
                      "consecutive": st.consecutive,
                      "exit": st.last_exit}
            if st.state == "running" and st.proc is not None:
                record["pid"] = st.proc.pid
            records.append(record)
        return records

    def _publish(self, now, force=False):
        if not force and not self._dirty and \
                now - self._last_publish < 1.0:
            return
        self.monitor.update(self.jobs, self.workers, now=now)
        self._last_publish = now
        self._dirty = False

    def _install_signals(self):
        previous = {}
        def handler(signum, frame):
            name = getattr(signal.Signals(signum), "name", signum)
            self._stop_requested = "signal %s" % name
            # Second signal acts normally (force-quit a wedged drain).
            old = previous.pop(signum, signal.SIG_DFL)
            try:
                signal.signal(signum, old)
            except (ValueError, OSError):
                pass
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, handler)
            except (ValueError, OSError):
                pass  # not the main thread
        return previous

    def _restore_signals(self, previous):
        for signum, old in previous.items():
            try:
                signal.signal(signum, old)
            except (ValueError, OSError):
                pass

    def _drain(self, now):
        """SIGTERM every in-flight job, journal their stopped attempts,
        and leave the campaign resumable."""
        running = self._running()
        self.journal.append("drain", reason=self._stop_requested,
                            in_flight=[st.job_id for st in running])
        _log.warning("draining %d in-flight job(s): %s",
                     len(running), self._stop_requested)
        for st in running:
            if st.proc is not None:
                self._signal(st, signal.SIGTERM)
        deadline = time.monotonic() + self.term_grace_s
        while time.monotonic() < deadline:
            if not any(st.proc is not None and st.proc.poll() is None
                       for st in running):
                break
            time.sleep(0.05)
        for st in running:
            if st.proc is None:
                continue
            rc = st.proc.poll()
            if rc is None:
                self._signal(st, signal.SIGKILL)
                try:
                    rc = st.proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    rc = -9
            self._finish_attempt(st, exit_code=rc,
                                 now=time.monotonic(), drained=True)

    def _terminal(self):
        return all(st.state in ("done", "quarantined")
                   for st in self.jobs.values())

    def run(self):
        """Run the campaign to completion (or drain).  Returns the
        process exit code: 0 all jobs done, 1 some quarantined,
        75 drained (resumable)."""
        self.journal.append("campaign", name=self.spec.name,
                            jobs=len(self.jobs), workers=self.workers,
                            resumed=self.resumed, pid=os.getpid())
        previous = self._install_signals()
        state = "running"
        try:
            while not self._terminal():
                now = time.monotonic()
                self._reap_finished(now)
                if self._stop_requested:
                    self._drain(time.monotonic())
                    state = "stopped"
                    break
                self._check_timeouts(now)
                self._launch_ready(now)
                self._publish(now)
                self.journal.maybe_rotate(self._snapshot_records)
                if self._terminal():
                    break
                time.sleep(self.poll_s)
        except BaseException:
            state = "failed"
            try:
                self._drain(time.monotonic())
            except Exception:
                pass
            raise
        finally:
            self._restore_signals(previous)
            if state == "running":
                state = "done" if self._all_done() else "failed"
            self.journal.append("end", state=state,
                                counts=self._counts())
            self.journal.close()
            self.monitor.finish(self.jobs, self.workers, state)
        return self.exit_code()

    def _all_done(self):
        return all(st.state == "done" for st in self.jobs.values())

    def _counts(self):
        counts = {}
        for st in self.jobs.values():
            counts[st.state] = counts.get(st.state, 0) + 1
        return counts

    def exit_code(self):
        if self._stop_requested:
            return EXIT_DRAINED
        return 0 if self._all_done() else 1

    def summary(self):
        """Human-oriented campaign summary (printed by the CLI)."""
        counts = self._counts()
        quarantined = sorted(job_id for job_id, st in self.jobs.items()
                             if st.state == "quarantined")
        return {
            "campaign": self.spec.name,
            "directory": self.directory,
            "jobs": len(self.jobs),
            "counts": counts,
            "attempts": sum(st.attempts for st in self.jobs.values()),
            "retries": sum(max(0, st.attempts - 1)
                           for st in self.jobs.values()),
            "quarantined": quarantined,
        }
