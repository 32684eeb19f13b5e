"""The live run monitor: a status file you can watch while a run runs.

A multi-hour checkpointed run is a black hole between its start banner
and its final stats dump.  :class:`RunMonitor` fixes that with the
cheapest possible interface — one small JSON file, atomically rewritten
at every interval barrier (write-to-temp + ``os.replace``, so readers
never see a torn write).  Anything can watch it: ``repro top`` renders
a terminal view and CI asserts on it.

Status file schema (``version`` 1)::

    {
      "version": 1, "run_id": "…", "pid": 1234,
      "state": "running" | "done" | "stopped" | "failed",
      "backend": "process", "contention": "weave",
      "interval": 42, "limit_cycle": 430000,
      "cycle": 421877, "instrs": 612345, "target_instrs": 1200000,
      "progress": 0.51,             # instrs/target (1.0 when done)
      "intervals_per_s": 3.1, "instrs_per_s": 45123.0,
      "eta_s": 13.0,                # null when no target
      "elapsed_s": 12.8, "updated_monotonic": 12345.6,
      "spec_hit_rate": 0.93,        # process backend only, else null
      "workers": {"0": {"last_event": "worker_done", "age_s": 0.2}}
    }

All timing uses ``time.monotonic()``: rates and ETAs are deltas, and
Linux's CLOCK_MONOTONIC is system-wide, so a reader process can compute
the file's age from ``updated_monotonic`` without trusting wall clocks.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque

from repro.obs.log import get_logger

_log = get_logger("obs.monitor")

STATUS_VERSION = 1

#: Sliding window (samples) for interval/instruction rates.
RATE_WINDOW = 32


def prune_status_orphans(path):
    """Remove stale ``<path>.<pid>.tmp`` files left next to a status
    file by a SIGKILL mid-write.  Only temps for this exact target
    path are touched, so a shared directory stays safe."""
    if not path:
        return
    directory = os.path.dirname(path) or "."
    prefix = os.path.basename(path) + "."
    try:
        names = os.listdir(directory)
    except OSError:
        return
    for name in names:
        if name.startswith(prefix) and name.endswith(".tmp"):
            try:
                os.unlink(os.path.join(directory, name))
                _log.info("pruned orphaned status temp %s", name)
            except OSError:
                pass


class RunMonitor:
    """Per-interval status publication for one simulation run."""

    def __init__(self, path=None, target_instrs=None, run_id=None):
        self.path = path
        self.target_instrs = target_instrs
        self.run_id = run_id or os.urandom(4).hex()
        self.state = "running"
        #: The latest snapshot dict (what the file publishes).
        self.status = {}
        self._start = time.monotonic()
        self._samples = deque(maxlen=RATE_WINDOW)
        if path:
            prune_status_orphans(path)

    # -- publication ---------------------------------------------------

    def update(self, sim, interval, limit, cycle, instrs):
        """Publish one interval's status (called at the barrier with
        the barrier's max core cycle and total instructions)."""
        now = time.monotonic()
        self._samples.append((now, interval, instrs))
        self.status = self._snapshot(sim, interval, limit, cycle,
                                     instrs, now)
        self._write()

    def finish(self, sim, state):
        """Publish the terminal state (``done``/``stopped``/``failed``)."""
        self.state = state
        status = dict(self.status) if self.status else self._snapshot(
            sim, 0, 0, 0, 0, time.monotonic())
        status["state"] = state
        status["updated_monotonic"] = time.monotonic()
        if state == "done":
            status["progress"] = 1.0
            status["eta_s"] = 0.0
        self.status = status
        self._write()

    # -- snapshot assembly ---------------------------------------------

    def _rates(self, now):
        if len(self._samples) < 2:
            return None, None
        t0, i0, n0 = self._samples[0]
        t1, i1, n1 = self._samples[-1]
        dt = t1 - t0
        if dt <= 0:
            return None, None
        return (i1 - i0) / dt, (n1 - n0) / dt

    def _snapshot(self, sim, interval, limit, cycle, instrs, now):
        interval_rate, instr_rate = self._rates(now)
        target = self.target_instrs
        progress = None
        eta = None
        if target:
            progress = min(1.0, instrs / target)
            if instr_rate:
                eta = max(0.0, (target - instrs) / instr_rate)
        status = {
            "version": STATUS_VERSION,
            "run_id": self.run_id,
            "pid": os.getpid(),
            "state": self.state,
            "backend": getattr(sim.backend, "name", None),
            "contention": getattr(sim, "contention_model", None),
            "interval": interval,
            "limit_cycle": limit,
            "cycle": cycle,
            "instrs": instrs,
            "target_instrs": target,
            "progress": progress,
            "intervals_per_s": interval_rate,
            "instrs_per_s": instr_rate,
            "eta_s": eta,
            "elapsed_s": now - self._start,
            "updated_monotonic": now,
            "spec_hit_rate": _spec_hit_rate(sim),
            "workers": _worker_liveness(sim, now),
        }
        sentinel = getattr(sim, "integrity", None)
        if sentinel is not None:
            integrity = sentinel.summary()
            status["integrity_fingerprints"] = integrity["fingerprints"]
            status["integrity_audits"] = integrity["audits"]
        return status

    def _write(self):
        """Atomically rewrite the status file (write to a pid-unique
        temp, then ``os.replace``): readers never see a torn write.
        Failures are logged, never raised: a full disk must not kill
        the run being monitored."""
        if self.path is None:
            return
        tmp = "%s.%d.tmp" % (self.path, os.getpid())
        try:
            with open(tmp, "w") as fh:
                json.dump(self.status, fh, indent=1, sort_keys=True)
            os.replace(tmp, self.path)
        except OSError as exc:
            _log.warning("could not write status file %s: %s",
                         self.path, exc)


def _spec_hit_rate(sim):
    """Process-backend speculation hit rate, or None for other
    backends (no speculation to rate)."""
    try:
        stats = sim.backend.host_stats()
    except Exception:
        return None
    if "spec_commits" not in stats:
        return None
    tried = (stats.get("spec_commits", 0) + stats.get("spec_rejects", 0)
             + stats.get("inline_runs", 0))
    if not tried:
        return None
    return stats["spec_commits"] / tried


def _worker_liveness(sim, now):
    """Per-worker last-seen state, from the flight recorder's ring."""
    flight = getattr(sim, "flight", None)
    if flight is None:
        return {}
    return {str(w): {"last_event": kind, "age_s": round(now - t, 6)}
            for w, (t, kind) in sorted(flight.worker_state.items())}


# ---------------------------------------------------------------------
# Terminal view (``repro top``)
# ---------------------------------------------------------------------


def _fmt_count(value):
    if value is None:
        return "?"
    if value >= 10_000_000:
        return "%.1fM" % (value / 1e6)
    if value >= 10_000:
        return "%.1fk" % (value / 1e3)
    return "%d" % value


def _fmt_seconds(value):
    if value is None:
        return "?"
    if value >= 3600:
        return "%dh%02dm" % (value // 3600, (value % 3600) // 60)
    if value >= 60:
        return "%dm%02ds" % (value // 60, value % 60)
    return "%.1fs" % value


def _progress_bar(progress, width=30):
    if progress is None:
        return "[%s]" % ("?" * width)
    filled = int(round(progress * width))
    return "[%s%s]" % ("#" * filled, "-" * (width - filled))


def render_top(status, now=None):
    """One frame of the ``repro top`` terminal view."""
    if now is None:
        now = time.monotonic()
    state = status.get("state", "?")
    age = None
    if status.get("updated_monotonic") is not None:
        age = max(0.0, now - status["updated_monotonic"])
    lines = []
    lines.append("repro top — run %s (pid %s)   state: %-8s backend: %s"
                 % (status.get("run_id", "?"), status.get("pid", "?"),
                    state, status.get("backend", "?")))
    progress = status.get("progress")
    lines.append("%s %s   interval %s (cycle %s)"
                 % (_progress_bar(progress),
                    "%3d%%" % round(100 * progress)
                    if progress is not None else "  ?%",
                    status.get("interval", "?"),
                    _fmt_count(status.get("cycle"))))
    rate = status.get("intervals_per_s")
    lines.append("instrs %s / %s   rate %s intervals/s   eta %s   "
                 "elapsed %s"
                 % (_fmt_count(status.get("instrs")),
                    _fmt_count(status.get("target_instrs")),
                    "%.2f" % rate if rate is not None else "?",
                    _fmt_seconds(status.get("eta_s")),
                    _fmt_seconds(status.get("elapsed_s"))))
    spec = status.get("spec_hit_rate")
    if spec is not None:
        lines.append("speculation hit rate %d%%" % round(100 * spec))
    workers = status.get("workers") or {}
    if workers:
        cells = []
        for wid in sorted(workers, key=lambda x: (len(x), x)):
            info = workers[wid]
            cells.append("%s:%s %.1fs" % (wid,
                                          info.get("last_event", "?"),
                                          info.get("age_s", 0.0)))
        lines.append("workers: " + " | ".join(cells))
    if age is not None:
        stale = "  (STALE?)" if state == "running" and age > 30 else ""
        lines.append("status written %.1fs ago%s" % (age, stale))
    return "\n".join(lines)
