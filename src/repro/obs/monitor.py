"""The live run monitor: a status file you can watch while a run runs.

A multi-hour checkpointed run is a black hole between its start banner
and its final stats dump.  :class:`RunMonitor` fixes that with the
cheapest possible interface — one small JSON file, atomically rewritten
at every interval barrier (write-to-temp + ``os.replace``, so readers
never see a torn write).  Anything can watch it: ``repro top`` renders
a terminal view, CI asserts on it, and ``--status-port`` additionally
serves the same numbers as Prometheus-style text exposition for real
scrape pipelines.

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
      "recoveries": 0, "demotions": 0, "demotion_path": "",
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

    def __init__(self, path=None, port=None, target_instrs=None,
                 run_id=None):
        self.path = path
        self.target_instrs = target_instrs
        self.run_id = run_id or os.urandom(4).hex()
        self.state = "running"
        #: The latest snapshot dict (what the file/server publish).
        self.status = {}
        self._start = time.monotonic()
        self._samples = deque(maxlen=RATE_WINDOW)
        self._server = None
        if path:
            prune_status_orphans(path)
        if port is not None:
            self._server = StatusServer(self, port)

    @property
    def port(self):
        """Bound exposition port (None without ``--status-port``)."""
        return self._server.port if self._server is not None else None

    # -- publication ---------------------------------------------------

    def update(self, sim, interval, limit, cycle=None, instrs=None):
        """Publish one interval's status (called at the barrier)."""
        if cycle is None:
            cycle = max((c.cycle for c in sim.cores), default=0)
        if instrs is None:
            instrs = sum(c.instrs for c in sim.cores)
        now = time.monotonic()
        self._samples.append((now, interval, instrs))
        self.status = self._snapshot(sim, interval, limit, cycle,
                                     instrs, now)
        self._write()

    def finish(self, sim, state):
        """Publish the terminal state (``done``/``stopped``/``failed``)
        and stop the exposition server."""
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
        self.close()

    def close(self):
        server, self._server = self._server, None
        if server is not None:
            server.stop()

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
            "recoveries": 0,
            "demotions": 0,
            "demotion_path": "",
            "workers": _worker_liveness(sim, now),
        }
        supervisor = getattr(sim, "supervisor", None)
        if supervisor is not None:
            summary = supervisor.summary()
            status["recoveries"] = summary["recoveries"]
            status["demotions"] = summary["demotions"]
            status["demotion_path"] = summary["demotion_path"]
            status["integrity_rollbacks"] = summary.get(
                "integrity_rollbacks", 0)
        sentinel = getattr(sim, "integrity", None)
        if sentinel is not None:
            integrity = sentinel.summary()
            status["integrity_fingerprints"] = integrity["fingerprints"]
            status["integrity_audits"] = integrity["audits"]
            status["integrity_violations"] = integrity["violations"]
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
# Prometheus-style text exposition
# ---------------------------------------------------------------------

_STATE_CODES = {"running": 0, "done": 1, "stopped": 2, "failed": 3}

#: (status key, metric name, help text)
_GAUGES = (
    ("interval", "repro_interval", "Completed simulation intervals"),
    ("cycle", "repro_cycle", "Max simulated core cycle"),
    ("instrs", "repro_instrs", "Total simulated instructions"),
    ("target_instrs", "repro_target_instrs",
     "Instruction target for this run"),
    ("progress", "repro_progress", "Run progress in [0, 1]"),
    ("intervals_per_s", "repro_intervals_per_second",
     "Interval completion rate"),
    ("instrs_per_s", "repro_instrs_per_second",
     "Simulated instruction rate"),
    ("eta_s", "repro_eta_seconds", "Estimated seconds to completion"),
    ("elapsed_s", "repro_elapsed_seconds", "Wall seconds since start"),
    ("spec_hit_rate", "repro_spec_hit_rate",
     "Process-backend speculation hit rate"),
    ("recoveries", "repro_recoveries", "Supervisor fault recoveries"),
    ("demotions", "repro_demotions", "Degradation-ladder demotions"),
    ("integrity_fingerprints", "repro_integrity_fingerprints",
     "Interval barriers fingerprinted by the integrity sentinel"),
    ("integrity_audits", "repro_integrity_audits",
     "Online invariant audits run by the integrity sentinel"),
    ("integrity_violations", "repro_integrity_violations",
     "Integrity violations detected (silent corruption caught)"),
    ("integrity_rollbacks", "repro_integrity_rollbacks",
     "Supervisor rollbacks to a fingerprint-verified checkpoint"),
)


def prometheus_text(status):
    """Render a status snapshot as Prometheus text exposition."""
    lines = []
    state = status.get("state", "running")
    lines.append("# HELP repro_run_info Run identity (value is always 1)")
    lines.append("# TYPE repro_run_info gauge")
    lines.append('repro_run_info{run_id="%s",backend="%s",state="%s"} 1'
                 % (status.get("run_id", ""),
                    status.get("backend", ""), state))
    lines.append("# HELP repro_state Run state "
                 "(0=running 1=done 2=stopped 3=failed)")
    lines.append("# TYPE repro_state gauge")
    lines.append("repro_state %d" % _STATE_CODES.get(state, 3))
    for key, metric, help_text in _GAUGES:
        value = status.get(key)
        if value is None:
            continue
        lines.append("# HELP %s %s" % (metric, help_text))
        lines.append("# TYPE %s gauge" % metric)
        lines.append("%s %.10g" % (metric, float(value)))
    workers = status.get("workers") or {}
    if workers:
        lines.append("# HELP repro_worker_age_seconds Seconds since a "
                     "worker's last recorded event")
        lines.append("# TYPE repro_worker_age_seconds gauge")
        for wid in sorted(workers):
            lines.append('repro_worker_age_seconds{worker="%s"} %.10g'
                         % (wid, float(workers[wid].get("age_s", 0.0))))
    return "\n".join(lines) + "\n"


class StatusServer:
    """Minimal HTTP exposition: ``/metrics`` (Prometheus text) and
    ``/`` (the raw status JSON), served from a daemon thread."""

    def __init__(self, monitor, port):
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self, _monitor=monitor):
                status = _monitor.status or {}
                if self.path.startswith("/metrics"):
                    body = prometheus_text(status).encode()
                    ctype = "text/plain; version=0.0.4"
                else:
                    body = json.dumps(status, sort_keys=True,
                                      indent=1).encode()
                    ctype = "application/json"
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass  # no per-request stderr noise

        self._httpd = ThreadingHTTPServer(("127.0.0.1", int(port)),
                                          Handler)
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-status-server", daemon=True)
        self._thread.start()
        _log.info("status exposition on http://127.0.0.1:%d/metrics",
                  self.port)

    def stop(self):
        try:
            self._httpd.shutdown()
            self._httpd.server_close()
        except Exception:
            pass
        self._thread.join(timeout=2.0)


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
    resil = "recoveries %s   demotions %s%s" % (
        status.get("recoveries", 0), status.get("demotions", 0),
        "  (%s)" % status["demotion_path"]
        if status.get("demotion_path") else "")
    lines.append(("speculation hit rate %d%%   " % round(100 * spec)
                  if spec is not None else "") + resil)
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
