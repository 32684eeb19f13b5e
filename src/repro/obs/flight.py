"""The flight recorder: an always-on ring buffer of run events.

Post-hoc telemetry (:mod:`repro.obs.tracer` / :mod:`repro.obs.metrics`)
answers *where did the time go* after a run finishes; it is useless for
the failures the resilience layer exists for — a SIGKILLed worker, a
wedged pool, a deadlock three hours into a checkpointed run — because
the evidence dies with the process or is buried under a million healthy
events.  The flight recorder is the black box for exactly those cases:

* **Always on, strictly bounded.**  A :class:`FlightRecorder` holds a
  ``collections.deque(maxlen=capacity)`` of small event tuples.  One
  event costs a clock read, a tuple build, and a deque append — cheap
  enough to leave enabled by default (``ZSim`` creates one unless told
  not to), and the ring can never grow: old events fall off the far
  end.  Event *sources* still follow the telemetry guard discipline —
  every call site checks ``flight is not None`` so a disabled run pays
  one attribute load.
* **Sources.**  The simulator records interval barriers; every
  execution backend records its dispatch seams (bound passes, weave
  intervals, process-pool forks, speculation commits/mismatches,
  heartbeat slack, worker deaths); the fault-injection harness records
  each fault it fires; the checkpointer records saves.
* **Post-mortem capsules.**  On any typed fault, deadlock, signal stop,
  or unhandled crash, :meth:`FlightRecorder.capture` freezes the ring
  plus a stats snapshot and per-worker last-seen state into a JSON
  capsule written next to the checkpoints (``capsule_dir``; in-memory
  only when unset, so library use never sprays files).  ``repro report <capsule>`` renders the final seconds
  as a human-readable timeline.

Events are ``(t_monotonic, kind, fields)`` tuples.  ``time.monotonic``
on purpose: capsule timelines are *deltas* to the capture instant, and
an NTP step must never reorder the final seconds of a crash report.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque

from repro.obs.log import get_logger

_log = get_logger("obs.flight")

#: Capsule schema version (bump on incompatible changes).
CAPSULE_VERSION = 1

#: Default ring capacity (events).  At the recorder's per-interval event
#: rate this is minutes of history; the capsule carries the whole ring.
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Bounded ring of structured run events plus capsule dumping."""

    def __init__(self, capacity=DEFAULT_CAPACITY, capsule_dir=None,
                 max_capsules=16):
        self.capacity = max(16, int(capacity))
        self._events = deque(maxlen=self.capacity)
        #: Directory for post-mortem capsules; None keeps captures
        #: in-memory only (``last_capsule``).
        self.capsule_dir = capsule_dir
        #: Hard cap on capsules written per recorder, so a fault storm
        #: cannot fill a disk with near-identical dumps.
        self.max_capsules = max(1, int(max_capsules))
        self.run_id = os.urandom(4).hex()
        #: Paths of capsules written, in order.
        self.capsules = []
        #: The most recent capsule dict (kept even when nothing is
        #: written to disk).
        self.last_capsule = None
        self.captures_skipped = 0
        #: Per-worker last-seen state: ``{worker: (t, kind)}`` — updated
        #: on every recorded event carrying a ``worker`` field, read by
        #: capsules and the live monitor.
        self.worker_state = {}

    # -- recording -----------------------------------------------------

    def record(self, kind, **fields):
        """Append one event to the ring.  This is the hot-path entry:
        one clock read, one dict, one (thread-safe) deque append."""
        t = time.monotonic()
        self._events.append((t, kind, fields))
        worker = fields.get("worker")
        if worker is not None:
            self.worker_state[worker] = (t, kind)

    def events(self):
        """The ring contents, oldest first, as plain dicts."""
        return [dict(fields, t=t, kind=kind)
                for t, kind, fields in list(self._events)]

    def __len__(self):
        return len(self._events)

    # -- capsules ------------------------------------------------------

    def capture(self, sim=None, kind="crash", message="", recovery=None,
                worker=None, interval=None, phase=None):
        """Freeze the ring into a post-mortem capsule.

        Returns the path written, or None when ``capsule_dir`` is unset
        (the capsule is still available as ``last_capsule``) or the
        per-run capsule cap was reached.  Never raises: a black box
        that crashes the crash path is worse than no black box.
        """
        now = time.monotonic()
        capsule = {
            "version": CAPSULE_VERSION,
            "run_id": self.run_id,
            "captured_monotonic": now,
            "reason": {
                "kind": kind,
                "message": str(message),
                "recovery": recovery,
                "worker": worker,
                "interval": interval,
                "phase": phase,
            },
            "events": self.events(),
            "workers": {
                str(w): {"t": t, "last_event": k,
                         "age_s": round(now - t, 6)}
                for w, (t, k) in sorted(self.worker_state.items())},
        }
        if sim is not None:
            capsule["snapshot"] = self._snapshot(sim)
        self.last_capsule = capsule
        self.record("capsule", reason=kind, interval=interval)
        return self._write(capsule)

    def _snapshot(self, sim):
        """Best-effort stats snapshot at capture time.  The simulator
        may be mid-fault, so every probe is fenced."""
        snap = {}
        try:
            snap["backend"] = sim.backend.name
        except Exception:
            pass
        try:
            snap["intervals"] = sim.bound.intervals
            snap["cycle"] = max((c.cycle for c in sim.cores), default=0)
            snap["instrs"] = sum(c.instrs for c in sim.cores)
        except Exception:
            pass
        try:
            host = sim.backend.host_stats()
            if host:
                snap["exec"] = dict(host)
        except Exception:
            pass
        try:
            sentinel = sim.integrity
            if sentinel is not None:
                snap["integrity"] = sentinel.summary()
        except Exception:
            pass
        return snap

    def _write(self, capsule):
        directory = self.capsule_dir
        if directory is None:
            return None
        if len(self.capsules) >= self.max_capsules:
            self.captures_skipped += 1
            return None
        path = os.path.join(
            str(directory),
            "postmortem-%s-%03d.json" % (self.run_id,
                                         len(self.capsules)))
        try:
            os.makedirs(str(directory), exist_ok=True)
            tmp = "%s.%d.tmp" % (path, os.getpid())
            with open(tmp, "w") as fh:
                json.dump(capsule, fh, indent=2, sort_keys=True,
                          default=str)
            os.replace(tmp, path)
        except OSError as exc:
            _log.warning("could not write post-mortem capsule %s: %s",
                         path, exc)
            return None
        # The caller names the capsule (``repro run`` prints its path).
        self.capsules.append(path)
        return path

    def __repr__(self):
        return ("FlightRecorder(%d/%d events, %d capsules)"
                % (len(self._events), self.capacity, len(self.capsules)))


# ---------------------------------------------------------------------
# Capsule rendering (``repro report``)
# ---------------------------------------------------------------------


def load_capsule(path):
    """Read a capsule JSON file (raises ValueError on schema skew)."""
    with open(path) as fh:
        capsule = json.load(fh)
    version = capsule.get("version")
    if version != CAPSULE_VERSION:
        raise ValueError("%s is capsule schema v%s; this build reads v%d"
                         % (path, version, CAPSULE_VERSION))
    return capsule


def _fields_text(event):
    skip = ("t", "kind")
    parts = []
    for key in sorted(event):
        if key in skip:
            continue
        value = event[key]
        if isinstance(value, float):
            value = "%.6g" % value
        parts.append("%s=%s" % (key, value))
    return " ".join(parts)


def render_report(capsule, last_seconds=None, max_events=None):
    """Human-readable post-mortem: the reason, the snapshot, and a
    timeline of the final seconds (offsets relative to capture)."""
    reason = capsule.get("reason", {})
    t_cap = capsule.get("captured_monotonic", 0.0)
    lines = ["post-mortem capsule (run %s)"
             % capsule.get("run_id", "?")]
    head = reason.get("kind", "?")
    where = []
    if reason.get("worker") is not None:
        where.append("worker %s" % reason["worker"])
    if reason.get("interval") is not None:
        where.append("interval %s" % reason["interval"])
    if reason.get("phase"):
        where.append("%s phase" % reason["phase"])
    lines.append("  reason   : %s%s"
                 % (head, " (%s)" % ", ".join(where) if where else ""))
    if reason.get("message"):
        lines.append("  message  : %s" % reason["message"])
    if reason.get("recovery"):
        lines.append("  recovery : %s" % reason["recovery"])
    snap = capsule.get("snapshot") or {}
    if snap:
        lines.append(
            "  state    : backend=%s interval=%s cycle=%s instrs=%s"
            % (snap.get("backend", "?"), snap.get("intervals", "?"),
               snap.get("cycle", "?"), snap.get("instrs", "?")))
        integrity = snap.get("integrity") or {}
        if integrity:
            lines.append("  integrity: chain %08x, %s fingerprint(s), "
                         "%s audit(s)"
                         % (int(integrity.get("chain", 0)),
                            integrity.get("fingerprints", 0),
                            integrity.get("audits", 0)))
        exec_stats = snap.get("exec") or {}
        if exec_stats:
            interesting = {k: v for k, v in sorted(exec_stats.items())
                           if v}
            lines.append("  exec     : %s"
                         % " ".join("%s=%s" % kv
                                    for kv in interesting.items()))
    events = capsule.get("events", [])
    if last_seconds is not None:
        events = [e for e in events
                  if t_cap - e.get("t", t_cap) <= last_seconds]
    if max_events is not None:
        events = events[-max_events:]
    if events:
        span = t_cap - events[0]["t"]
        lines.append("timeline (last %.3f s, %d events):"
                     % (max(span, 0.0), len(events)))
        for event in events:
            lines.append("  %+9.3fs %-16s %s"
                         % (event["t"] - t_cap, event.get("kind", "?"),
                            _fields_text(event)))
    else:
        lines.append("timeline: (no events recorded)")
    workers = capsule.get("workers") or {}
    if workers:
        lines.append("workers:")
        for wid in sorted(workers, key=lambda x: (len(x), x)):
            state = workers[wid]
            lines.append("  worker %-4s last event %-16s %.3fs before "
                         "capture" % (wid, state.get("last_event", "?"),
                                      state.get("age_s", 0.0)))
    return "\n".join(lines)
