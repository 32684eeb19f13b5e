"""Phase tracer: spans and instants, exportable to Chrome trace JSON.

Records what the bound-weave engine does with wall-clock timestamps:
bound-phase per-core spans, weave-phase per-domain spans, interval
barriers, and scheduler events.  Two export formats:

* :meth:`Tracer.to_chrome` — the Chrome trace-event format (JSON object
  with a ``traceEvents`` array), loadable in ``chrome://tracing`` or
  https://ui.perfetto.dev.  Spans are complete ("X") events; markers are
  instant ("i") events; thread/process names ride along as metadata
  ("M") events.
* :meth:`Tracer.text_timeline` — a compact per-lane text summary for
  terminals without a trace viewer.

Timestamps are microseconds relative to tracer creation, the unit the
trace-event spec requires.  Track ids (``tid``) partition the timeline
into lanes: 0 is the simulator main loop, ``TID_CORE + n`` the bound
phase of core *n*, ``TID_DOMAIN + d`` weave domain *d*, ``TID_SCHED``
the scheduler, and ``TID_WORKER + w`` execution-backend worker *w*
(real per-worker spans, as opposed to the apportioned per-domain
shares the serial backend records).
"""

from __future__ import annotations

import json
import time

PID = 0
TID_MAIN = 0
TID_SCHED = 1
TID_CORE = 1000
TID_DOMAIN = 2000
TID_WORKER = 3000


class Tracer:
    """Collects trace events; bounded to ``max_events`` (excess spans are
    counted in :attr:`dropped` instead of growing without limit)."""

    def __init__(self, max_events=1_000_000):
        self._t0 = time.perf_counter()
        self.max_events = max_events
        self.events = []
        self.dropped = 0
        self._track_names = {TID_MAIN: "sim", TID_SCHED: "scheduler"}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def now(self):
        """Microseconds since tracer creation."""
        return (time.perf_counter() - self._t0) * 1e6

    def name_track(self, tid, name):
        self._track_names[tid] = name

    def complete(self, name, cat, start_us, dur_us, tid=TID_MAIN,
                 args=None):
        """Record a complete span ("X") from explicit microsecond times."""
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append({"name": name, "cat": cat, "ph": "X",
                            "ts": start_us, "dur": dur_us,
                            "pid": PID, "tid": tid,
                            "args": args or {}})

    def complete_raw(self, name, cat, start_s, end_s, tid=TID_MAIN,
                     args=None):
        """Record a span from raw ``time.perf_counter()`` readings."""
        start_us = (start_s - self._t0) * 1e6
        self.complete(name, cat, start_us, (end_s - start_s) * 1e6,
                      tid, args)

    def instant(self, name, cat, tid=TID_MAIN, args=None):
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append({"name": name, "cat": cat, "ph": "i",
                            "ts": self.now(), "s": "t",
                            "pid": PID, "tid": tid,
                            "args": args or {}})

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_chrome(self):
        """The trace as a Chrome trace-event JSON object (dict)."""
        meta = [{"name": "process_name", "ph": "M", "pid": PID, "tid": 0,
                 "args": {"name": "zsim-repro"}}]
        for tid, name in sorted(self._track_names.items()):
            meta.append({"name": "thread_name", "ph": "M", "pid": PID,
                         "tid": tid, "args": {"name": name}})
        return {"traceEvents": meta + self.events,
                "displayTimeUnit": "ms",
                "otherData": {"dropped_events": self.dropped}}

    def write(self, path, indent=None):
        with open(path, "w") as handle:
            json.dump(self.to_chrome(), handle, indent=indent)

    def text_timeline(self):
        """Compact per-lane summary: one line per track with span count,
        total busy time, and the heaviest span."""
        lanes = {}
        for event in self.events:
            if event["ph"] != "X":
                continue
            lane = lanes.setdefault(event["tid"],
                                    {"count": 0, "busy": 0.0,
                                     "worst": None})
            lane["count"] += 1
            lane["busy"] += event["dur"]
            if lane["worst"] is None or event["dur"] > lane["worst"][1]:
                lane["worst"] = (event["name"], event["dur"])
        lines = ["timeline (%d events, %d dropped)"
                 % (len(self.events), self.dropped)]
        for tid in sorted(lanes):
            lane = lanes[tid]
            name = self._track_names.get(tid, "tid%d" % tid)
            worst = lane["worst"]
            lines.append(
                "  %-16s %6d spans %10.3f ms busy  worst %s (%.3f ms)"
                % (name, lane["count"], lane["busy"] / 1e3,
                   worst[0], worst[1] / 1e3))
        return "\n".join(lines)

    def __len__(self):
        return len(self.events)

    def __repr__(self):
        return "Tracer(%d events, %d dropped)" % (len(self.events),
                                                  self.dropped)
