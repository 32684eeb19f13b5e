"""The traced pass: spans recorded from outside the simulator.

The hooks are the simulator's public extension points, not edits: a
:class:`SerialBackend` subclass brackets ``run_bound_pass`` and
``run_weave``, a ``mem_wrapper=`` object brackets ``access``, and a
timed iterator around ``kernel_stream(...)`` is handed to
``InstrumentedStream``.  A later issue moves the brackets inside the
program; until then this file is where "which layer ate the time" is
answered.

Span tree of one run::

    run                                  self -> core.driver_s
      core.bound_pass  (one per pass)    self -> cpu.self_s
        memory.access    (aggregated)    self -> memory.access_s
        workloads.stream (aggregated)    self -> workloads.stream_s
      core.weave       (one per interval) self -> core.weave_s

``access`` and the stream's ``next`` run a million times a run, so
their spans are summed per bound pass and recorded as one child span
each (``args.aggregated``, with the call count) instead of one span per
call: the self-time arithmetic is the same and the trace stays
loadable.
"""

from __future__ import annotations

import json
from time import perf_counter

from repro.dbt.instrumentation import InstrumentedStream
from repro.dbt.translation_cache import TranslationCache
from repro.exec.serial import SerialBackend
from repro.virt.process import SimThread
from repro.workloads import kernel_stream

#: Span name -> the per-layer metric its self time is reported as.
LAYER_OF = {
    "run": "core.driver_s",
    "core.bound_pass": "cpu.self_s",
    "core.weave": "core.weave_s",
    "memory.access": "memory.access_s",
    "workloads.stream": "workloads.stream_s",
}


class Tally:
    """Running total a per-call hook adds to; the backend turns its
    growth over a bound pass into one aggregated child span."""

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0


class SpanLog:
    """Spans of one run, kept in memory until the run ends."""

    def __init__(self, run_id):
        self.run_id = run_id
        #: (span id, parent id or None, name, start_s, end_s, args)
        self.spans = []
        self.mem = Tally()
        self.stream = Tally()

    def add(self, parent, name, start, end, args=None):
        span_id = len(self.spans)
        self.spans.append((span_id, parent, name, start, end, args or {}))
        return span_id

    def open_root(self, start):
        """Reserve span 0 for the run; :meth:`close_root` fills it."""
        return self.add(None, "run", start, start)

    def close_root(self, end):
        span_id, parent, name, start, _end, args = self.spans[0]
        self.spans[0] = (span_id, parent, name, start, end, args)

    def self_seconds(self):
        """``{span name: self seconds}``: each span's duration minus
        the part its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _id, parent, _name, start, end, _args in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = dict.fromkeys(LAYER_OF, 0.0)
        for span_id, _parent, name, start, end, _args in self.spans:
            totals[name] += (end - start) - child_time[span_id]
        return totals

    def total_seconds(self, name):
        return sum(end - start for _i, _p, n, start, end, _a in self.spans
                   if n == name)

    def write_chrome(self, path):
        """Chrome trace-event JSON (open in Perfetto / chrome://tracing).
        Aggregated children are laid end to end from their parent's
        start: their length is real, their position is not."""
        t0 = self.spans[0][3]
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                   "args": {"name": "perf worker %s" % self.run_id}}]
        for span_id, parent, name, start, end, args in self.spans:
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "pid": 1, "tid": 0,
                "args": dict(args, id=span_id, parent=parent,
                             run=self.run_id)})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


class TracingBackend(SerialBackend):
    """The serial backend with a span around each bound pass and each
    weave interval."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def run_bound_pass(self, bound, cores, limit_cycle, timings):
        log = self.log
        mem, stream = log.mem, log.stream
        mem_s, mem_n = mem.seconds, mem.calls
        stream_s, stream_n = stream.seconds, stream.calls
        start = perf_counter()
        outcomes = super().run_bound_pass(bound, cores, limit_cycle,
                                          timings)
        end = perf_counter()
        span = log.add(0, "core.bound_pass", start, end,
                       {"interval": bound.intervals, "cores": len(cores)})
        mem_end = start + (mem.seconds - mem_s)
        log.add(span, "memory.access", start, mem_end,
                {"aggregated": True, "calls": mem.calls - mem_n})
        log.add(span, "workloads.stream", mem_end,
                mem_end + (stream.seconds - stream_s),
                {"aggregated": True, "calls": stream.calls - stream_n})
        return outcomes

    def run_weave(self, weave, traces):
        start = perf_counter()
        delays = super().run_weave(weave, traces)
        self.log.add(0, "core.weave", start, perf_counter(),
                     {"interval": weave.stats.intervals,
                      "traces": len(traces)})
        return delays


class TimedMemory:
    """``mem_wrapper=`` object: the hierarchy with ``access`` timed.
    Holds only a tally, not the span log, because the guarded
    workload's checkpoints pickle it with the simulator."""

    def __init__(self, hierarchy, tally):
        self.hierarchy = hierarchy
        self.config = hierarchy.config
        self.tally = tally

    def access(self, core_id, addr, write, cycle=0, ifetch=False):
        start = perf_counter()
        result = self.hierarchy.access(core_id, addr, write, cycle, ifetch)
        tally = self.tally
        tally.seconds += perf_counter() - start
        tally.calls += 1
        return result


class TimedStream:
    """Iterator over a functional stream with ``next`` timed."""

    def __init__(self, source, tally):
        self._next = iter(source).__next__
        self.tally = tally

    def __iter__(self):
        return self

    def __next__(self):
        start = perf_counter()
        record = self._next()
        tally = self.tally
        tally.seconds += perf_counter() - start
        tally.calls += 1
        return record


def traced_threads(kernel, target_instrs, num_threads, seed_offset, log):
    """``Workload.make_threads`` with the functional streams timed.
    The worker compares the traced run's stats digest with the untraced
    run's, which is what keeps this copy honest."""
    kprog = kernel.kernel_program()
    tcache = TranslationCache()
    per_thread = max(1000, target_instrs // num_threads)
    threads = []
    for tid in range(num_threads):
        source = TimedStream(
            kernel_stream(kprog, tid, num_threads, per_thread,
                          seed_offset), log.stream)
        stream = InstrumentedStream(
            source, translation_cache=tcache,
            program_id=kprog.program.program_id)
        threads.append(SimThread(stream,
                                 name="%s-t%d" % (kernel.name, tid)))
    return threads
