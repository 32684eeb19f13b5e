"""The weave phase: parallel event-driven simulation of bound traces.

Takes the per-core traces recorded in the bound phase (accesses that
escaped the private cache levels, each with its chain of component visits
at zero-load offsets) and replays them through the weave timing models in
full order, computing the contention delays the bound phase ignored.

The event graph follows Figure 4: per access, a core request event, one
event per component visited, and a core response event, all serially
linked.  Consecutive accesses of one core are chained through an MLP
window: access *i* cannot issue before the response of access
*i - mlp*, which serializes blocking (IPC1) cores and preserves overlap
for OOO cores.  Writebacks hang off the chain as side events.  Every
event has at most one parent, so an interval drains straight from the
traces, making each event when its parent delivers to it; the graph is
only ever built whole by the reference executor.

Domains execute cooperatively: the engine always advances the domain with
the earliest pending event — a deterministic, conservative emulation of
zsim's one-thread-per-domain execution.  Cross-domain dependencies are
tracked as domain-crossing events with requeue accounting, including the
paper's crossing-dependency optimization (and its ablation).
"""

from __future__ import annotations

import heapq
import time
from collections import deque

from repro.core.events import WeaveEvent
from repro.core.domains import assign_domains, horizon_violation
from repro.memory.timeline import IntervalFloor
from repro.obs.tracer import TID_DOMAIN


class _Crossing:
    """Premature-synchronization probe for a cross-domain edge (only
    materialized when the crossing-dependency optimization is off)."""

    __slots__ = ("parent", "gap")

    def __init__(self, parent, gap):
        self.parent = parent
        self.gap = gap


class WeaveStats:
    """Aggregate weave-phase statistics."""

    def __init__(self):
        self.intervals = 0
        self.events = 0
        self.crossings = 0
        self.crossing_requeues = 0
        self.total_delay = 0

    def __repr__(self):
        return ("WeaveStats(intervals=%d, events=%d, crossings=%d, "
                "requeues=%d, delay=%d)"
                % (self.intervals, self.events, self.crossings,
                   self.crossing_requeues, self.total_delay))


class WeaveEngine:
    """Executes the weave phase of each interval."""

    def __init__(self, core_weaves, components, num_tiles, num_domains=0,
                 crossing_deps=True, mlp_window=None, telemetry=None,
                 floor=None):
        self.core_weaves = core_weaves
        self.components = list(components)
        self.crossing_deps = crossing_deps
        #: Per-core MLP window: how many accesses may overlap.
        self.mlp_window = mlp_window or {}
        self.domains = assign_domains(
            list(core_weaves) + self.components, num_tiles, num_domains)
        self.stats = WeaveStats()
        #: (component, kind) -> zero-load service cycles, for the drains.
        #: Service times are pure per key: one call each serves the run.
        self._svc_cache = {}
        self._telem = telemetry
        #: Per-domain executed-event counts of the last interval, for the
        #: host-parallelism model.
        self.last_interval_domain_events = [0] * len(self.domains)
        self.floor = IntervalFloor() if floor is None else floor

    # ------------------------------------------------------------------

    def run_interval(self, traces, executor=None):
        """Simulate one interval.  ``traces`` maps core_id -> list of
        (issue_cycle, AccessRecord).  Returns {core_id: delay}.

        ``executor`` — a callable taking the built event list — replaces
        *how* the event graph executes (an execution backend's parallel
        drain).  ``None`` drains straight from the traces, except under
        the crossing-probe ablation on several domains, which needs the
        reference executor's queues.  Any executor must produce the
        reference's per-component ``occupy`` order, the order simulated
        timing depends on."""
        self.stats.intervals += 1
        telem = self._telem
        start = time.perf_counter() if telem is not None else 0.0
        domains = self.domains
        for domain in domains:
            domain.reset_interval_stats(self.floor.cycle)
        if executor is None and len(domains) == 1:
            delays = self._drain_single(traces)
        elif executor is None and self.crossing_deps:
            delays = self._drain(traces)
        else:
            events, last_resp = self._build_events(traces)
            if events:
                (executor or self._scan)(events)
            delays = self._delays(traces, {core_id: resp.done for core_id,
                                           resp in last_resp.items()})
        self.stats.total_delay += sum(delays.values())
        self.last_interval_domain_events = [
            d.events_executed for d in domains]
        for domain in domains:
            self.stats.events += domain.events_executed
            self.stats.crossings += domain.crossings
            self.stats.crossing_requeues += domain.crossing_requeues
        if telem is not None:
            self._record_interval_telemetry(telem, start,
                                            time.perf_counter())
        return delays

    def attach_telemetry(self, telemetry):
        self._telem = telemetry

    def _record_interval_telemetry(self, telem, start_s, end_s):
        """Per-domain spans and queue/crossing histograms for one
        interval.  Domains execute cooperatively (interleaved on one host
        thread), so each domain's span is the interval's weave wall time
        apportioned by its share of executed events — the same model the
        host-parallelism estimate uses."""
        tracer = telem.tracer
        metrics = telem.metrics
        total = sum(d.events_executed for d in self.domains)
        wall = end_s - start_s
        if tracer is not None:
            cursor_us = (start_s - tracer._t0) * 1e6
            for domain in self.domains:
                if domain.events_executed == 0:
                    continue
                share_us = (wall * 1e6 * domain.events_executed / total
                            if total else 0.0)
                tracer.complete(
                    "domain%d" % domain.domain_id, "weave", cursor_us,
                    share_us, TID_DOMAIN + domain.domain_id,
                    {"interval": self.stats.intervals,
                     "events": domain.events_executed,
                     "crossings": domain.crossings,
                     "requeues": domain.crossing_requeues})
                cursor_us += share_us
        if metrics is not None:
            metrics.histogram("weave.events_per_interval").record(total)
            for domain in self.domains:
                metrics.histogram("weave.domain_queue_events").record(
                    domain.events_executed)
                metrics.histogram("weave.domain_crossings").record(
                    domain.crossings)

    # ------------------------------------------------------------------

    def _drain(self, traces):
        """Run one interval straight from the traces, in the reference's
        total order ``(cycle, domain, per-domain push seq)``: earliest
        event first, lowest domain on a cycle tie, push order within a
        domain.  Every event of the reference graph has at most one
        parent (a chain hop, a RESP or a write-back exactly one, a REQ
        its MLP-window RESP or none), so making each event when its
        parent delivers to it pushes the same keys in the same order as
        building the graph whole and seeding its roots — and only the
        events in flight exist.  Returns {core_id: delay}.

        A heap entry is ``(cycle, domain, seq, pos, issue, record,
        index, core)``: access ``index`` of a :meth:`_roots` core, issued
        at ``issue``, at chain position ``pos`` — 0 its REQ, ``1..n`` its
        steps, -1 its RESP, ``-2 - j`` its write-back ``j``.  An event
        starts at its key, ``max(ready, min_cycle)``.  Every domain's
        push seq, floor (and its violation), clock, executed events (its
        pushes less what is still queued) and crossings stay
        bit-identical to the reference, are written back on every exit,
        and an aborted drain spills what it had not run (:meth:`_spill`)."""
        domains = self.domains
        heappop = heapq.heappop
        heappush = heapq.heappush
        svc_cache = self._svc_cache
        svc_get = svc_cache.get
        seqs = [domain._seq for domain in domains]
        floors = [domain._pop_floor for domain in domains]
        crossings = [0] * len(domains)
        last_done = {}
        heap = []
        for core in self._roots(traces):
            did = core[0].domain
            trace = core[1]
            for index in range(min(core[2], len(trace))):
                issue, record = trace[index]
                seq = seqs[did] = seqs[did] + 1
                heap.append((issue, did, seq, 0, issue, record, index,
                             core))
        # Keys are unique, so the pop order does not depend on how the
        # heap was built.
        heapq.heapify(heap)
        pending = [0] * len(domains)
        try:
            while heap:
                (cycle, did, _s, pos, issue, record, index,
                 core) = heappop(heap)
                if cycle < floors[did]:
                    raise horizon_violation(did, cycle, floors[did])
                floors[did] = cycle
                if pos > 0:
                    steps = record.steps
                    comp, offset, kind = steps[pos - 1]
                    done = comp.occupy(cycle, kind, record.line)
                    service = svc_get((comp, kind))
                    if service is None:
                        service = svc_cache[(comp, kind)] = \
                            comp.zero_load_service(kind)
                    base = issue + offset + service
                elif pos == 0:
                    # CoreWeave.occupy, inlined: REQ/RESP events (about
                    # half of all events) have no occupancy state.
                    core[0].events_executed += 1
                    done = cycle
                    steps = record.steps
                    base = issue
                elif pos == -1:
                    core[0].events_executed += 1
                    # The RESP's one child is the REQ ``mlp`` accesses
                    # later, in the core's own domain.  The RESP ran at
                    # or after its lower bound, so no clamp is needed.
                    trace = core[1]
                    index += core[2]
                    resp_min = issue + record.latency
                    if index < len(trace):
                        issue, record = trace[index]
                        gap = issue - resp_min
                        seq = seqs[did] = seqs[did] + 1
                        heappush(heap, (cycle + gap if gap > 0 else cycle,
                                        did, seq, 0, issue, record, index,
                                        core))
                    elif index == len(trace) + core[2] - 1:
                        last_done[core[3]] = cycle
                    continue
                else:
                    comp, _offset, kind = record.wbacks[-2 - pos]
                    comp.occupy(cycle, kind, record.line)
                    continue
                # Deliver to the next event of the chain, then to the
                # write-backs anchored here (on the first step, or on
                # the REQ of a chain without steps).
                if pos < len(steps):
                    comp, offset, kind = steps[pos]
                    child_min = issue + offset
                    target = comp.domain
                    child_pos = pos + 1
                else:
                    child_min = issue + record.latency
                    target = core[0].domain
                    child_pos = -1
                gap = child_min - base
                ready = done + gap if gap > 0 else done
                if target != did:
                    crossings[target] += 1
                seq = seqs[target] = seqs[target] + 1
                heappush(heap, (ready if ready > child_min else child_min,
                                target, seq, child_pos, issue, record,
                                index, core))
                if pos < 2 and record.wbacks and (pos or not steps):
                    for j, (comp, offset, kind) in enumerate(record.wbacks):
                        child_min = issue + offset
                        gap = child_min - base
                        ready = done + gap if gap > 0 else done
                        target = comp.domain
                        if target != did:
                            crossings[target] += 1
                        seq = seqs[target] = seqs[target] + 1
                        heappush(heap, (ready if ready > child_min
                                        else child_min, target, seq,
                                        -2 - j, issue, record, index,
                                        core))
        except BaseException:
            pending[did] = 1  # popped when the drain broke off: not run
            if floors[did] == cycle > domains[did].current_cycle:
                domains[did].current_cycle = cycle  # it passed the floor
            raise
        finally:
            for entry in heap:
                pending[entry[1]] += 1
            for domain, seq, floor, crossed, left in zip(
                    domains, seqs, floors, crossings, pending):
                domain.events_executed += seq - domain._seq - left
                domain._seq = seq
                domain._pop_floor = floor
                domain.crossings += crossed
                # One that ran nothing holds the interval's floor.
                if domain.events_executed and floor > domain.current_cycle:
                    domain.current_cycle = floor
            self._spill(heap)
        return self._delays(traces, last_done)

    def _drain_single(self, traces):
        """:meth:`_drain` on one domain (nothing crosses): seq and floor
        in locals, no domain in the key.  Fork ledger row: it pays."""
        domain = self.domains[0]
        heappop = heapq.heappop
        heappush = heapq.heappush
        svc_cache = self._svc_cache
        svc_get = svc_cache.get
        seq = domain._seq
        floor = domain._pop_floor
        last_done = {}
        heap = []
        for core in self._roots(traces):
            trace = core[1]
            for index in range(min(core[2], len(trace))):
                issue, record = trace[index]
                seq += 1
                heap.append((issue, seq, 0, issue, record, index, core))
        heapq.heapify(heap)
        in_hand = 0
        try:
            while heap:
                cycle, _s, pos, issue, record, index, core = heappop(heap)
                if cycle < floor:
                    raise horizon_violation(0, cycle, floor)
                floor = cycle
                if pos > 0:
                    steps = record.steps
                    comp, offset, kind = steps[pos - 1]
                    done = comp.occupy(cycle, kind, record.line)
                    service = svc_get((comp, kind))
                    if service is None:
                        service = svc_cache[(comp, kind)] = \
                            comp.zero_load_service(kind)
                    base = issue + offset + service
                elif pos == 0:
                    core[0].events_executed += 1
                    done = cycle
                    steps = record.steps
                    base = issue
                elif pos == -1:
                    core[0].events_executed += 1
                    trace = core[1]
                    index += core[2]
                    resp_min = issue + record.latency
                    if index < len(trace):
                        issue, record = trace[index]
                        gap = issue - resp_min
                        seq += 1
                        heappush(heap, (cycle + gap if gap > 0 else cycle,
                                        seq, 0, issue, record, index,
                                        core))
                    elif index == len(trace) + core[2] - 1:
                        last_done[core[3]] = cycle
                    continue
                else:
                    comp, _offset, kind = record.wbacks[-2 - pos]
                    comp.occupy(cycle, kind, record.line)
                    continue
                if pos < len(steps):
                    child_min = issue + steps[pos][1]
                    child_pos = pos + 1
                else:
                    child_min = issue + record.latency
                    child_pos = -1
                gap = child_min - base
                ready = done + gap if gap > 0 else done
                seq += 1
                heappush(heap, (ready if ready > child_min else child_min,
                                seq, child_pos, issue, record, index,
                                core))
                if pos < 2 and record.wbacks and (pos or not steps):
                    for j, (comp, offset, kind) in enumerate(record.wbacks):
                        child_min = issue + offset
                        gap = child_min - base
                        ready = done + gap if gap > 0 else done
                        seq += 1
                        heappush(heap, (ready if ready > child_min
                                        else child_min, seq, -2 - j,
                                        issue, record, index, core))
        except BaseException:
            in_hand = 1
            if floor == cycle > domain.current_cycle:
                domain.current_cycle = cycle  # it passed the floor
            raise
        finally:
            domain.events_executed += seq - domain._seq - len(heap) - in_hand
            domain._seq = seq
            domain._pop_floor = floor
            if domain.events_executed and floor > domain.current_cycle:
                domain.current_cycle = floor
            self._spill((entry[0], 0) + entry[1:] for entry in heap)
        return self._delays(traces, last_done)

    def _roots(self, traces):
        """``(core_weave, trace, mlp, core_id)`` per core with a trace,
        in trace order; its first ``mlp`` REQs are roots."""
        mlp_get = self.mlp_window.get
        return [(self.core_weaves[core_id], trace, mlp_get(core_id, 1),
                 core_id)
                for core_id, trace in traces.items() if trace]

    @staticmethod
    def _delays(traces, last_done):
        """Each core's delay: its last RESP's ``last_done`` cycle past
        that RESP's lower bound."""
        delays = {}
        for core_id, trace in traces.items():
            if trace:
                issue, record = trace[-1]
                resp_min = issue + record.latency
                delay = (last_done[core_id] or resp_min) - resp_min
                delays[core_id] = delay if delay > 0 else 0
        return delays

    def _spill(self, entries):
        """Queue the heap entries an aborted drain had not run into their
        domains as :class:`WeaveEvent` leaves (the reference would also
        have linked their children) under the same ``(cycle, seq)``."""
        for cycle, did, seq, pos, issue, record, _index, core in entries:
            if pos > 0:
                comp, offset, kind = record.steps[pos - 1]
            elif pos < -1:
                comp, offset, kind = record.wbacks[-2 - pos]
            else:
                comp, offset, kind = ((core[0], 0, "REQ") if pos == 0 else
                                      (core[0], record.latency, "RESP"))
            event = WeaveEvent(comp, kind, record.line, issue + offset,
                               comp.zero_load_service(kind), core[3])
            event.ready = cycle
            heapq.heappush(self.domains[did]._queue, (cycle, seq, event))

    # -- the reference executor ----------------------------------------

    def _scan(self, events):
        self.seed_queues(events)
        self._drain_earliest_first()

    def _build_events(self, traces):
        """The interval's whole event graph: its events in build order
        (per access: REQ, steps, RESP, write-backs) and each core's last
        RESP.  The drains never build it; the ``executor`` seam and the
        crossing-probe ablation run on it, and tests check the drains
        against it."""
        events = []
        last_resp = {}
        for core, trace, mlp, core_id in self._roots(traces):
            window = deque(maxlen=mlp)
            for issue, record in trace:
                line = record.line
                chain = [WeaveEvent(core, "REQ", line, issue, 0, core_id)]
                if len(window) == mlp:
                    window[0].link(chain[0])
                for comp, offset, kind in record.steps:
                    chain.append(WeaveEvent(comp, kind, line, issue + offset,
                                            comp.zero_load_service(kind),
                                            core_id))
                chain.append(WeaveEvent(core, "RESP", line,
                                        issue + record.latency, 0, core_id))
                for parent, child in zip(chain, chain[1:]):
                    parent.link(child)
                events += chain
                anchor = chain[1] if record.steps else chain[0]
                for comp, offset, kind in record.wbacks:
                    wback = WeaveEvent(comp, kind, line, issue + offset,
                                       comp.zero_load_service(kind), core_id)
                    anchor.link(wback)
                    events.append(wback)
                window.append(chain[-1])
            last_resp[core_id] = chain[-1]
        return events, last_resp

    def seed_queues(self, events):
        """Enqueue root events (no pending parents) into their domains.

        With the crossing-dependency optimization disabled (ablation:
        premature synchronization), every non-root event whose incoming
        edge crosses domains additionally gets an eager
        :class:`_Crossing` probe from the child's side — the delivery
        itself still comes from the parent when it finishes."""
        domains = self.domains
        for event in events:
            if event.parents_left == 0:
                domains[event.domain].push(event.min_cycle, event)
        if not self.crossing_deps:
            for event in events:
                for child, gap in event.edges():
                    if child.domain != event.domain:
                        probe = _Crossing(event, gap)
                        domains[child.domain].push(child.min_cycle, probe)

    def _drain_earliest_first(self):
        """Always advance the domain with the earliest pending event —
        a deterministic, conservative emulation of zsim's
        thread-per-domain execution (see module docs).  The scan costs
        O(domains) per event; :meth:`_drain` is the same order at
        O(log events in flight)."""
        domains = self.domains
        while True:
            best = None
            best_cycle = None
            for domain in domains:
                head = domain.head_cycle()
                if head is not None and (best_cycle is None
                                         or head < best_cycle):
                    best_cycle = head
                    best = domain
            if best is None:
                break
            cycle, item = best.pop()
            if isinstance(item, _Crossing):
                self._run_crossing(best, cycle, item)
            else:
                self._run_event(best, cycle, item)

    def _run_event(self, domain, cycle, event):
        start = cycle if cycle >= event.ready else event.ready
        event.done = event.component.occupy(start, event.kind, event.line)
        domain.events_executed += 1
        for child, gap in event.edges():
            child.parents_left -= 1
            candidate = event.done + gap
            if candidate > child.ready:
                child.ready = candidate
            if child.parents_left == 0:
                target = self.domains[child.domain]
                if child.domain != event.domain:
                    target.crossings += 1
                enqueue_at = child.ready if child.ready > child.min_cycle \
                    else child.min_cycle
                target.push(enqueue_at, child)

    def _run_crossing(self, domain, cycle, crossing):
        parent = crossing.parent
        if parent.done is not None:
            return  # parent finished; the real delivery already happened
        # Premature synchronization: requeue at the parent domain's
        # current cycle plus the parent->child delay (Section 3.2.2).
        parent_domain = self.domains[parent.domain]
        requeue = max(cycle + 1,
                      parent_domain.current_cycle + max(1, crossing.gap))
        domain.crossing_requeues += 1
        domain.push(requeue, crossing)
