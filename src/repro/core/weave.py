"""The weave phase: parallel event-driven simulation of bound traces.

Takes the per-core traces recorded in the bound phase (accesses that
escaped the private cache levels, each with its chain of component visits
at zero-load offsets) and replays them through the weave timing models in
full order, computing the contention delays the bound phase ignored.

Event-graph construction follows Figure 4: per access, a core request
event, one event per component visited, and a core response event, all
serially linked.  Consecutive accesses of one core are chained through an
MLP window: access *i* cannot issue before the response of access
*i - mlp*, which serializes blocking (IPC1) cores and preserves overlap
for OOO cores.  Writebacks hang off the chain as side events.

Domains execute cooperatively: the engine always advances the domain with
the earliest pending event — a deterministic, conservative emulation of
zsim's one-thread-per-domain execution.  Cross-domain dependencies are
tracked as domain-crossing events with requeue accounting, including the
paper's crossing-dependency optimization (and its ablation).
"""

from __future__ import annotations

import heapq
import time

from repro.core.events import WeaveEvent
from repro.core.domains import (CoreWeave, assign_domains,
                                horizon_violation)
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
    """Builds and executes the weave-phase event graph per interval."""

    def __init__(self, core_weaves, components, num_tiles, num_domains=0,
                 crossing_deps=True, mlp_window=None, journal=None,
                 telemetry=None):
        self.core_weaves = core_weaves
        self.components = list(components)
        self.crossing_deps = crossing_deps
        #: Per-core MLP window: how many accesses may overlap.
        self.mlp_window = mlp_window or {}
        self.domains = assign_domains(
            list(core_weaves) + self.components, num_tiles, num_domains)
        self.stats = WeaveStats()
        #: (component, kind) -> zero-load service cycles.  Service times
        #: are pure per key, so one call each is enough for the run.
        self._svc_cache = {}
        self._telem = telemetry
        #: Optional list collecting (component, kind, min_cycle, start,
        #: done, core_id) per executed event — the Figure 4 trace, for
        #: debugging and structural tests.
        self.journal = journal
        #: Per-domain executed-event counts of the last interval, for the
        #: host-parallelism model.
        self.last_interval_domain_events = [0] * len(self.domains)

    # ------------------------------------------------------------------

    def run_interval(self, traces, executor=None):
        """Simulate one interval.  ``traces`` maps core_id -> list of
        (issue_cycle, AccessRecord).  Returns {core_id: delay}.

        ``executor`` — a callable taking the built event list — replaces
        *how* the event graph executes (an execution backend's parallel
        drain); ``None`` uses the engine's earliest-first reference
        executor.  Any executor must produce the same per-component
        ``occupy`` order as the reference, which is the order simulated
        timing depends on."""
        self.stats.intervals += 1
        telem = self._telem
        start = time.perf_counter() if telem is not None else 0.0
        for domain in self.domains:
            domain.reset_interval_stats()
        events, last_resp = self._build_events(traces)
        if events:
            if executor is None:
                self._execute(events)
            else:
                executor(events)
        delays = {}
        for core_id, resp in last_resp.items():
            delay = (resp.done or resp.min_cycle) - resp.min_cycle
            delays[core_id] = max(0, delay)
            self.stats.total_delay += delays[core_id]
        self.last_interval_domain_events = [
            d.events_executed for d in self.domains]
        for domain in self.domains:
            self.stats.events += domain.events_executed
            self.stats.crossings += domain.crossings
            self.stats.crossing_requeues += domain.crossing_requeues
        if telem is not None:
            self._record_interval_telemetry(telem, start,
                                            time.perf_counter(),
                                            len(events))
        return delays

    def attach_telemetry(self, telemetry):
        self._telem = telemetry

    def _record_interval_telemetry(self, telem, start_s, end_s,
                                   num_events):
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
            metrics.histogram("weave.events_per_interval").record(
                num_events)
            for domain in self.domains:
                metrics.histogram("weave.domain_queue_events").record(
                    domain.events_executed)
                metrics.histogram("weave.domain_crossings").record(
                    domain.crossings)
            metrics.inc("weave.intervals")
            metrics.inc("weave.events", num_events)

    # ------------------------------------------------------------------

    def _build_events(self, traces):
        # Construction and linking are inlined (WeaveEvent.__init__'s
        # field stores and the clamped edge-gap arithmetic) — this
        # runs once per traced access per interval and the call overhead
        # dominates the work.  A REQ or chain event's inline edge is
        # always written by its successor, so only its ``overflow`` is
        # initialised here; RESP and write-back events get all three edge
        # slots.  Chain/resp/wback events always have exactly one parent,
        # so their parents_left is assigned, not incremented; only REQ
        # events can pick up a second (MLP-window) edge.  Edges go
        # straight into the inline slot wherever the parent provably has
        # none yet (a fresh chain event; a RESP, which is the MLP parent
        # of exactly one later REQ); only write-backs, which hang off an
        # anchor that already feeds its chain, allocate an overflow list.
        new_event = WeaveEvent.__new__
        svc_cache = self._svc_cache
        svc_get = svc_cache.get
        events = []
        events_append = events.append
        last_resp = {}
        mlp_get = self.mlp_window.get
        core_weaves = self.core_weaves
        for core_id, trace in traces.items():
            if not trace:
                continue
            core_weave = core_weaves[core_id]
            mlp = mlp_get(core_id, 1)
            resp_history = []
            resp_append = resp_history.append
            for issue_cycle, result in trace:
                line = result.line
                req = new_event(WeaveEvent)
                req.component = core_weave
                req.kind = "REQ"
                req.line = line
                req.min_cycle = issue_cycle
                req.service = 0
                req.core_id = core_id
                req.parents_left = 0
                req.ready = issue_cycle
                req.done = None
                req.overflow = None
                events_append(req)
                if len(resp_history) >= mlp:
                    parent = resp_history[-mlp]
                    gap = issue_cycle - parent.min_cycle - parent.service
                    parent.child = req
                    parent.gap = gap if gap > 0 else 0
                    req.parents_left += 1
                prev = req
                prev_base = issue_cycle    # prev.min_cycle + prev.service
                steps = result.steps
                for comp, offset, kind in steps:
                    min_cycle = issue_cycle + offset
                    service = svc_get((comp, kind))
                    if service is None:
                        service = svc_cache[(comp, kind)] = \
                            comp.zero_load_service(kind)
                    ev = new_event(WeaveEvent)
                    ev.component = comp
                    ev.kind = kind
                    ev.line = line
                    ev.min_cycle = min_cycle
                    ev.service = service
                    ev.core_id = core_id
                    ev.ready = min_cycle
                    ev.done = None
                    ev.overflow = None
                    events_append(ev)
                    gap = min_cycle - prev_base
                    prev.child = ev
                    prev.gap = gap if gap > 0 else 0
                    ev.parents_left = 1
                    prev = ev
                    prev_base = min_cycle + service
                resp_cycle = issue_cycle + result.latency
                resp = new_event(WeaveEvent)
                resp.component = core_weave
                resp.kind = "RESP"
                resp.line = line
                resp.min_cycle = resp_cycle
                resp.service = 0
                resp.core_id = core_id
                resp.ready = resp_cycle
                resp.done = None
                resp.child = None
                resp.gap = 0
                resp.overflow = None
                events_append(resp)
                gap = resp_cycle - prev_base
                prev.child = resp
                prev.gap = gap if gap > 0 else 0
                resp.parents_left = 1
                if result.wbacks:
                    anchor = events[-len(steps) - 1] if steps else req
                    anchor_base = anchor.min_cycle + anchor.service
                    wb_edges = anchor.overflow = []
                    for comp, offset, kind in result.wbacks:
                        min_cycle = issue_cycle + offset
                        wb = new_event(WeaveEvent)
                        service = svc_get((comp, kind))
                        if service is None:
                            service = svc_cache[(comp, kind)] = \
                                comp.zero_load_service(kind)
                        wb.component = comp
                        wb.kind = kind
                        wb.line = line
                        wb.min_cycle = min_cycle
                        wb.service = service
                        wb.core_id = core_id
                        wb.ready = min_cycle
                        wb.done = None
                        wb.child = None
                        wb.gap = 0
                        wb.overflow = None
                        events_append(wb)
                        gap = min_cycle - anchor_base
                        wb_edges.append((wb, gap if gap > 0 else 0))
                        wb.parents_left = 1
                resp_append(resp)
                if len(resp_history) > mlp + 64:
                    del resp_history[:32]
            last_resp[core_id] = resp
        return events, last_resp

    # ------------------------------------------------------------------

    def _execute(self, events):
        """Seed and drain one interval's event graph in the total order
        ``(cycle, domain, per-domain push seq)``: the earliest pending
        event runs next, the lowest domain wins a cycle tie, and push
        order breaks ties within a domain.

        Ordinary runs never build per-domain queues.  One domain drains
        a plain ``(cycle, seq)`` heap (:meth:`_drain_single`, seeded
        inline here with the entries :meth:`Domain.push` would build);
        several domains share one merged heap (:meth:`_drain_merged`),
        so an event costs the same however many domains the chip has.
        :meth:`seed_queues` + :meth:`_drain_earliest_first` realise the
        same order by scanning real per-domain queues; they remain for
        the users that need those queues — the journal, the
        crossing-probe ablation, fault injection between seeding and
        draining, the parallel backend's batches — and as the reference
        the merged heap is tested against."""
        domains = self.domains
        if self.journal is None:
            if len(domains) == 1:
                domain = domains[0]
                queue = domain._queue
                seq = domain._seq
                heappush = heapq.heappush
                for event in events:
                    if event.parents_left == 0:
                        seq += 1
                        heappush(queue, (event.min_cycle, seq, event))
                domain._seq = seq
                self._drain_single(domain)
                return
            if self.crossing_deps:
                self._drain_merged(events)
                return
        self.seed_queues(events)
        self._drain_earliest_first()

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
        O(domains) per event; :meth:`_drain_merged` is the same order
        at O(log events)."""
        domains = self.domains
        if len(domains) == 1 and self.journal is None:
            # With one domain there is nothing to arbitrate between and
            # no edge can cross domains (so no crossings and, even with
            # the optimization ablated, no probes): the generic scan
            # collapses to a plain heap drain.
            self._drain_single(domains[0])
            return
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

    def _drain_single(self, domain):
        """Inlined drain for the single-domain case: identical pop order
        ((cycle, seq) heap discipline), identical per-component ``occupy``
        order, and the same horizon-floor invariant as
        :meth:`Domain.pop` + :meth:`_run_event`, with the queue and
        bookkeeping held in locals.  Domain counters are written back on
        every exit so an aborted interval still reports honestly."""
        queue = domain._queue
        heappop = heapq.heappop
        heappush = heapq.heappush
        floor = domain._pop_floor
        seq = domain._seq
        executed = 0
        try:
            while queue:
                cycle, _s, event = heappop(queue)
                if floor is not None and cycle < floor:
                    raise horizon_violation(domain.domain_id, cycle, floor)
                floor = cycle
                start = event.ready
                if cycle > start:
                    start = cycle
                comp = event.component
                if type(comp) is CoreWeave:
                    # CoreWeave.occupy, inlined: REQ/RESP events (about
                    # half of all events) have no occupancy state.
                    comp.events_executed += 1
                    done = start
                else:
                    done = comp.occupy(start, event.kind, event.line)
                event.done = done
                executed += 1
                child = event.child
                if child is None:
                    continue
                # Deliver the inline edge, then any overflow edges, in
                # link order.
                gap = event.gap
                overflow = event.overflow
                index = 0
                while True:
                    left = child.parents_left - 1
                    child.parents_left = left
                    candidate = done + gap
                    if candidate > child.ready:
                        child.ready = candidate
                    if left == 0:
                        ready = child.ready
                        min_cycle = child.min_cycle
                        seq += 1
                        heappush(queue,
                                 (ready if ready > min_cycle
                                  else min_cycle, seq, child))
                    if overflow is None or index == len(overflow):
                        break
                    child, gap = overflow[index]
                    index += 1
        finally:
            domain._pop_floor = floor
            domain._seq = seq
            domain.events_executed += executed
            if floor is not None and floor > domain.current_cycle:
                domain.current_cycle = floor

    def _drain_merged(self, events):
        """Seed and drain several domains through one heap keyed
        ``(cycle, domain, seq)`` — exactly the pop order of
        :meth:`seed_queues` + :meth:`_drain_earliest_first` (earliest
        head, lowest domain on ties, push order within a domain) without
        re-scanning every domain per event.  Everything a domain
        accounts stays per domain and bit-identical to the scan: push
        sequence numbers, the horizon floor and its violation, the
        clock, executed events and crossings (they feed the fingerprint
        chain and the host model).  Counters are written back on every
        exit, and an aborted drain spills what it had not run into the
        domains' own queues, where the scan would have left it."""
        domains = self.domains
        heappop = heapq.heappop
        heappush = heapq.heappush
        seqs = [domain._seq for domain in domains]
        floors = [domain._pop_floor for domain in domains]
        executed = [0] * len(domains)
        crossings = [0] * len(domains)
        heap = []
        for event in events:
            if event.parents_left == 0:
                did = event.component.domain
                seq = seqs[did] = seqs[did] + 1
                heap.append((event.min_cycle, did, seq, event))
        # Keys are unique, so the pop order does not depend on how the
        # heap was built.
        heapq.heapify(heap)
        try:
            while heap:
                cycle, did, _s, event = heappop(heap)
                floor = floors[did]
                if floor is not None and cycle < floor:
                    raise horizon_violation(did, cycle, floor)
                floors[did] = cycle
                start = event.ready
                if cycle > start:
                    start = cycle
                comp = event.component
                if type(comp) is CoreWeave:
                    # CoreWeave.occupy, inlined (see _drain_single).
                    comp.events_executed += 1
                    done = start
                else:
                    done = comp.occupy(start, event.kind, event.line)
                event.done = done
                executed[did] += 1
                child = event.child
                if child is None:
                    continue
                # Inline edge first, then overflow (see _drain_single).
                gap = event.gap
                overflow = event.overflow
                index = 0
                while True:
                    left = child.parents_left - 1
                    child.parents_left = left
                    candidate = done + gap
                    if candidate > child.ready:
                        child.ready = candidate
                    if left == 0:
                        ready = child.ready
                        min_cycle = child.min_cycle
                        target = child.component.domain
                        if target != did:
                            crossings[target] += 1
                        seq = seqs[target] = seqs[target] + 1
                        heappush(heap,
                                 (ready if ready > min_cycle
                                  else min_cycle, target, seq, child))
                    if overflow is None or index == len(overflow):
                        break
                    child, gap = overflow[index]
                    index += 1
        finally:
            for domain, seq, floor, ran, crossed in zip(
                    domains, seqs, floors, executed, crossings):
                domain._seq = seq
                domain._pop_floor = floor
                domain.events_executed += ran
                domain.crossings += crossed
                if floor is not None and floor > domain.current_cycle:
                    domain.current_cycle = floor
            for cycle, did, seq, event in heap:
                heappush(domains[did]._queue, (cycle, seq, event))

    def _run_event(self, domain, cycle, event):
        start = cycle if cycle >= event.ready else event.ready
        event.done = event.component.occupy(start, event.kind, event.line)
        domain.events_executed += 1
        if self.journal is not None:
            self.journal.append((event.component.name, event.kind,
                                 event.min_cycle, start, event.done,
                                 event.core_id))
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
