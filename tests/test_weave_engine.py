"""Tests for the weave engine: event graphs, domains, delays, crossings."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domains import CoreWeave
from repro.core.events import WeaveEvent
from repro.core.weave import WeaveEngine
from repro.errors import HorizonViolation
from repro.memory.access import AccessRecord, StepKind
from repro.memory.weave import CacheBankWeave


def make_result(core_id, line, latency, steps):
    """Fabricate an AccessRecord with an explicit weave chain."""
    record = AccessRecord(core_id, line, write=False)
    record.latency = latency
    record.steps.extend(steps)
    return record


def set_gap(event, index, gap):
    """Rewrite the gap of ``event``'s ``index``-th edge (delivery
    order)."""
    if index == 0:
        event.gap = gap
    else:
        event.overflow[index - 1] = (event.overflow[index - 1][0], gap)


def engine_with_bank(num_cores=2, bank_tile=0, tiles=1, ports=1,
                     latency=14, crossing_deps=True, mlp=1):
    cores = [CoreWeave("core%d" % i, i, tile=min(i, tiles - 1))
             for i in range(num_cores)]
    bank = CacheBankWeave("l3b0", latency=latency, ports=ports,
                          tile=bank_tile)
    engine = WeaveEngine(cores, [bank], num_tiles=tiles, num_domains=0,
                         crossing_deps=crossing_deps,
                         mlp_window={i: mlp for i in range(num_cores)})
    return engine, bank


def domain_picture(engine):
    """Everything a domain accounts, as the fingerprint chain sees it
    (plus the floor and the per-interval vector of the host model)."""
    return ([(list(d.integrity_items()), d._pop_floor)
             for d in engine.domains],
            engine.last_interval_domain_events)


class TestRetiming:
    def test_uncontended_access_has_zero_delay(self):
        engine, bank = engine_with_bank(num_cores=1)
        res = make_result(0, 5, 30, [(bank, 10, StepKind.HIT)])
        delays = engine.run_interval({0: [(100, res)]})
        assert delays == {0: 0}

    def test_bank_contention_delays_one_core(self):
        engine, bank = engine_with_bank(num_cores=2, ports=1)
        res0 = make_result(0, 5, 30, [(bank, 10, StepKind.HIT)])
        res1 = make_result(1, 9, 30, [(bank, 10, StepKind.HIT)])
        delays = engine.run_interval({0: [(100, res0)],
                                      1: [(100, res1)]})
        assert sorted(delays.values()) == [0, bank.PORT_OCCUPANCY]

    def test_delay_propagates_through_serial_chain(self):
        """With MLP=1, a delayed first access pushes the second."""
        engine, bank = engine_with_bank(num_cores=2, ports=1, mlp=1)
        t0 = {0: [(100, make_result(0, 1, 30, [(bank, 10, StepKind.HIT)])),
                  (140, make_result(0, 2, 30, [(bank, 10, StepKind.HIT)]))],
              1: [(100, make_result(1, 3, 30, [(bank, 10, StepKind.HIT)]))]}
        delays = engine.run_interval(t0)
        # One of the cores loses the port race at cycle 110 and its
        # second access (core 0) inherits any accumulated delay.
        assert max(delays.values()) >= 2

    def test_mlp_allows_overlap(self):
        """With a wide MLP window, two accesses of one core overlap, so
        total delay is smaller than with MLP=1."""
        def run(mlp):
            engine, bank = engine_with_bank(num_cores=1, ports=1, mlp=mlp)
            trace = {0: [
                (100, make_result(0, 1, 30, [(bank, 0, StepKind.HIT)])),
                (100, make_result(0, 2, 30, [(bank, 0, StepKind.HIT)])),
                (100, make_result(0, 3, 30, [(bank, 0, StepKind.HIT)])),
            ]}
            return engine.run_interval(trace)[0]
        assert run(4) <= run(1)

    def test_writeback_events_execute(self):
        engine, bank = engine_with_bank(num_cores=1)
        res = AccessRecord(0, 7, write=True)
        res.latency = 30
        res.steps.append((bank, 10, StepKind.MISS))
        res.wbacks.append((bank, res.latency, StepKind.WBACK))
        engine.run_interval({0: [(50, res)]})
        assert bank.events_executed == 2  # miss + writeback

    def test_empty_interval(self):
        engine, _bank = engine_with_bank()
        assert engine.run_interval({}) == {}
        assert engine.run_interval({0: []}) == {}


class TestDomainsAndCrossings:
    def test_cross_domain_dependency_counted(self):
        engine, bank = engine_with_bank(num_cores=2, bank_tile=1, tiles=2)
        # Core 0 is in domain 0; the bank is in domain 1.
        res = make_result(0, 5, 30, [(bank, 10, StepKind.HIT)])
        engine.run_interval({0: [(100, res)]})
        crossings = sum(d.crossings for d in engine.domains)
        assert crossings >= 2  # req->bank and bank->resp

    def test_same_domain_no_crossings(self):
        engine, bank = engine_with_bank(num_cores=1, bank_tile=0, tiles=1)
        res = make_result(0, 5, 30, [(bank, 10, StepKind.HIT)])
        engine.run_interval({0: [(100, res)]})
        assert sum(d.crossings for d in engine.domains) == 0

    def test_crossing_ablation_counts_requeues(self):
        """Without crossing dependencies, premature crossings requeue."""
        engine, bank = engine_with_bank(num_cores=2, bank_tile=1, tiles=2,
                                        crossing_deps=False)
        traces = {core: [(100 + i * 7,
                          make_result(core, i, 30,
                                      [(bank, 10, StepKind.HIT)]))
                         for i in range(10)]
                  for core in range(2)}
        engine.run_interval(traces)
        assert sum(d.crossing_requeues for d in engine.domains) > 0

    def test_stats_accumulate(self):
        engine, bank = engine_with_bank()
        res = make_result(0, 5, 30, [(bank, 10, StepKind.HIT)])
        engine.run_interval({0: [(100, res)]})
        engine.run_interval({0: [(2100, res)]})
        assert engine.stats.intervals == 2
        assert engine.stats.events == 6  # (req + bank + resp) x 2


class TestDeterminismAndReuse:
    def test_deterministic(self):
        def run():
            engine, bank = engine_with_bank(num_cores=4, ports=1)
            traces = {c: [(100 + c, make_result(c, i, 30,
                                                [(bank, 10,
                                                  StepKind.HIT)]))
                          for i in range(5)]
                      for c in range(4)}
            return engine.run_interval(traces)
        assert run() == run()


class TestConservatism:
    def test_response_never_before_lower_bound(self):
        """Every core's response is at or after its bound cycle (delays
        are always >= 0), the invariant feedback relies on."""
        engine, bank = engine_with_bank(num_cores=4, ports=1)
        traces = {}
        for core in range(4):
            traces[core] = [(100 * i + core,
                             make_result(core, i * 4 + core, 25,
                                         [(bank, 8, StepKind.HIT)]))
                            for i in range(8)]
        delays = engine.run_interval(traces)
        assert all(d >= 0 for d in delays.values())


class TestJournal:
    def test_journal_records_figure4_chains(self):
        """With a journal attached, every executed event is recorded and
        per-access chains show the Figure 4 structure: REQ -> component
        events -> RESP, in nondecreasing time, each started at or after
        its lower bound."""
        cores = [CoreWeave("core0", 0)]
        bank = CacheBankWeave("l3b0", latency=14, ports=1)
        journal = []
        engine = WeaveEngine(cores, [bank], num_tiles=1,
                             mlp_window={0: 1}, journal=journal)
        trace = {0: [
            (100, make_result(0, 1, 30, [(bank, 10, StepKind.HIT)])),
            (200, make_result(0, 2, 30, [(bank, 10, StepKind.MISS)])),
        ]}
        engine.run_interval(trace)
        assert len(journal) == 6  # (REQ, bank, RESP) x 2
        kinds = [entry[1] for entry in journal]
        assert kinds.count("REQ") == 2
        assert kinds.count("RESP") == 2
        for _name, _kind, min_cycle, start, done, core_id in journal:
            assert start >= min_cycle
            assert done >= start
            assert core_id == 0
        # Events execute in nondecreasing start order (single domain).
        starts = [entry[3] for entry in journal]
        assert starts == sorted(starts)


# ---------------------------------------------------------------------
# The merged heap against the per-domain-queue reference
# ---------------------------------------------------------------------


class _LoggedBank:
    """Single-port server that records every ``occupy`` call in one log
    shared by all banks of an engine: the log is the global order in
    which timing state was touched."""

    def __init__(self, name, tile, occupancy, log):
        self.name = name
        self.tile = tile
        self.domain = 0
        self.occupancy = occupancy
        self.busy_until = None
        self.log = log

    def occupy(self, cycle, kind, line=0):
        start = cycle if self.busy_until is None \
            else max(cycle, self.busy_until)
        self.busy_until = start + self.occupancy
        self.log.append((self.name, cycle, kind, line))
        return start + self.occupancy

    def zero_load_service(self, kind):
        return self.occupancy

    def reset(self):
        self.busy_until = None


#: One event: (component pick, min_cycle — a tiny range so that cycle
#: ties are the rule —, parent picks among the earlier events).
_event_descs = st.lists(
    st.tuples(st.integers(0, 63), st.integers(0, 6),
              st.lists(st.integers(0, 10_000), max_size=2)),
    min_size=1, max_size=60)

_DELTA = 1 << 40


class _Lockstep:
    """One engine plus the hand-built event graph of a description."""

    def __init__(self, num_domains):
        self.log = []
        cores = [CoreWeave("core%d" % d, d, tile=d)
                 for d in range(num_domains)]
        banks = [_LoggedBank("bank%d" % d, d, 1 + d % 3, self.log)
                 for d in range(num_domains)]
        self.engine = WeaveEngine(cores, banks, num_tiles=num_domains)
        assert len(self.engine.domains) == num_domains
        self.cores = cores
        self.comps = cores + banks
        self.events = []

    def build(self, descs, base):
        for domain in self.engine.domains:
            domain.reset_interval_stats()
        events = self.events = []
        for i, (pick, cycle, parents) in enumerate(descs):
            comp = self.comps[pick % len(self.comps)]
            event = WeaveEvent(comp, "HIT", i, base + cycle,
                               comp.zero_load_service("HIT"), core_id=0)
            for parent in {p % i for p in parents} if i else ():
                events[parent].link(event)
            events.append(event)

    def corrupt(self, victim):
        """Throw one event's timestamp far into the past: its lower
        bound, the ready time seeded from it, and the edge gaps derived
        from it (unclamped, as a corrupt timestamp would leave them)."""
        child = self.events[victim % len(self.events)]
        child.min_cycle = child.ready = -_DELTA
        for event in self.events:
            for index, (c, _gap) in enumerate(list(event.edges())):
                if c is child:
                    set_gap(event, index, -2 * _DELTA)

    def run(self, merged):
        """Execute the built graph; returns what the run did."""
        engine = self.engine
        error = None
        try:
            if merged:
                engine._execute(self.events)
            else:
                engine.seed_queues(self.events)
                engine._drain_earliest_first()
        except HorizonViolation as exc:
            error = (exc.domain, exc.cycle, exc.floor, str(exc))
        leftovers = [sorted((cycle, seq, event.line)
                            for cycle, seq, event in domain._queue)
                     for domain in engine.domains]
        for domain in engine.domains:
            del domain._queue[:]
        return {
            "error": error,
            "occupy": list(self.log),
            "done": [event.done for event in self.events],
            "cores": [core.events_executed for core in self.cores],
            "domains": domain_picture(engine),
            "leftovers": leftovers,
        }


class TestMergedHeapLockstep:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 16), _event_descs, st.integers(0, 12))
    def test_same_total_order_as_the_domain_scan(self, num_domains,
                                                 descs, second_base):
        """Random DAGs over 2-16 domains, dense in cycle ties and
        cross-domain edges, two intervals back to back (the second may
        start below the first's clock): the merged heap and the
        per-domain scan touch the components in the same order with the
        same cycles and leave identical domain bookkeeping."""
        merged, scan = _Lockstep(num_domains), _Lockstep(num_domains)
        assert merged.engine.crossing_deps and merged.engine.journal is None
        for base in (20, second_base):
            merged.build(descs, base)
            scan.build(descs, base)
            got, want = merged.run(merged=True), scan.run(merged=False)
            assert got == want
            assert got["error"] is None and not any(got["leftovers"])
            assert all(done is not None for done in got["done"])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 16), _event_descs, st.integers(0, 10_000))
    def test_corrupt_timestamp_raises_the_same_violation(
            self, num_domains, descs, victim):
        """A timestamp thrown far into the past trips the per-domain
        horizon floor at the same pop on both paths — same domain,
        cycle, floor and message — or on neither (a domain with no pop
        yet has no floor); the aborted drains leave the same counters
        and the same events queued in the same domains."""
        merged, scan = _Lockstep(num_domains), _Lockstep(num_domains)
        for lock in (merged, scan):
            lock.build(descs, 20)
            lock.corrupt(victim)
        assert merged.run(merged=True) == scan.run(merged=False)

    def test_corrupt_timestamp_is_caught(self):
        """Directed case: domain 1 has already popped at cycle 20 when
        the corrupted child of a domain-0 event lands in it."""
        descs = [(1, 0, []),        # core1 (domain 1), root
                 (0, 5, []),        # core0 (domain 0), root
                 (3, 6, [1])]       # bank1 (domain 1), child of event 1
        outcomes = []
        for is_merged in (True, False):
            lock = _Lockstep(2)
            lock.build(descs, 20)
            lock.corrupt(2)
            outcomes.append(lock.run(merged=is_merged))
        assert outcomes[0] == outcomes[1]
        domain, cycle, floor, message = outcomes[0]["error"]
        assert (domain, cycle, floor) == (1, -_DELTA, 20)
        assert "domain 1 popped an event at cycle" in message
