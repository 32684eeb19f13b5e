"""Tests for the weave engine: event graphs, domains, delays, crossings."""

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domains import CoreWeave
from repro.core.weave import WeaveEngine
from repro.errors import HorizonViolation
from repro.memory.access import AccessRecord, StepKind
from repro.memory.weave import CacheBankWeave

from conftest import JournalWeaveEngine


def make_result(core_id, line, latency, steps):
    """Fabricate an AccessRecord with an explicit weave chain."""
    record = AccessRecord(core_id, line, write=False)
    record.latency = latency
    record.steps = tuple(steps)
    return record


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
        res.steps = ((bank, 10, StepKind.MISS),)
        res.wbacks = ((bank, res.latency, StepKind.WBACK),)
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
        """Through the reference executor, every executed event is
        journaled and per-access chains show the Figure 4 structure:
        REQ -> component events -> RESP, in nondecreasing time, each
        started at or after its lower bound."""
        cores = [CoreWeave("core0", 0)]
        bank = CacheBankWeave("l3b0", latency=14, ports=1)
        engine = JournalWeaveEngine(cores, [bank], num_tiles=1,
                                    mlp_window={0: 1})
        trace = {0: [
            (100, make_result(0, 1, 30, [(bank, 10, StepKind.HIT)])),
            (200, make_result(0, 2, 30, [(bank, 10, StepKind.MISS)])),
        ]}
        engine.run_interval(trace, executor=engine._scan)
        journal = engine.journal
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
# The drain from traces against the reference graph and domain scan
# ---------------------------------------------------------------------


class _LoggedBank:
    """Single-port server that records every ``occupy`` call in one log
    shared by all banks of an engine: the log is the global order in
    which timing state was touched.  A ``past`` bank reports every
    service done ``past`` cycles before it started — a corrupt
    timestamp the horizon floor has to catch."""

    def __init__(self, name, tile, occupancy, log, past=0):
        self.name = name
        self.tile = tile
        self.domain = 0
        self.occupancy = occupancy
        self.busy_until = None
        self.log = log
        self.past = past

    def occupy(self, cycle, kind, line=0):
        start = cycle if self.busy_until is None \
            else max(cycle, self.busy_until)
        self.busy_until = start + self.occupancy
        done = start - self.past if self.past else start + self.occupancy
        self.log.append((self.name, kind, line, cycle, done))
        return done

    def zero_load_service(self, kind):
        return self.occupancy


#: One access: (issue delta, chain steps as (bank pick, offset delta),
#: write-backs as (bank pick, offset), latency slack after the last
#: step).  Small deltas make cycle ties the rule.
_accesses = st.lists(
    st.tuples(st.integers(0, 3),
              st.lists(st.tuples(st.integers(0, 63), st.integers(0, 4)),
                       max_size=4),
              st.one_of(st.just([]),
                        st.lists(st.tuples(st.integers(0, 63),
                                           st.integers(0, 8)),
                                 min_size=1, max_size=2)),
              st.integers(0, 6)),
    max_size=8)

#: Per core: its MLP window and its accesses.
_cores = st.lists(st.tuples(st.integers(1, 4), _accesses),
                  min_size=1, max_size=12)

_PAST = 1 << 20


class _Lockstep:
    """One engine over ``num_tiles`` tiles (one core per entry of
    ``cores``, dealt round-robin; one logged bank per tile) and the
    traces of a description."""

    def __init__(self, num_tiles, cores, past_tile=None):
        self.log = []
        weaves = [CoreWeave("core%d" % c, c, tile=c % num_tiles)
                  for c in range(len(cores))]
        self.banks = [_LoggedBank("bank%d" % t, t, 1 + t % 3, self.log,
                                  _PAST if t == past_tile else 0)
                      for t in range(num_tiles)]
        self.engine = WeaveEngine(
            weaves, self.banks, num_tiles=num_tiles,
            mlp_window={c: mlp for c, (mlp, _) in enumerate(cores)})
        assert len(self.engine.domains) == num_tiles
        self.weaves = weaves
        self.cores = cores

    def traces(self, base):
        banks = self.banks
        traces = {}
        for core_id, (_mlp, accesses) in enumerate(self.cores):
            trace = traces[core_id] = []
            issue = base
            for i, (delta, steps, wbacks, slack) in enumerate(accesses):
                issue += delta
                record = AccessRecord(core_id, 1000 * core_id + i,
                                      write=bool(wbacks))
                offset = 0
                for pick, step in steps:
                    offset += step
                    kind = StepKind.MISS if step % 2 else StepKind.HIT
                    record.steps += (
                        (banks[pick % len(banks)], offset, kind),)
                record.latency = offset + slack
                record.wbacks = tuple((banks[pick % len(banks)], wb_offset,
                                       StepKind.WBACK)
                                      for pick, wb_offset in wbacks)
                trace.append((issue, record))
        return traces

    def run(self, base, reference):
        """Run one interval; returns what the run did."""
        engine = self.engine
        del self.log[:]
        error = delays = None
        try:
            delays = engine.run_interval(
                self.traces(base),
                executor=engine._scan if reference else None)
        except HorizonViolation as exc:
            error = (exc.domain, exc.cycle, exc.floor, str(exc))
        leftovers = [sorted((cycle, seq, event.component.name, event.kind,
                             event.line, event.min_cycle, event.ready)
                            for cycle, seq, event in domain._queue)
                     for domain in engine.domains]
        for domain in engine.domains:
            del domain._queue[:]
        return {
            "error": error,
            "delays": delays,
            "occupy": list(self.log),
            "cores": [core.events_executed for core in self.weaves],
            "domains": domain_picture(engine),
            "leftovers": leftovers,
        }


class TestMergedHeapLockstep:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 16), _cores, st.integers(0, 12))
    def test_same_total_order_as_the_domain_scan(self, num_tiles, cores,
                                                 second_base):
        """Random traces over 1-16 tiles — MLP windows of 1-4, chains of
        0-4 steps across domains, write-backs on some accesses — two
        intervals back to back (the second may start below the first's
        clock): the drain from traces and the reference (whole graph,
        seeded roots, per-domain scan) touch the components in the same
        order with the same cycles, leave identical domain bookkeeping
        and return the same delays."""
        lazy, scan = _Lockstep(num_tiles, cores), _Lockstep(num_tiles, cores)
        for base in (20, second_base):
            got, want = lazy.run(base, False), scan.run(base, True)
            assert got == want
            assert got["error"] is None and not any(got["leftovers"])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 16), _cores, st.integers(0, 15))
    def test_corrupt_timestamp_raises_the_same_violation(
            self, num_tiles, cores, past_tile):
        """A bank that reports its services done in the past may push an
        event below its domain's horizon floor: both paths trip the
        floor at the same pop — same domain, cycle, floor and message —
        or neither does, and the aborted drains leave the same counters
        and the same ``(cycle, seq)`` keys queued in the same
        domains."""
        past_tile %= num_tiles
        lazy = _Lockstep(num_tiles, cores, past_tile)
        scan = _Lockstep(num_tiles, cores, past_tile)
        assert lazy.run(20, False) == scan.run(20, True)

    #: Core 0's second access waits for its first (MLP window 1) until
    #: cycle 250, runs its step on the past bank in domain 0, and
    #: delivers to a step at cycle 61.  Core 1's second access (MLP
    #: window 2) is still queued at cycle 300 when the floor trips.
    _CORRUPT_CORES = [(1, [(50, [(0, 0)], [], 200),     # RESP at 250
                           (10, [(0, 0), (1, 1)], [], 5)]),
                      (2, [(100, [(1, 10)], [], 20),    # RESP at 130
                           (200, [], [], 0)])]

    def caught(self, tiles):
        """Run the directed case on both paths; they must agree."""
        outcomes = []
        for reference in (False, True):
            lock = _Lockstep(tiles, self._CORRUPT_CORES, past_tile=0)
            outcomes.append(lock.run(0, reference))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def test_corrupt_timestamp_is_caught(self):
        """Directed case, two domains: the step at cycle 61 lands below
        the floor of core 1's domain, which has popped core 1's RESP at
        cycle 130."""
        outcome = self.caught(2)
        domain, cycle, floor, message = outcome["error"]
        assert (domain, cycle, floor) == (1, 61, 130)
        assert "domain 1 popped an event at cycle" in message
        assert outcome["leftovers"] == [
            [], [(300, 2, "core1", "REQ", 1001, 300, 300)]]

    def test_corrupt_timestamp_is_caught_in_one_domain(self):
        """Directed case, one domain: the step at cycle 61 lands below
        the domain's own floor at 250."""
        outcome = self.caught(1)
        domain, cycle, floor, message = outcome["error"]
        assert (domain, cycle, floor) == (0, 61, 250)
        assert "domain 0 popped an event at cycle" in message
        assert outcome["leftovers"] == [
            [(300, 3, "core1", "REQ", 1001, 300, 300)]]


class TestFootprint:
    @staticmethod
    def cold_interval():
        """64 cores on 4 tiles, 100 three-step accesses each (private
        L2 bank of the core's tile, an L3 bank and a memory bank picked
        by line), one-port banks, MLP window 4."""
        tiles = 4
        cores = [CoreWeave("core%d" % c, c, tile=c % tiles)
                 for c in range(64)]
        l2 = [CacheBankWeave("l2b%d" % t, 10, tile=t) for t in range(tiles)]
        l3 = [CacheBankWeave("l3b%d" % t, 20, tile=t) for t in range(tiles)]
        mem = [CacheBankWeave("mem%d" % t, 100, tile=t)
               for t in range(tiles)]
        engine = WeaveEngine(cores, l2 + l3 + mem, num_tiles=tiles,
                             mlp_window={c: 4 for c in range(64)})
        traces = {}
        for core in cores:
            c = core.core_id
            trace = traces[c] = []
            for i in range(100):
                line = 64 * i + c
                trace.append((10 * i + c % 7, make_result(
                    c, line, 140, [(l2[c % tiles], 4, StepKind.MISS),
                                   (l3[line % tiles], 16, StepKind.MISS),
                                   (mem[line // 7 % tiles], 40,
                                    StepKind.READ)])))
        return engine, traces

    def test_drain_holds_only_the_events_in_flight(self):
        """A cold interval's weave peaks at a small fraction of what its
        whole event graph would take: events are made when their parent
        delivers to them and die when they run."""
        engine, traces = self.cold_interval()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            graph = engine._build_events(traces)
            graph_bytes = tracemalloc.get_traced_memory()[0] - before
            del graph
            engine, traces = self.cold_interval()
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            delays = engine.run_interval(traces)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert engine.stats.events == 64 * 100 * 5
        assert max(delays.values()) > 0
        assert peak < graph_bytes / 4, (peak, graph_bytes)
