"""Tests for weave events and domains."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.domains import CoreWeave, Domain, assign_domains
from repro.core.events import WeaveEvent
from repro.core.weave import WeaveEngine
from repro.memory.weave import CacheBankWeave

from conftest import link


class TestWeaveEvent:
    def test_link_gap_from_lower_bounds(self):
        parent = WeaveEvent(None, "REQ", 0, min_cycle=100, service=10,
                            core_id=0)
        child = WeaveEvent(None, "RESP", 0, min_cycle=130, service=0,
                           core_id=0)
        link(parent, child)
        (linked, gap), = parent.edges()
        assert linked is child
        assert gap == 20  # 130 - 100 - 10
        assert child.parents_left == 1

    def test_negative_gap_clamped(self):
        parent = WeaveEvent(None, "REQ", 0, 100, 50, 0)
        child = WeaveEvent(None, "X", 0, 120, 0, 0)  # 120 < 100+50
        link(parent, child)
        assert [gap for _child, gap in parent.edges()] == [0]

    def test_multiple_parents_counted(self):
        child = WeaveEvent(None, "X", 0, 10, 0, 0)
        for _ in range(3):
            link(WeaveEvent(None, "P", 0, 0, 0, 0), child)
        assert child.parents_left == 3


class _LoggedServer:
    """Fixed-latency component recording every ``occupy`` call."""

    def __init__(self, name, tile, service, log):
        self.name = name
        self.tile = tile
        self.domain = 0
        self.service = service
        self.log = log

    def occupy(self, cycle, kind, line=0):
        self.log.append((cycle, line))
        return cycle + self.service

    def zero_load_service(self, kind):
        return self.service


def _list_of_edges_reference(parent_min, service, child_mins):
    """The plain list-of-edges model of one uncontended root delivering
    to its children: edges in link order, then the children's pops in
    (enqueue cycle, push order)."""
    edges = [(i, max(0, child_min - parent_min - service))
             for i, child_min in enumerate(child_mins)]
    done = parent_min + service
    pushes = sorted((max(done + gap, child_mins[i]), seq, i)
                    for seq, (i, gap) in enumerate(edges))
    return edges, [(cycle, i) for cycle, _seq, i in pushes]


class TestEdgeDeliveryOrder:
    @pytest.mark.parametrize("drain", ("single", "merged", "scan"))
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=8), st.integers(0, 4))
    @example([], 2)
    @example([3], 2)
    @example([3, 3], 2)
    def test_inline_and_overflow_edges_deliver_in_link_order(
            self, drain, child_offsets, service):
        """0 / 1 / 2 / n linked children (the inline slot, then the
        overflow list) reach every drain first linked, first delivered,
        with the gaps a plain list of edges would carry."""
        log = []
        tiles = 1 if drain == "single" else 2
        parent_bank = _LoggedServer("parent", 0, service, [])
        child_bank = _LoggedServer("child", tiles - 1, 0, log)
        engine = WeaveEngine([CoreWeave("core0", 0)],
                             [parent_bank, child_bank], num_tiles=tiles)
        assert len(engine.domains) == tiles
        child_mins = [100 + offset for offset in child_offsets]
        parent = WeaveEvent(parent_bank, "HIT", 99, 100, service, 0)
        children = [WeaveEvent(child_bank, "HIT", i, child_min, 0, 0)
                    for i, child_min in enumerate(child_mins)]
        for child in children:
            link(parent, child)
        want_edges, want_log = _list_of_edges_reference(
            100, service, child_mins)
        assert [(child.line, gap) for child, gap in parent.edges()] \
            == want_edges
        assert (parent.overflow is None) == (len(children) < 2)
        events = [parent] + children
        if drain == "scan":
            engine.seed_queues(events)
            engine._drain_earliest_first()
        else:
            engine._execute(events)
        assert log == want_log
        assert engine.domains[-1].crossings == \
            (len(children) if tiles == 2 else 0)


class TestDomain:
    def test_priority_order(self):
        domain = Domain(0)
        domain.push(30, "c")
        domain.push(10, "a")
        domain.push(20, "b")
        assert [domain.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_fifo_tiebreak(self):
        domain = Domain(0)
        domain.push(10, "first")
        domain.push(10, "second")
        assert domain.pop()[1] == "first"

    def test_current_cycle_tracks_pops(self):
        domain = Domain(0)
        domain.push(50, "x")
        domain.pop()
        assert domain.current_cycle == 50

    def test_head_cycle_empty(self):
        assert Domain(0).head_cycle() is None


class TestAssignDomains:
    def components(self, tiles):
        comps = []
        for tile in range(tiles):
            comps.append(CoreWeave("core%d" % tile, tile, tile=tile))
            comps.append(CacheBankWeave("l3b%d" % tile, 10, tile=tile))
        return comps

    def test_one_domain_per_tile_default(self):
        comps = self.components(4)
        domains = assign_domains(comps, num_tiles=4, num_domains=0)
        assert len(domains) == 4
        for comp in comps:
            assert comp.domain == comp.tile

    def test_vertical_slices(self):
        """Components of one tile land in one domain together."""
        comps = self.components(8)
        assign_domains(comps, num_tiles=8, num_domains=4)
        by_tile = {}
        for comp in comps:
            by_tile.setdefault(comp.tile, set()).add(comp.domain)
        assert all(len(doms) == 1 for doms in by_tile.values())

    def test_domain_count_capped_by_tiles(self):
        comps = self.components(2)
        domains = assign_domains(comps, num_tiles=2, num_domains=16)
        assert len(domains) == 2

    def test_single_tile(self):
        comps = self.components(1)
        domains = assign_domains(comps, num_tiles=1, num_domains=0)
        assert len(domains) == 1
        assert all(c.domain == 0 for c in comps)
