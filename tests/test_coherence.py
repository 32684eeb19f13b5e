"""Tests for MESI coherence across the hierarchy.

These drive the full hierarchy (the coherence controller can't be
meaningfully tested in isolation from inclusion and the directory).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_test_system
from repro.memory.coherence import MESI
from repro.memory.hierarchy import MemoryHierarchy

from conftest import check_single_writer, is_exclusive, line_state, sharers_of

LINE = 64


def hierarchy(num_cores=4):
    return MemoryHierarchy(small_test_system(num_cores=num_cores))


class TestStateHelpers:
    def test_is_exclusive(self):
        assert is_exclusive(MESI.M) and is_exclusive(MESI.E)
        assert not is_exclusive(MESI.S) and not is_exclusive(MESI.I)

    def test_single_writer_legal(self):
        assert check_single_writer([MESI.M])
        assert check_single_writer([MESI.S, MESI.S, MESI.S])
        assert check_single_writer([])
        assert check_single_writer([MESI.I, MESI.E])

    def test_single_writer_violations(self):
        assert not check_single_writer([MESI.M, MESI.M])
        assert not check_single_writer([MESI.M, MESI.S])
        assert not check_single_writer([MESI.E, MESI.S])


class TestProtocol:
    def test_first_read_gets_exclusive(self):
        h = hierarchy()
        h.access(0, 0x1000, write=False)
        assert line_state(h.l1d[0], 0x1000 >> 6) == MESI.E

    def test_write_makes_modified(self):
        h = hierarchy()
        h.access(0, 0x1000, write=True)
        assert line_state(h.l1d[0], 0x1000 >> 6) == MESI.M

    def test_second_reader_downgrades_to_shared(self):
        h = hierarchy()
        h.access(0, 0x1000, write=False)
        h.access(1, 0x1000, write=False)
        line = 0x1000 >> 6
        assert line_state(h.l1d[0], line) == MESI.S
        assert line_state(h.l1d[1], line) == MESI.S

    def test_write_invalidates_other_copies(self):
        h = hierarchy()
        h.access(0, 0x1000, write=False)
        h.access(1, 0x1000, write=False)
        h.access(2, 0x1000, write=True)
        line = 0x1000 >> 6
        assert line_state(h.l1d[0], line) == MESI.I
        assert line_state(h.l1d[1], line) == MESI.I
        assert line_state(h.l1d[2], line) == MESI.M

    def test_read_after_write_flushes_dirty(self):
        h = hierarchy()
        h.access(0, 0x1000, write=True)
        h.access(1, 0x1000, write=False)
        line = 0x1000 >> 6
        assert line_state(h.l1d[0], line) == MESI.S
        assert line_state(h.l1d[1], line) == MESI.S
        # The dirty data was flushed to the common parent (an L3 bank);
        # the private L2s are downgraded to S.
        assert line_state(h.l2s[0], line) == MESI.S
        bank, _net = h.l2s[0].parent_select(line)
        assert line_state(bank, line) == MESI.M

    def test_silent_e_to_m_upgrade(self):
        """A write hit on an E line upgrades silently (no traffic)."""
        h = hierarchy()
        h.access(0, 0x1000, write=False)
        invs_before = h.l1d[0].upgrades
        result = h.access(0, 0x1000, write=True)
        assert line_state(h.l1d[0], 0x1000 >> 6) == MESI.M
        assert h.l1d[0].upgrades == invs_before  # no upgrade request
        assert result.hit_level == "l1d"

    def test_upgrade_from_shared_counts(self):
        h = hierarchy()
        h.access(0, 0x1000, write=False)
        h.access(1, 0x1000, write=False)  # both now S
        h.access(0, 0x1000, write=True)   # S -> M needs an upgrade
        assert h.l1d[0].upgrades == 1
        assert line_state(h.l1d[1], 0x1000 >> 6) == MESI.I

    def test_write_latency_includes_invalidation(self):
        h = hierarchy()
        h.access(0, 0x1000, write=False)
        h.access(1, 0x1000, write=False)
        miss = h.access(2, 0x2000, write=True)     # plain shared-level miss
        inv = h.access(2, 0x1000, write=True)      # must invalidate 2 L1s
        assert inv.invalidations >= 1

    def test_ifetch_uses_l1i(self):
        h = hierarchy()
        h.access(0, 0x400000, write=False, ifetch=True)
        assert line_state(h.l1i[0], 0x400000 >> 6) != MESI.I
        assert line_state(h.l1d[0], 0x400000 >> 6) == MESI.I


class TestWritebacks:
    def test_dirty_eviction_writes_back(self):
        h = hierarchy(num_cores=1)
        l1d = h.l1d[0]
        sets = l1d.array.num_sets
        ways = l1d.array.ways
        base = 0x100000
        # Fill one set beyond capacity with dirty lines.
        for i in range(ways + 1):
            addr = base + i * sets * LINE
            h.access(0, addr, write=True)
        assert l1d.evictions >= 1
        assert l1d.writebacks >= 1
        # The victim's dirty data landed in the L2.
        victim_line = base >> 6
        assert line_state(h.l2s[0], victim_line) == MESI.M

    def test_clean_eviction_no_writeback(self):
        h = hierarchy(num_cores=1)
        l1d = h.l1d[0]
        sets, ways = l1d.array.num_sets, l1d.array.ways
        for i in range(ways + 2):
            h.access(0, 0x100000 + i * sets * LINE, write=False)
        assert l1d.evictions >= 2
        assert l1d.writebacks == 0


class TestInclusion:
    def test_l3_eviction_invalidates_l1(self):
        """Inclusive L3: evicting a line kills every copy below."""
        h = hierarchy(num_cores=1)
        target = 0x100000
        target_line = target >> 6
        # parent_select is keyed by *line*, not address.
        select = h.l2s[0].parent_select
        l3, _net = select(target_line)
        h.access(0, target, write=False)
        bank_sets = l3.array.num_sets
        assert line_state(l3, target_line) != MESI.I
        # Force evictions in the L3 set holding target_line by touching
        # conflicting lines (same set index, same bank).
        candidates = []
        probe = target_line + bank_sets
        while len(candidates) < l3.array.ways + 4:
            if select(probe)[0] is l3 and \
                    probe % bank_sets == target_line % bank_sets:
                candidates.append(probe)
            probe += bank_sets
        for cand in candidates:
            h.access(0, cand << 6, write=False)
        assert line_state(l3, target_line) == MESI.I
        assert line_state(h.l1d[0], target_line) == MESI.I
        assert line_state(h.l2s[0], target_line) == MESI.I

    def test_inclusion_invariant_random(self):
        h = hierarchy()
        rng = random.Random(11)
        for _ in range(5000)  :
            h.access(rng.randrange(4), rng.randrange(1 << 17),
                     write=rng.random() < 0.4)
        assert h.check_inclusion() == []


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3),
                          st.integers(0, 255),
                          st.booleans()),
                min_size=10, max_size=300))
def test_coherence_invariants_random(ops):
    """After any access sequence: single-writer invariant, inclusion,
    and the directory agrees with L1 contents."""
    h = hierarchy()
    for core, line_idx, write in ops:
        h.access(core, line_idx * LINE, write=write)
    assert h.check_coherence() == []
    assert h.check_inclusion() == []
    # Directory consistency: every L1D-resident line is tracked by its L2.
    for core, l1d in enumerate(h.l1d):
        for line, _state in l1d.array.resident_lines():
            assert l1d in sharers_of(h.l2s[core], line)
