"""Tests for the set-associative cache array."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache_array import CacheArray
from repro.memory.coherence import MESI

from conftest import fill, occupancy, would_evict


class TestBasics:
    def test_miss_returns_none(self):
        array = CacheArray(4, 2)
        assert array.lookup(0x10) is None

    def test_fill_then_hit(self):
        array = CacheArray(4, 2)
        fill(array, 0x10, MESI.E)
        assert array.lookup(0x10) == MESI.E

    def test_update_state(self):
        array = CacheArray(4, 2)
        fill(array, 0x10, MESI.S)
        array.update_state(0x10, MESI.M)
        assert array.lookup(0x10) == MESI.M

    def test_double_fill_raises(self):
        array = CacheArray(4, 2)
        fill(array, 0x10, MESI.E)
        with pytest.raises(ValueError):
            fill(array, 0x10, MESI.E)

    def test_invalidate(self):
        array = CacheArray(4, 2)
        fill(array, 0x10, MESI.M)
        assert array.invalidate(0x10) == MESI.M
        assert array.lookup(0x10) is None
        assert array.invalidate(0x10) is None

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            CacheArray(0, 2)
        # Free-way counts are one byte a set.
        with pytest.raises(ValueError):
            CacheArray(4, 256)
        assert bytes(CacheArray(4, 255)._free) == bytes([255] * 4)


class TestEviction:
    def test_no_eviction_until_full(self):
        array = CacheArray(1, 4)
        for i in range(4):
            victim, _ = fill(array, i, MESI.E)
            assert victim is None

    def test_eviction_when_set_full(self):
        array = CacheArray(1, 2)
        fill(array, 0, MESI.E)
        fill(array, 1, MESI.M)
        victim, state = fill(array, 2, MESI.E)
        assert victim == 0  # LRU
        assert state == MESI.E

    def test_eviction_respects_lru_touch(self):
        array = CacheArray(1, 2)
        fill(array, 0, MESI.E)
        fill(array, 1, MESI.E)
        array.lookup(0)  # touch 0; 1 becomes LRU
        victim, _ = fill(array, 2, MESI.E)
        assert victim == 1

    def test_sets_are_independent(self):
        array = CacheArray(2, 1)
        fill(array, 0, MESI.E)  # set 0
        victim, _ = fill(array, 1, MESI.E)  # set 1
        assert victim is None

    def test_would_evict_is_pure(self):
        array = CacheArray(1, 2)
        fill(array, 0, MESI.E)
        assert would_evict(array, 5) is None  # free way remains
        fill(array, 1, MESI.E)
        candidate = would_evict(array, 5)
        assert candidate == 0
        # No mutation happened.
        assert array.lookup(0, touch=False) == MESI.E
        assert would_evict(array, 0) is None  # already present


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 63),
                          st.sampled_from([MESI.S, MESI.E, MESI.M])),
                min_size=1, max_size=200))
def test_array_invariants(ops):
    """Occupancy never exceeds capacity; resident lines are findable;
    victims are always lines that were resident."""
    array = CacheArray(4, 2)
    resident = {}
    for line, state in ops:
        if array.lookup(line, touch=False) is not None:
            array.update_state(line, state)
            resident[line] = state
            continue
        victim, vstate = fill(array, line, state)
        if victim is not None:
            assert resident.pop(victim) == vstate
        resident[line] = state
        assert occupancy(array) <= 4 * 2
    assert dict(array.resident_lines()) == resident
    for line, state in resident.items():
        assert array.lookup(line, touch=False) == state


def test_occupancy_counts():
    array = CacheArray(2, 2)
    for line in range(4):
        fill(array, line, MESI.E)
    assert occupancy(array) == 4


# ---------------------------------------------------------------------
# Sparse per-set state
# ---------------------------------------------------------------------


def eager(*args, **kwargs):
    """An array with every set materialised up front — what the
    constructor built before per-set state went sparse."""
    array = CacheArray(*args, **kwargs)
    for idx in range(array.num_sets):
        array._materialise(idx)
    return array


def picture(array):
    """Everything observable about an array without touching it."""
    return {
        "occupancy": occupancy(array),
        "resident": sorted(array.resident_lines()),
        "free": list(array._free),
        "audit": array.audit_invariants("a"),
        "cheap": list(array.integrity_items()),
        "deep": array.deep_items(),
    }


class TestSparseSets:
    def test_untouched_sets_own_nothing(self):
        array = CacheArray(64, 4)
        assert array.num_materialised() == 0
        # Reads never materialise.
        assert array.lookup(5) is None
        assert array.invalidate(5) is None
        assert would_evict(array, 5) is None
        assert array.num_materialised() == 0
        fill(array, 5, MESI.E)
        fill(array, 5 + 64, MESI.S)
        fill(array, 9, MESI.M)
        assert array.materialised_sets() == [5, 9]
        # An emptied set stays materialised (its policy has history).
        array.invalidate(9)
        assert array.num_materialised() == 2
        assert array.audit_invariants("a") == []

    def test_bad_policy_fails_at_construction(self):
        with pytest.raises(ValueError):
            CacheArray(4, 2, repl="mru")
        with pytest.raises(ValueError):
            CacheArray(4, 3, repl="tree")

    @pytest.mark.parametrize("clone", (
        lambda a: pickle.loads(pickle.dumps(a, pickle.HIGHEST_PROTOCOL)),
        lambda a: pickle.loads(pickle.dumps(a, 2)),
        copy.deepcopy,
        lambda a: copy.deepcopy(copy.deepcopy(a)),
    ), ids=("pickle", "pickle-proto2", "deepcopy", "deepcopy-twice"))
    def test_copies_keep_untouched_sets_apart(self, clone):
        """The untouched-set placeholder must not come back from a copy
        as one ordinary dict aliased by every untouched set."""
        array = CacheArray(16, 2)
        fill(array, 3, MESI.E)
        fill(array, 3 + 16, MESI.M)
        twin = clone(array)
        before = picture(array)
        assert picture(twin) == before
        assert twin.materialised_sets() == [3]
        # A fill into an untouched set of the copy changes that set only.
        assert fill(twin, 7, MESI.S) == (None, None)
        assert sorted(twin.resident_lines()) == sorted(
            before["resident"] + [(7, MESI.S)])
        assert twin.materialised_sets() == [3, 7]
        assert list(twin._free) == [2] * 3 + [0] + [2] * 3 + [1] + [2] * 8
        for idx in set(range(16)) - {3, 7}:
            assert twin.lookup(idx, touch=False) is None
            assert not twin._lines[idx]
        assert twin.audit_invariants("twin") == []
        # ... and nothing in the original, nor the other way round.
        assert picture(array) == before
        fill(array, 8, MESI.E)
        assert twin.lookup(8, touch=False) is None
        # The copy keeps working like any array: evictions included.
        fill(twin, 7 + 16, MESI.E)
        assert fill(twin, 7 + 32, MESI.E) == (7, MESI.S)

    def test_lazy_random_set_draws_the_eager_victims(self):
        """Set ``idx`` is seeded ``seed + idx`` whenever it is built."""
        lazy = CacheArray(8, 2, repl="random", seed=7)
        dense = eager(8, 2, repl="random", seed=7)
        victims = []
        for array in (lazy, dense):
            seen = []
            for line in range(8 * 40):
                # Visit the sets in a scattered order.
                seen.append(fill(array, (line * 7) % (8 * 40), MESI.E))
            victims.append(seen)
        assert victims[0] == victims[1]
        assert any(victim is not None for victim, _ in victims[0])
        assert lazy.num_materialised() == 8


_array_ops = st.lists(
    st.tuples(st.sampled_from(("access", "access", "access", "lookup",
                               "invalidate", "would_evict", "copy")),
              st.integers(0, 255),
              st.sampled_from([MESI.S, MESI.E, MESI.M])),
    min_size=1, max_size=300)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("lru", "random", "tree")), st.booleans(),
       _array_ops)
def test_sparse_array_matches_eager_array(repl, hash_sets, ops):
    """A sparse array and an eagerly materialised one are the same
    array: same lookups, fill victims, invalidations, occupancy,
    residents, eviction candidates, audits and deep digests over a
    random op sequence — with pickle round trips thrown in."""
    sparse = CacheArray(16, 4, repl=repl, seed=3, hash_sets=hash_sets)
    dense = eager(16, 4, repl=repl, seed=3, hash_sets=hash_sets)
    for op, line, state in ops:
        if op == "access":
            got = sparse.lookup(line)
            assert got == dense.lookup(line)
            if got is None:
                assert fill(sparse, line, state) == fill(dense, line, state)
            else:
                sparse.update_state(line, state)
                dense.update_state(line, state)
        elif op == "lookup":
            assert sparse.lookup(line, touch=False) \
                == dense.lookup(line, touch=False)
        elif op == "invalidate":
            assert sparse.invalidate(line) == dense.invalidate(line)
        elif op == "would_evict":
            if repl != "random":  # random's victim() draws from the RNG
                assert would_evict(sparse, line) == would_evict(dense, line)
        else:
            sparse = pickle.loads(pickle.dumps(sparse))
    assert picture(sparse) == picture(dense)
    assert sparse.audit_invariants("a") == []
    assert sparse.num_materialised() <= dense.num_materialised() == 16
