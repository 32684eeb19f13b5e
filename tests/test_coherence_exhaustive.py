"""Bounded exhaustive check of the MESI walk.

Two cores with 1-way L1D and L2 sets share two lines that map to one set
in every level, so fills evict and evictions back-invalidate.  A BFS
explores every per-core read/write sequence up to a fixed depth over
canonicalised states (resident lines, MESI states, directories), driving
the shipped hierarchy and the recursive reference walk in lockstep.  At
every reachable state:

* inclusion and single-writer/multiple-reader hold;
* each cache directory's sharer bits are exactly the children holding
  the line;
* a directory owner holds the line in E or M;
* the shipped walk agrees with the reference, access by access;
* the reference memory directory (shipped memory keeps none) never holds
  two sharers of a line, and never invalidates or downgrades.
"""

import dataclasses

import pytest

from repro.config import small_test_system
from repro.memory.coherence import MESI
from repro.memory.hierarchy import MemoryHierarchy

from conftest import reference_access
from reference_walk import assert_memory_directory_idle, reference_classes

DEPTH = 6
#: Two lines in set 0 of the 1-way L1D (64 sets) and L2 (256 sets).
LINES = (0, 256)
OPS = tuple((core, line, write) for core in (0, 1) for line in LINES
            for write in (False, True))


def _config(shared_l2):
    cfg = small_test_system(num_cores=2, core_model="simple")
    return dataclasses.replace(
        cfg, l1d=dataclasses.replace(cfg.l1d, ways=1),
        l2=dataclasses.replace(cfg.l2, ways=1),
        l2_shared_per_tile=shared_l2).validate()


def _directories(h):
    return h.l2s + h.l3_banks


def _canonical(h):
    """What decides every future access: residency with MESI states and
    each directory (L3 sets never fill up, so no replacement state)."""
    return (tuple(tuple(sorted(c.array.resident_lines()))
                  for c in h.all_caches()),
            tuple((tuple(sorted(d._sharers.items())),
                   tuple(sorted(d._owner.items())))
                  for d in _directories(h)))


def _counters(h):
    return [(c.accesses, c.hits, c.misses, c.evictions, c.writebacks,
             c.invalidations, c.downgrades, c.upgrades, c.dir_ops)
            for c in h.all_caches()] + [(h.mainmem.reads,
                                         h.mainmem.writebacks)]


def _named(steps):
    return tuple((comp.name, offset, kind) for comp, offset, kind in steps)


def _record(result):
    return (result.latency, tuple(result.missed_levels), result.hit_level,
            result.invalidations, result.shared_evictions,
            _named(result.steps), _named(result.wbacks))


def _check_invariants(h):
    assert h.check_inclusion() == []
    assert h.check_coherence() == []
    # Sharer bits: rebuilt from residency, each line at the directory
    # its holder routes it to.
    expected = {d.name: {} for d in _directories(h)}
    for child in h.l1i + h.l1d + h.l2s:
        for line, _state in child.array.resident_lines():
            parent, _net = child.parent_select(line)
            sharers = expected[parent.name]
            sharers[line] = sharers.get(line, 0) | 1 << child.child_id
    assert {d.name: d._sharers for d in _directories(h)} == expected
    for d in _directories(h):
        for line, owner in d._owner.items():
            state = d.children[owner].array.lookup(line, touch=False)
            assert state in (MESI.E, MESI.M), (d.name, line, owner, state)


def _explore(shared_l2):
    """BFS to ``DEPTH``; returns the canonical states reached and the
    last frontier of new ones.  A state is kept as the access sequence
    that first reached it and rebuilt by replay (a build is cheaper than
    a deep copy)."""
    def build(reference):
        if not reference:
            return MemoryHierarchy(_config(shared_l2))
        with reference_classes():
            return MemoryHierarchy(_config(shared_l2))

    def access(h, op, reference):
        core, line, write = op
        if reference:
            return reference_access(h, core, line << h.line_bits, write)
        return h.access(core, line << h.line_bits, write)

    seen = {_canonical(build(False))}
    frontier = [()]
    for _depth in range(DEPTH):
        successors = []
        for path in frontier:
            for op in OPS:
                shipped, reference = build(False), build(True)
                for step in path + (op,):
                    got = access(shipped, step, False)
                    want = access(reference, step, True)
                    assert_memory_directory_idle(reference.mainmem)
                _check_invariants(shipped)
                assert _record(got) == _record(want)
                key = _canonical(shipped)
                assert key == _canonical(reference)
                assert _counters(shipped) == _counters(reference)
                if key not in seen:
                    seen.add(key)
                    successors.append(path + (op,))
        frontier = successors
    return seen, frontier


@pytest.mark.parametrize("shared_l2, states", ((False, 121), (True, 81)),
                         ids=("private-l2", "shared-l2"))
def test_every_reachable_state_is_coherent(shared_l2, states):
    """The space closes before ``DEPTH``, so the search covers every
    state each system can reach."""
    seen, frontier = _explore(shared_l2)
    assert len(seen) == states and frontier == []
