"""The bitmask directories must be a pure representation change.

A lockstep property test pins the ISSUE 10 coherence-walk refactor: a
reference hierarchy whose directories are the pre-refactor line ->
set-of-child-Cache / line -> Cache form (the seed implementation,
inlined below), accessed through the recursive reference walk of
``reference_walk``, is driven through the same randomized MESI traffic
as the shipped hierarchy (bitmask directories, L1 hits served by the
core probe, flattened walk, prefetch fills entering that walk at the
L2).  Every access must return the same latency/miss/invalidation
record and weave steps, and the final arrays, counters, and (decoded)
cache directories must match.  The reference memory keeps a directory
the shipped one dropped; after every access it must never have held
two sharers of a line nor sent an invalidation or a downgrade.  It runs
on one tile and on four: only the four-tile shape (NoC route steps, a
bank and a controller per tile) can tell a path-chain key that forgot
a component from a right one.
"""

import dataclasses
import functools
import random

import pytest

from repro.config import small_test_system, tiled_chip
from repro.memory.cache import Cache
from repro.memory.coherence import MESI
from repro.memory.hierarchy import MemoryHierarchy

from conftest import reference_access, sharers_of
from reference_walk import (ReferenceCache, ReferenceMainMemory,
                            assert_memory_directory_idle,
                            reference_classes)


# ---------------------------------------------------------------------
# Reference (pre-refactor) directory implementations
# ---------------------------------------------------------------------


class SetDirectoryCache(ReferenceCache):
    """The seed's set-of-objects directory, grafted onto the reference
    walk.

    Every method that reads or writes ``_sharers``/``_owner`` is
    overridden with the pre-refactor body; the array, routing, and
    counter code underneath is the current implementation, so any
    divergence the property test finds is the directory's fault."""

    def acquire_exclusive(self, line, requester, ctx):
        dirty = False
        for child in list(self._sharers.get(line, ())):
            if child is not requester:
                dirty |= child.invalidate_subtree(line)
                ctx.latency += self.down_latency
                ctx.invalidations += 1
        state = self.array.lookup(line, touch=False)
        if state == MESI.S:
            parent, net = self.parent_select(line)
            ctx.latency += net
            parent.acquire_exclusive(line, self, ctx)
            state = MESI.E
        if dirty and state == MESI.E:
            state = MESI.M
        if state is not None:
            self.array.update_state(line, state)
        self._sharers[line] = {requester}
        self._owner[line] = requester

    def child_evicted(self, line, child, dirty, ctx):
        sharers = self._sharers.get(line)
        if sharers is not None:
            sharers.discard(child)
            if not sharers:
                del self._sharers[line]
        if self._owner.get(line) is child:
            del self._owner[line]
        if dirty:
            state = self.array.lookup(line, touch=False)
            if state is not None:
                self.array.update_state(line, MESI.M)

    def invalidate_subtree(self, line):
        dirty = False
        for child in self._clear_directory(line):
            dirty |= child.invalidate_subtree(line)
        state = self.array.invalidate(line)
        if state is not None:
            self.invalidations += 1
            dirty |= state == MESI.M
        return dirty

    def downgrade_subtree(self, line):
        dirty = False
        owner = self._owner.pop(line, None)
        if owner is not None:
            dirty |= owner.downgrade_subtree(line)
        state = self.array.lookup(line, touch=False)
        if state is not None and state != MESI.S:
            self.downgrades += 1
            dirty |= state == MESI.M
            self.array.update_state(line, MESI.S)
        return dirty

    def _grant_to_child(self, line, write, requester, own_state, ctx):
        sharers = self._sharers.setdefault(line, set())
        if write:
            dirty = False
            for child in list(sharers):
                if child is not requester:
                    dirty |= child.invalidate_subtree(line)
                    ctx.latency += self.down_latency
                    ctx.invalidations += 1
            sharers.clear()
            sharers.add(requester)
            self._owner[line] = requester
            if dirty:
                self.array.update_state(line, MESI.M)
            return MESI.E
        owner = self._owner.get(line)
        if owner is not None and owner is not requester:
            dirty = owner.downgrade_subtree(line)
            ctx.latency += self.down_latency
            del self._owner[line]
            if dirty:
                self.array.update_state(line, MESI.M)
                own_state = MESI.M
        sharers.add(requester)
        if len(sharers) == 1 and own_state in (MESI.E, MESI.M):
            self._owner[line] = requester
            return MESI.E
        return MESI.S

    def _evict(self, line, state, ctx):
        self.evictions += 1
        if ctx is not None and self.children:
            ctx.shared_evictions += (line,)
        dirty = state == MESI.M
        for child in self._clear_directory(line):
            dirty |= child.invalidate_subtree(line)
        parent, _net = self.parent_select(line)
        parent.child_evicted(line, self, dirty, ctx)
        if dirty:
            self.writebacks += 1

    def _clear_directory(self, line):
        sharers = self._sharers.pop(line, set())
        self._owner.pop(line, None)
        return sharers

    def sharers_of(self, line):
        return set(self._sharers.get(line, ()))


class SetDirectoryMainMemory(ReferenceMainMemory):
    """Pre-refactor MainMemory directory (sets of top-level caches),
    counting sharers and fan-outs as its base class does."""

    def handle_access(self, line, write, requester, ctx):
        self.reads += 1
        ctrl = line % self.config.controllers
        src_tile = getattr(requester, "tile", 0)
        ctrl_tile = self.controller_tile(ctrl)
        if self.noc_routes is not None and src_tile != ctrl_tile:
            route = self.noc_routes.get((src_tile, ctrl_tile))
            if route is not None:
                ctx.steps += ((route, ctx.latency, "NOC"),)
        ctx.latency += self.network.latency(src_tile, ctrl_tile)
        arrival = ctx.latency
        ctx.latency += self.config.zero_load_latency
        if self.ctrl_weaves[ctrl] is not None:
            ctx.steps += ((self.ctrl_weaves[ctrl], arrival, "READ"),)
        sharers = self._sharers.setdefault(line, set())
        if write:
            for child in list(sharers):
                if child is not requester:
                    child.invalidate_subtree(line)
                    ctx.invalidations += 1
                    self.fanouts += 1
            sharers.clear()
            sharers.add(requester)
            self._owner[line] = requester
            return MESI.E
        owner = self._owner.get(line)
        if owner is not None and owner is not requester:
            owner.downgrade_subtree(line)
            self.fanouts += 1
            del self._owner[line]
        sharers.add(requester)
        self.max_sharers = max(self.max_sharers, len(sharers))
        if len(sharers) == 1:
            self._owner[line] = requester
            return MESI.E
        return MESI.S

    def acquire_exclusive(self, line, requester, ctx):
        for child in list(self._sharers.get(line, ())):
            if child is not requester:
                child.invalidate_subtree(line)
                ctx.invalidations += 1
                self.fanouts += 1
        self._sharers[line] = {requester}
        self._owner[line] = requester

    def child_evicted(self, line, child, dirty, ctx):
        sharers = self._sharers.get(line)
        if sharers is not None:
            sharers.discard(child)
            if not sharers:
                del self._sharers[line]
        if self._owner.get(line) is child:
            del self._owner[line]
        if dirty:
            self.writebacks += 1
            weave = self.ctrl_weaves[line % self.config.controllers]
            if weave is not None:
                ctx.wbacks += ((weave, ctx.latency, "WBACK"),)

    def sharers_of(self, line):
        return set(self._sharers.get(line, ()))


# ---------------------------------------------------------------------
# Lockstep property test
# ---------------------------------------------------------------------


def _build_hierarchy(reference, prefetch_degree=0, cfg=None):
    if cfg is None:
        cfg = small_test_system(num_cores=4, core_model="ooo")
        cfg = dataclasses.replace(cfg, l2=dataclasses.replace(
            cfg.l2, prefetch_degree=prefetch_degree))
    if not reference:
        return MemoryHierarchy(cfg)
    # The flat walk inlines bitmask directory ops; the reference
    # hierarchy takes the recursive (set-of-objects) walk.  The bitmask
    # side runs the shipped probe and access().
    with reference_classes(SetDirectoryCache, SetDirectoryMainMemory):
        h = MemoryHierarchy(cfg)
    h.access = functools.partial(reference_access, h)
    return h


def _four_tile_config():
    """``tiled_chip(4, cores_per_tile=2)`` with the weave-phase NoC on,
    caches small enough that the traffic fills and evicts at every
    level (its four controllers, one per tile, stay), and the L1I as
    fast as the L1D (as ``CacheConfig``'s defaults have it)."""
    cfg = tiled_chip(4, core_model="ooo", cores_per_tile=2)
    small = {"l1i": (4, 2), "l1d": (4, 4), "l2": (16, 4), "l3": (64, 8)}
    cfg = dataclasses.replace(
        cfg, network=dataclasses.replace(cfg.network, weave_model=True),
        **{level: dataclasses.replace(getattr(cfg, level), size_kb=size,
                                      ways=ways)
           for level, (size, ways) in small.items()})
    return dataclasses.replace(cfg, l1i=dataclasses.replace(
        cfg.l1i, latency=cfg.l1d.latency)).validate()


def _directory_picture(h):
    """Cache directory state decoded to names: comparable across the
    bitmask and set-of-objects representations."""
    picture = {}
    for cache in h.all_caches():
        decode = getattr(cache, "sharers_of", None) or functools.partial(
            sharers_of, cache)
        sharers = {line: tuple(sorted(c.name for c in decode(line)))
                   for line in cache._sharers}
        owners = {}
        for line in list(cache._owner):
            owner = cache._owner[line]
            if not isinstance(owner, Cache):
                owner = cache.children[owner]
            owners[line] = owner.name
        picture[cache.name] = (sharers, owners)
    return picture


def _state_picture(h):
    counters = {}
    arrays = {}
    for cache in h.all_caches():
        counters[cache.name] = (cache.accesses, cache.hits, cache.misses,
                                cache.evictions, cache.writebacks,
                                cache.invalidations, cache.downgrades,
                                cache.upgrades, cache.prefetch_fills)
        arrays[cache.name] = sorted(cache.array.resident_lines())
    counters["mem"] = (h.mainmem.reads, h.mainmem.writebacks)
    return counters, arrays


def _named(steps):
    """Weave steps with components by name (each hierarchy has its
    own)."""
    return tuple((comp.name, offset, kind) for comp, offset, kind in steps)


def _traffic(seed, count, num_cores, line_bits, strided=False):
    """Randomized MESI traffic: a small hot pool of heavily shared
    lines (upgrades, downgrades, invalidations, ping-pong) plus a
    wider cold spread (fills and evictions across all three levels).
    ``strided`` adds per-core streams (strides 1 and 2) over one shared
    region, which train the L2 prefetchers and race their fills against
    the other cores' demand accesses."""
    rng = random.Random(seed)
    hot = [rng.randrange(0, 1 << 14) for _ in range(24)]
    if strided:
        base = rng.randrange(0, 1 << 14)
        streams = [base + 8 * core for core in range(num_cores)]
    accesses = []
    for _ in range(count):
        core = rng.randrange(num_cores)
        if strided and rng.random() < 0.4:
            streams[core] += 1 + core % 2
            line = streams[core]
        elif rng.random() < 0.7:
            line = rng.choice(hot)
        else:
            line = rng.randrange(0, 1 << 16)
        write = rng.random() < 0.35
        accesses.append((core, line << line_bits, write))
    return accesses


def _lockstep(ref, bit, seed, strided=False, fetches=False):
    """Drive ``ref`` (set directories, recursive walk) and ``bit`` (the
    shipped hierarchy) through the same randomized traffic: every
    access's record and weave steps, then the arrays, counters and
    decoded directories, must match.  With ``fetches``, every fifth
    read is an instruction fetch."""
    assert type(ref.l1d[0]) is SetDirectoryCache
    assert type(ref.mainmem) is SetDirectoryMainMemory
    num_cores = len(bit.l1d)
    # Each access is offered to the L1 probe first, as a core does.
    probes = [bit.l1_probe(core) for core in range(num_cores)]
    for i, (core, addr, write) in enumerate(
            _traffic(seed, 4000, num_cores, bit.line_bits,
                     strided=strided)):
        fetch_hit, data_hit, _latency, _flush = probes[core]
        fetch = fetches and not write and i % 5 == 0
        l1 = (bit.l1i if fetch else bit.l1d)[core]
        want = ref.access(core, addr, write, ifetch=fetch)
        assert_memory_directory_idle(ref.mainmem)
        if fetch_hit(addr) if fetch else data_hit(addr, write):
            record = (l1.latency, (), l1.level, 0, (), (), ())
        else:
            got = bit.access(core, addr, write, ifetch=fetch)
            record = (got.latency, tuple(got.missed_levels),
                      got.hit_level, got.invalidations,
                      got.shared_evictions, _named(got.steps),
                      _named(got.wbacks))
        expect = (want.latency, tuple(want.missed_levels),
                  want.hit_level, want.invalidations,
                  want.shared_evictions, _named(want.steps),
                  _named(want.wbacks))
        assert record == expect, \
            "access %d diverged: %r vs %r" % (i, record, expect)
    for probe in probes:
        probe[3]()
    assert bit.fastpath_hits > 0 and bit.slow_accesses > 0
    assert _state_picture(bit) == _state_picture(ref)
    assert _directory_picture(bit) == _directory_picture(ref)
    assert bit.check_inclusion() == [] and bit.check_coherence() == []


class TestBitmaskDirectoryLockstep:
    @pytest.mark.parametrize("seed, prefetch_degree", [
        *(pytest.param(seed, 0, id=str(seed)) for seed in (1, 7, 2026)),
        pytest.param(11, 2, id="prefetch")])
    def test_lockstep_with_reference_directory(self, seed, prefetch_degree):
        ref = _build_hierarchy(True, prefetch_degree)
        bit = _build_hierarchy(False, prefetch_degree)
        _lockstep(ref, bit, seed, strided=prefetch_degree > 0)
        fills = sum(l2.prefetch_fills for l2 in bit.l2s)
        assert (fills > 0) == (prefetch_degree > 0)

    @pytest.mark.parametrize("seed", (3, 2027))
    def test_lockstep_on_four_tiles(self, seed):
        """Four tiles of two cores (shared L2 per tile, one L3 bank and
        one controller per tile, NoC route steps in the weave chains):
        the shapes a path key must tell apart — entry tile, bank and
        controller — all occur.  The two L1Ds of each tile differ in
        latency, so two entries of one level and tile charge different
        entry latencies, and fetches enter the L1I at the even L1Ds'
        latency, so only the entry level tells those paths apart."""
        ref = _build_hierarchy(True, cfg=_four_tile_config())
        bit = _build_hierarchy(False, cfg=_four_tile_config())
        for h in (ref, bit):
            for core, l1d in enumerate(h.l1d):
                l1d.latency += core % 2
        _lockstep(ref, bit, seed, fetches=True)
        kinds = {kind for key in bit._chains
                 for _comp, _offset, kind in bit._chains[key][0]}
        assert {"NOC", "MISS", "HIT", "READ"} <= kinds
        assert {key[:2] for key in bit._chains} == {
            (level, tile) for level in ("l1i", "l1d") for tile in range(4)}
    def test_directory_decodes_to_reference_after_upgrade_storm(self):
        """Write-heavy traffic on one line: the pure ping-pong case."""
        ref = _build_hierarchy(reference=True)
        bit = _build_hierarchy(reference=False)
        addr = 0x40 << bit.line_bits
        for i in range(200):
            core = i % 4
            write = i % 3 != 0
            got = bit.access(core, addr, write)
            want = ref.access(core, addr, write)
            assert_memory_directory_idle(ref.mainmem)
            assert (got.latency, got.invalidations) == \
                (want.latency, want.invalidations)
        assert _directory_picture(bit) == _directory_picture(ref)
