"""The recursive coherence walk: the reference for the shipped one.

``MemoryHierarchy._walk_access`` serves demand accesses and prefetch
fills in one iterative frame.  This module keeps the recursive chain it
replaced — ``handle_access`` -> ``_fetch_and_fill`` -> ``_grant_to_child``
-> ``_evict`` -> ``child_evicted``, main memory's ``handle_access``, and
a recursive prefetch fill — as slotted subclasses of the shipped
classes.  The arrays, routing tables, counters, upgrade acquires and
subtree fan-out underneath are the shipped code, so any divergence a
test finds is the walk's.

Hierarchies built inside :func:`reference_classes` are made of these
classes; ``conftest.reference_access`` and ``conftest.recursive_walk``
then route accesses through them.

Shipped main memory keeps no directory: each line maps to one L3 bank,
so memory can never see two sharers.  The reference memory keeps the
directory it used to have, as an oracle, and counts what it would have
done: the tests assert that it never held two sharers of a line and
never sent an invalidation or a downgrade.
"""

import contextlib

from repro.memory import hierarchy as hmod
from repro.memory.access import AccessRecord, StepKind
from repro.memory.cache import Cache, MainMemory
from repro.memory.coherence import MESI

import conftest


def _drop_child(directory, line, child_id):
    """Directory side of child ``child_id`` evicting ``line``."""
    mask = directory._sharers.get(line)
    if mask is not None:
        mask &= ~(1 << child_id)
        if mask:
            directory._sharers[line] = mask
        else:
            del directory._sharers[line]
    if directory._owner.get(line) == child_id:
        del directory._owner[line]


class ReferenceCache(Cache):
    """A cache that serves requests by recursion."""

    __slots__ = ()

    def handle_access(self, line, write, requester, ctx):
        """Serve a GETS/GETX from ``requester`` (a child cache, or None
        when this is an L1 accessed by its core).  Returns the MESI
        state granted to the requester."""
        self.accesses += 1
        arrival = ctx.latency
        ctx.latency = arrival + self.latency
        hit = self.array.lookup(line, touch=False) is not None
        if not hit:
            self.misses += 1
            ctx.missed_levels += (self.level,)
            if self.weave is not None:
                ctx.steps += ((self.weave, arrival, StepKind.MISS),)
        return self.serve(line, write, requester, ctx, hit, arrival)

    def serve(self, line, write, requester, ctx, hit, arrival):
        """:meth:`handle_access` once this level's access is charged: a
        miss fetches and fills, a hit touches (and upgrades); then the
        grant to ``requester``, or with none, the core's write."""
        if not hit:
            state = self._fetch_and_fill(line, write, ctx)
        else:
            state = self.array.lookup(line)
            self.hits += 1
            if ctx.hit_level is None:
                ctx.hit_level = self.level
            if self.weave is not None:
                ctx.steps += ((self.weave, arrival, StepKind.HIT),)
            if write and state == MESI.S:
                # Upgrade: gain exclusivity from the parent level.
                self.upgrades += 1
                parent, net = self.parent_select(line)
                ctx.latency += net
                parent.acquire_exclusive(line, self, ctx)
                state = MESI.E
                self.array.update_state(line, state)
        if requester is not None:
            return self._grant_to_child(line, write, requester, state, ctx)
        if write:
            state = MESI.M
            self.array.update_state(line, state)
        return state

    def _fetch_and_fill(self, line, write, ctx):
        """Miss path: fetch from the parent, fill, handle the victim."""
        parent, net = self.parent_select(line)
        if self.noc_routes is not None:
            route = self.noc_routes.get(
                (self.tile, getattr(parent, "tile", self.tile)))
            if route is not None:
                ctx.steps += ((route, ctx.latency, StepKind.NOC),)
        ctx.latency += net
        granted = parent.handle_access(line, write, self, ctx)
        victim, vstate = conftest.fill(self.array, line, granted)
        if victim is not None:
            self._evict(victim, vstate, ctx)
        return granted

    def prefetch_fill(self, line, ctx):
        """Bring ``line`` in without a requesting child (hardware
        prefetch); True if a fill happened, False on a prefetch hit."""
        if self.array.lookup(line, touch=False) is not None:
            return False
        self.prefetch_fills += 1
        self._fetch_and_fill(line, False, ctx)
        return True

    def _grant_to_child(self, line, write, requester, own_state, ctx):
        """Directory bookkeeping: decide the child's granted state and
        invalidate/downgrade other children as needed."""
        rid = requester.child_id
        rbit = 1 << rid
        mask = self._sharers.get(line, 0)
        self.dir_ops += 1
        if write:
            dirty = False
            for idx, child in enumerate(self.children):
                if mask >> idx & 1 and idx != rid:
                    dirty |= child.invalidate_subtree(line)
                    ctx.latency += self.down_latency
                    ctx.invalidations += 1
            self._sharers[line] = rbit
            self._owner[line] = rid
            if dirty:
                self.array.update_state(line, MESI.M)
            return MESI.E
        owner = self._owner.get(line)
        if owner is not None and owner != rid:
            dirty = self.children[owner].downgrade_subtree(line)
            ctx.latency += self.down_latency
            del self._owner[line]
            if dirty:
                self.array.update_state(line, MESI.M)
                own_state = MESI.M
        mask |= rbit
        self._sharers[line] = mask
        if mask == rbit and own_state >= MESI.E:
            self._owner[line] = rid
            return MESI.E
        return MESI.S

    def _evict(self, line, state, ctx):
        """Evict ``line`` (inclusive: purge the subtree below first)."""
        self.evictions += 1
        if self.children:
            ctx.shared_evictions += (line,)
        dirty = state == MESI.M
        self._owner.pop(line, None)
        mask = self._sharers.pop(line, 0)
        for idx, child in enumerate(self.children):
            if mask >> idx & 1:
                dirty |= child.invalidate_subtree(line)
        parent, _net = self.parent_select(line)
        parent.child_evicted(line, self, dirty, ctx)
        if dirty:
            self.writebacks += 1

    def child_evicted(self, line, child, dirty, ctx):
        """A child evicted its copy (writeback if dirty)."""
        self.dir_ops += 1
        _drop_child(self, line, child.child_id)
        if dirty and self.array.lookup(line, touch=False) is not None:
            # Dirty data lands here; inclusion keeps the line resident.
            self.array.update_state(line, MESI.M)


class ReferenceMainMemory(MainMemory):
    """Main memory as the recursive walk's terminal level, with the
    bitmask directory shipped memory dropped.  Its children are the
    requesters in order of first request (the builder stamps no id on
    an L3 bank).  ``max_sharers`` is the most sharers any line had and
    ``fanouts`` the invalidations and downgrades sent; the shipped
    walk's E grant from memory is right only while they stay at most 1
    and 0."""

    __slots__ = ("_sharers", "_owner", "children", "max_sharers",
                 "fanouts")

    def __init__(self, *args):
        super().__init__(*args)
        self._sharers = {}            # line -> int bitmask of child ids
        self._owner = {}              # line -> child id
        self.children = []
        self.max_sharers = 0
        self.fanouts = 0

    def id_of(self, child):
        if child not in self.children:
            self.children.append(child)
        return self.children.index(child)

    def handle_access(self, line, write, requester, ctx):
        self.reads += 1
        ctrl = line % self.config.controllers
        src_tile = requester.tile
        ctrl_tile = self.controller_tile(ctrl)
        if self.noc_routes is not None and src_tile != ctrl_tile:
            route = self.noc_routes.get((src_tile, ctrl_tile))
            if route is not None:
                ctx.steps += ((route, ctx.latency, StepKind.NOC),)
        ctx.latency += self.network.latency(src_tile, ctrl_tile)
        arrival = ctx.latency
        ctx.latency += self.config.zero_load_latency
        weave = self.ctrl_weaves[ctrl]
        if weave is not None:
            ctx.steps += ((weave, arrival, StepKind.READ),)
        rid = self.id_of(requester)
        rbit = 1 << rid
        mask = self._sharers.get(line, 0)
        if write:
            for idx, child in enumerate(self.children):
                if mask >> idx & 1 and idx != rid:
                    child.invalidate_subtree(line)
                    ctx.invalidations += 1
                    self.fanouts += 1
            self._sharers[line] = rbit
            self._owner[line] = rid
            return MESI.E
        owner = self._owner.get(line)
        if owner is not None and owner != rid:
            self.children[owner].downgrade_subtree(line)
            self.fanouts += 1
            del self._owner[line]
        mask |= rbit
        self._sharers[line] = mask
        self.max_sharers = max(self.max_sharers, bin(mask).count("1"))
        if mask == rbit:
            self._owner[line] = rid
            return MESI.E
        return MESI.S

    def acquire_exclusive(self, line, requester, ctx):
        """An upgrade from an L3 bank in S (which an E grant rules
        out): every other sharer is invalidated."""
        rid = self.id_of(requester)
        for idx, child in enumerate(self.children):
            if self._sharers.get(line, 0) >> idx & 1 and idx != rid:
                child.invalidate_subtree(line)
                ctx.invalidations += 1
                self.fanouts += 1
        self._sharers[line] = 1 << rid
        self._owner[line] = rid

    def child_evicted(self, line, child, dirty, ctx):
        _drop_child(self, line, self.id_of(child))
        if dirty:
            self.writebacks += 1
            weave = self.ctrl_weaves[line % self.config.controllers]
            if weave is not None:
                ctx.wbacks += ((weave, ctx.latency, StepKind.WBACK),)


def assert_memory_directory_idle(mem):
    """The reference memory directory never acted: no line ever had two
    sharers, and no invalidation or downgrade was sent."""
    assert mem.max_sharers <= 1 and mem.fanouts == 0, \
        "memory directory acted: %d sharers, %d fan-outs" % (
            mem.max_sharers, mem.fanouts)


def prefetch(hier, core_id, line, ctx):
    """``MemoryHierarchy._prefetch`` with the recursive fill."""
    if hier.config.l2_shared_per_tile:
        l2 = hier.l2s[hier.config.core_tile(core_id)]
    else:
        l2 = hier.l2s[core_id]
    for pf_line in hier.prefetchers[core_id].observe(line):
        pf_ctx = AccessRecord(core_id, pf_line, False)
        if l2.prefetch_fill(pf_line, pf_ctx):
            ctx.wbacks += (*pf_ctx.steps, *pf_ctx.wbacks)


@contextlib.contextmanager
def reference_classes(cache=ReferenceCache, mainmem=ReferenceMainMemory):
    """Hierarchies built inside are made of ``cache`` / ``mainmem`` (the
    recursive reference classes by default)."""
    shipped = hmod.Cache, hmod.MainMemory
    hmod.Cache, hmod.MainMemory = cache, mainmem
    try:
        yield
    finally:
        hmod.Cache, hmod.MainMemory = shipped
