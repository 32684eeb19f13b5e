"""Coherent cache models: MESI, inclusive, with in-cache directories.

Mirrors zsim's cache design (Section 3.2.1): each cache composes a fully
decoupled associative array, replacement policy, and coherence controller,
plus an optional weave timing model.  Demand accesses and prefetch fills
travel the hierarchy (fetches, grants, fills, writebacks) in one
iterative walk, ``MemoryHierarchy._walk_access``; this module holds the
coherence actions that walk dispatches into — upgrade acquires and the
subtree invalidation/downgrade fan-out.  Coherence is maintained in the
order accesses are simulated in the bound phase, which is inaccurate only
for same-line races — exactly the rare path-altering interference the
bound-weave algorithm tolerates.

Shared caches are banked: each bank is its own :class:`Cache` instance;
all banks of a level share one children list so child identities are
stable across banks.

Every directory is an in-cache one: the L3 banks track the L2s (or
L1s) above them, and main memory keeps none.  Each line maps to one L3
bank, so memory could never see a second sharer of a line.

The coherence walk runs on integers (ISSUE 10): every cache carries a
stable ``child_id`` — its index in its parent level's shared children
list — and directories store **bitmasks over child indices** instead of
sets of cache objects.  Sharer updates are single OR/AND-NOT int ops,
owner lookups are dict-of-int reads, and invalidation/downgrade fan-out
iterates set bits.  Parent routing is a precomputed table
(``_parent_banks`` / ``_parent_net`` / ``_parent_hashed``) installed by
the hierarchy builder; :func:`_bank` is the one rule that picks a
line's bank among several.
"""

from __future__ import annotations

from repro.memory.cache_array import CacheArray
from repro.memory.coherence import MESI

_MESI_S = MESI.S
_MESI_E = MESI.E
_MESI_M = MESI.M


def _bank(c, line):
    """Index of ``line``'s bank among cache ``c``'s parent banks (more
    than one): a cheap multiplicative hash spreads lines across the
    banks of Table 2's "hashed" shared L3, else the line interleaves."""
    if c._parent_hashed:
        line = ((line * 0x9E3779B1) & 0xFFFFFFFF) >> 8
    return line % len(c._parent_banks)


class Cache:
    """One coherent cache (a private cache or one bank of a shared one)."""

    __slots__ = ("name", "level", "latency", "tile", "array", "children",
                 "child_id", "down_latency", "weave", "noc_routes",
                 "_parent_banks", "_parent_net", "_parent_hashed",
                 "_sharers", "_owner", "accesses", "hits", "misses",
                 "evictions", "writebacks", "invalidations", "downgrades",
                 "upgrades", "prefetch_fills", "dir_ops")

    def __init__(self, name, level, num_sets, ways, latency, repl="lru",
                 tile=0, seed=0, hash_sets=False):
        self.name = name
        self.level = level            # "l1i" | "l1d" | "l2" | "l3"
        self.latency = latency
        self.tile = tile
        self.array = CacheArray(num_sets, ways, repl=repl, seed=seed,
                                hash_sets=hash_sets)
        #: Wired by the hierarchy builder:
        self.children = []            # caches below (empty for L1s)
        self.child_id = 0             # index in the parent's children list
        self.down_latency = 0         # cost of inv/downgrade round trip
        self.weave = None             # weave component, shared caches only
        self.noc_routes = None        # (src,dst) -> NoC weave component
        # Routing table: the candidate parent banks, the per-bank
        # zero-load net latency, and whether the line is hashed across
        # banks.  Dropped from pickles (parent references point *up*
        # the hierarchy) and reinstalled by
        # MemoryHierarchy._rewire_parents.
        self._parent_banks = None     # tuple of parent objects
        self._parent_net = None       # tuple of ints, same order
        self._parent_hashed = False
        # In-cache directory over children (bitmasks of child indices).
        self._sharers = {}            # line -> int bitmask of child ids
        self._owner = {}              # line -> child id holding E/M
        # Stats (plain attributes: these are hot counters).
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0           # dirty evictions sent to parent
        self.invalidations = 0        # lines invalidated from above
        self.downgrades = 0
        self.upgrades = 0             # S->E transitions requested
        self.prefetch_fills = 0
        #: Host-side odometer: bitmask directory reads/updates (one per
        #: grant / upgrade / eviction bookkeeping op).  Surfaced under
        #: stats()["host"]["dbt"]["dir_bitmask_ops"]; never digested.
        self.dir_ops = 0

    def __getstate__(self):
        """The routing table points *up* the hierarchy; shipping it
        would put reference cycles in every capsule.  It is dropped
        here and re-created by ``MemoryHierarchy.__setstate__``
        (checkpoint support)."""
        state = {name: getattr(self, name) for name in Cache.__slots__}
        state["_parent_banks"] = state["_parent_net"] = None
        return None, state

    # ------------------------------------------------------------------
    # Requests from below (the "up" path)
    # ------------------------------------------------------------------

    def parent_select(self, line):
        """Route ``line`` to its parent: returns ``(parent, net_latency)``.

        Introspection-friendly wrapper over the routing table; the walk
        reads the table itself and calls :func:`_bank` below a
        multi-bank level (``MemoryHierarchy._walk_access``)."""
        banks = self._parent_banks
        if banks is None:
            return None, 0
        idx = 0 if len(banks) == 1 else _bank(self, line)
        return banks[idx], self._parent_net[idx]

    def acquire_exclusive(self, line, requester, ctx):
        """Upgrade request from ``requester``: invalidate every other copy
        below this level and ensure this level itself is exclusive."""
        rid = requester.child_id
        self.dir_ops += 1
        dirty = False
        others = self._sharers.get(line, 0) & ~(1 << rid)
        if others:
            children = self.children
            down = self.down_latency
            while others:
                low = others & -others
                others ^= low
                dirty |= children[low.bit_length() - 1] \
                    .invalidate_subtree(line)
                ctx.latency += down
                ctx.invalidations += 1
        state = self.array.lookup(line, touch=False)
        if state == _MESI_S:
            parent, net = self.parent_select(line)
            ctx.latency += net
            parent.acquire_exclusive(line, self, ctx)
            state = _MESI_E
        if dirty and state == _MESI_E:
            state = _MESI_M
        if state is not None:
            self.array.update_state(line, state)
        self._sharers[line] = 1 << rid
        self._owner[line] = rid

    # ------------------------------------------------------------------
    # Coherence actions from above (the "down" path)
    # ------------------------------------------------------------------

    def invalidate_subtree(self, line):
        """Invalidate this cache's copy and every copy below.  Returns
        True if any invalidated copy was dirty."""
        dirty = False
        self._owner.pop(line, None)
        mask = self._sharers.pop(line, 0)
        if mask:
            children = self.children
            while mask:
                low = mask & -mask
                mask ^= low
                dirty |= children[low.bit_length() - 1] \
                    .invalidate_subtree(line)
        state = self.array.invalidate(line)
        if state is not None:
            self.invalidations += 1
            dirty |= state == _MESI_M
        return dirty

    def downgrade_subtree(self, line):
        """Downgrade this cache's copy (and the owning subtree) to S.
        Returns True if dirty data was flushed."""
        dirty = False
        owner = self._owner.pop(line, None)
        if owner is not None:
            dirty |= self.children[owner].downgrade_subtree(line)
        state = self.array.lookup(line, touch=False)
        if state is not None and state != _MESI_S:
            self.downgrades += 1
            dirty |= state == _MESI_M
            self.array.update_state(line, _MESI_S)
        return dirty

    # ------------------------------------------------------------------
    # Introspection (stats, integrity digests)
    # ------------------------------------------------------------------

    def integrity_items(self):
        """Cheap digest items for the integrity sentinel: name, hot
        counters, directory sizes, and the array summary."""
        yield self.name
        yield (self.accesses, self.hits, self.misses, self.evictions,
               self.writebacks, self.invalidations, self.downgrades,
               self.upgrades, self.prefetch_fills)
        yield (len(self._sharers), len(self._owner))
        yield from self.array.integrity_items()

    def deep_items(self):
        """The array and the directory by value for a deep integrity
        digest, the directory keyed by child id (ids are stamped by the
        builder and pickled)."""
        return self.array.deep_items() + [sorted(self._sharers.items()),
                                          sorted(self._owner.items())]

    def fill_stats(self, node):
        """Dump counters into a :class:`~repro.stats.StatsNode`.  An
        ifetch never writes, so an L1I has no writebacks or upgrades."""
        names = ("accesses", "hits", "misses", "evictions", "invalidations",
                 "downgrades", "prefetch_fills", "writebacks", "upgrades")
        for name in names[:-2] if self.level == "l1i" else names:
            node.set(name, getattr(self, name))

    def __repr__(self):
        return "Cache(%s)" % self.name


class MainMemory:
    """Terminal level: the memory controllers, with no directory.  The
    L3 banks above are the last directories; a line maps to one bank,
    so a read to memory is always granted E."""

    __slots__ = ("config", "network", "num_tiles", "level", "name",
                 "ctrl_weaves", "noc_routes", "_num_ctrls", "_zero_load",
                 "_ctrl_tiles", "_net_to_ctrl", "reads", "writebacks")

    def __init__(self, config, network, num_tiles):
        self.config = config
        self.network = network
        self.num_tiles = num_tiles
        self.level = "mem"
        self.name = "mem"
        #: One weave component per controller, set by the hierarchy.
        self.ctrl_weaves = [None] * config.controllers
        self.noc_routes = None
        # Flat-walk routing tables, installed by
        # MemoryHierarchy._rewire_parents (also after unpickle).
        self._num_ctrls = self._zero_load = None
        self._ctrl_tiles = self._net_to_ctrl = None
        self.reads = 0
        self.writebacks = 0

    def controller_tile(self, ctrl):
        if self.config.controllers >= self.num_tiles:
            return ctrl % self.num_tiles
        stride = self.num_tiles // self.config.controllers
        return (ctrl * stride) % self.num_tiles

    def integrity_items(self):
        """Cheap digest items for the integrity sentinel (same shape as
        :meth:`Cache.integrity_items`, minus the directory and the
        array)."""
        yield self.name
        yield (self.reads, self.writebacks)

    def fill_stats(self, node):
        node.set("reads", self.reads)
        node.set("writebacks", self.writebacks)

    def __repr__(self):
        return "MainMemory(%d controllers)" % self.config.controllers
