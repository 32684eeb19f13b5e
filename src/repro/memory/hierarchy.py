"""Memory hierarchy builder: wires cores, caches, NoC, and controllers.

Builds the arbitrarily configurable hierarchies the paper supports from a
:class:`~repro.config.SystemConfig`: per-core split L1s, an optional
private-per-core or shared-per-tile L2, a banked fully-shared inclusive
L3, a zero-load NoC, and per-tile memory controllers.  Shared levels get
weave timing models; private levels are bound-phase only (contention in
private levels is predominantly due to the core itself, Section 3.2.1).
"""

from __future__ import annotations

from repro.memory.access import AccessRecord, StepKind
from repro.memory.cache import Cache, MainMemory
from repro.memory.cache_array import _NO_LINES
from repro.memory.coherence import MESI
from repro.memory.network import Network
from repro.memory.weave import CacheBankWeave, MemCtrlWeave
from repro.obs.histogram import Log2Histogram

_HASH_MULT = 0x9E3779B1

_MESI_S = MESI.S
_MESI_E = MESI.E
_MESI_M = MESI.M

_SK_HIT = StepKind.HIT
_SK_MISS = StepKind.MISS
_SK_READ = StepKind.READ
_SK_NOC = StepKind.NOC
_SK_WBACK = StepKind.WBACK

#: Scratch depth for the flattened walk: strictly more cache levels than
#: any buildable hierarchy has (L1 -> L2 -> L3 is the deepest).
_WALK_DEPTH = 8


def _hit_probe(l1, shift, histogram):
    """``(hit, flush)`` for an unhashed LRU L1: the only code outside
    the coherence walk that serves an L1 hit.  ``hit(addr, write)``
    serves a hit as the walk does (the line moves to the recency end, a
    write stores M) and returns True; a miss, or a write to an S line,
    returns False untouched.  ``flush()`` adds the hits served so far
    to the L1's counters and ``histogram`` (sums, so bulk is exact) and
    returns their number."""
    array = l1.array
    lines, num_sets = array._lines, array.num_sets
    served = 0

    def hit(addr, write=False):
        nonlocal served
        line = addr >> shift
        set_lines = lines[line % num_sets]
        state = set_lines.get(line)
        if state is None:
            return False
        if write:
            if state < _MESI_E:
                return False
            state = _MESI_M
        del set_lines[line]
        set_lines[line] = state
        served += 1
        return True

    def flush():
        nonlocal served
        hits, served = served, 0
        if hits:
            l1.accesses += hits
            l1.hits += hits
            histogram.record(l1.latency, hits)
        return hits
    return hit, flush


class MemoryHierarchy:
    """The full memory system for one simulated chip."""

    def __init__(self, config, build_weave=True, profiler=None,
                 telemetry=None):
        config.validate()
        self.config = config
        self.profiler = profiler
        #: Zero-load latency distribution of every access (log-2
        #: buckets); always on — recording is one list increment — and
        #: dumped as the ``access_latency`` histogram in fill_stats.
        self.access_latency = Log2Histogram("access_latency")
        self.attach_telemetry(telemetry)
        self.line_bits = config.l1d.line_bytes.bit_length() - 1
        num_tiles = config.num_tiles
        num_cores = config.num_cores
        self.network = Network(config.network, num_tiles)
        self.mainmem = MainMemory(config.memory, self.network, num_tiles)
        self.weave_components = []

        # Optional weave-phase NoC (the paper's future work, see
        # repro.memory.noc_weave): one route component per tile pair.
        self.noc_fabric = None
        self.noc_routes = None
        if build_weave and config.network.weave_model \
                and config.network.topology != "ideal" and num_tiles > 1:
            from repro.memory.noc_weave import NocFabric, NocRouteWeave
            self.noc_fabric = NocFabric(self.network, num_tiles,
                                        config.network.link_occupancy)
            self.noc_routes = {}
            for src in range(num_tiles):
                for dst in range(num_tiles):
                    if src != dst:
                        route = NocRouteWeave(self.noc_fabric, src, dst)
                        self.noc_routes[(src, dst)] = route
                        self.weave_components.append(route)
            self.mainmem.noc_routes = self.noc_routes

        if build_weave:
            for ctrl in range(config.memory.controllers):
                weave = MemCtrlWeave("memctrl%d" % ctrl, config.memory,
                                     config.core.freq_mhz,
                                     tile=self.mainmem.controller_tile(ctrl))
                self.mainmem.ctrl_weaves[ctrl] = weave
                self.weave_components.append(weave)

        # --- L3: banked, fully shared, inclusive ----------------------
        self.l3_banks = []
        if config.l3 is not None:
            l3 = config.l3
            for bank in range(l3.banks):
                cache = Cache("l3b%d" % bank, "l3", l3.num_sets, l3.ways,
                              l3.latency, repl=l3.repl,
                              tile=bank % num_tiles, seed=bank,
                              hash_sets=l3.hash_sets)
                cache.down_latency = (self.network.round_trip(0, 0)
                                      + config.l1d.latency)
                if build_weave:
                    weave = CacheBankWeave(
                        cache.name, l3.latency, ports=l3.ports,
                        mshrs=l3.mshrs,
                        miss_hold_cycles=config.memory.zero_load_latency,
                        tile=cache.tile)
                    cache.weave = weave
                    self.weave_components.append(weave)
                self.l3_banks.append(cache)

        # --- L2: private per core, or shared per tile -----------------
        self.l2s = []
        if config.l2 is not None:
            l2 = config.l2
            count = num_tiles if config.l2_shared_per_tile else num_cores
            for idx in range(count):
                tile = idx if config.l2_shared_per_tile \
                    else config.core_tile(idx)
                cache = Cache("l2-%d" % idx, "l2", l2.num_sets, l2.ways,
                              l2.latency, repl=l2.repl, tile=tile,
                              seed=1000 + idx, hash_sets=l2.hash_sets)
                cache.down_latency = config.l1d.latency
                cache.noc_routes = self.noc_routes
                if build_weave and config.l2_shared_per_tile:
                    weave = CacheBankWeave(
                        cache.name, l2.latency, ports=l2.ports,
                        mshrs=l2.mshrs,
                        miss_hold_cycles=config.memory.zero_load_latency,
                        tile=tile)
                    cache.weave = weave
                    self.weave_components.append(weave)
                self.l2s.append(cache)

        # --- L1s: per core, split I/D ---------------------------------
        # --- L2 stride prefetchers (one per core) ----------------------
        self.prefetchers = []
        if config.l2 is not None and config.l2.prefetch_degree > 0:
            from repro.memory.prefetcher import StridePrefetcher
            self.prefetchers = [
                StridePrefetcher(config.l2.prefetch_degree)
                for _ in range(num_cores)]

        self.l1i = []
        self.l1d = []
        for core in range(num_cores):
            tile = config.core_tile(core)
            for level, cfg, caches in (("l1i", config.l1i, self.l1i),
                                       ("l1d", config.l1d, self.l1d)):
                cache = Cache("%s-%d" % (level, core), level, cfg.num_sets,
                              cfg.ways, cfg.latency, repl=cfg.repl,
                              tile=tile, seed=2000 + core,
                              hash_sets=cfg.hash_sets)
                if config.l2 is None:
                    cache.noc_routes = self.noc_routes
                caches.append(cache)

        self._wire_children()
        self._rewire_parents()

        # --- Walk scratch (preallocated path of the flattened walk) ----
        self._walk_caches = [None] * _WALK_DEPTH
        self._walk_idx = [0] * _WALK_DEPTH
        self.fastpath_hits = 0
        self.slow_accesses = 0

    # ------------------------------------------------------------------
    # Wiring helpers
    # ------------------------------------------------------------------

    def _route_to_l3_or_mem(self, cache):
        """Routing-table triple for a cache whose parent level is the
        L3 (banked, per-bank net latency precomputed) or, absent an L3,
        main memory (which adds its own network latency)."""
        if not self.l3_banks:
            return (self.mainmem,), (0,), False
        banks = tuple(self.l3_banks)
        net = tuple(self.network.latency(cache.tile, bank.tile)
                    for bank in banks)
        return banks, net, self.config.l3.hash_banks

    def _rewire_parents(self):
        """(Re)install the parent routing tables on every cache.

        The tables hold references *up* the hierarchy (banks, main
        memory); ``Cache.__getstate__`` drops them to keep capsules
        cycle-free and :meth:`__setstate__` re-runs this pass after a
        checkpoint load.  Idempotent by construction.  The per-line
        bank arithmetic (hash mult + mask included) is inlined at the
        walk's call sites, so nothing unpickleable is installed."""
        # Controller routing tables for the flattened walk's terminal
        # level: the tile of every controller and the zero-load network
        # latency from every source tile to it (both pure functions of
        # the static topology).
        mem = self.mainmem
        num_tiles = self.config.num_tiles
        mem._num_ctrls = mem.config.controllers
        mem._zero_load = mem.config.zero_load_latency
        mem._ctrl_tiles = tuple(mem.controller_tile(ctrl)
                                for ctrl in range(mem.config.controllers))
        mem._net_to_ctrl = tuple(
            tuple(self.network.latency(src, ctrl_tile)
                  for ctrl_tile in mem._ctrl_tiles)
            for src in range(num_tiles))
        for cache in self.l3_banks:
            cache._parent_banks = (self.mainmem,)
            cache._parent_net = (0,)
            cache._parent_hashed = False
        for cache in self.l2s:
            (cache._parent_banks, cache._parent_net,
             cache._parent_hashed) = self._route_to_l3_or_mem(cache)
        for core in range(self.config.num_cores):
            for cache in (self.l1i[core], self.l1d[core]):
                if self.l2s:
                    if self.config.l2_shared_per_tile:
                        parent = self.l2s[self.config.core_tile(core)]
                    else:
                        parent = self.l2s[core]
                    cache._parent_banks = (parent,)
                    cache._parent_net = (0,)
                    cache._parent_hashed = False
                else:
                    (cache._parent_banks, cache._parent_net,
                     cache._parent_hashed) = self._route_to_l3_or_mem(cache)

    def __getstate__(self):
        """Telemetry and the profiler are host-side observers, never
        simulated state; the routing tables are rebuilt on load.  The
        walk scratch holds only a dead path, so checkpoints ship it
        blank."""
        state = self.__dict__.copy()
        state["_telem"] = None
        state["profiler"] = None
        state["_walk_caches"] = [None] * _WALK_DEPTH
        state["_walk_idx"] = [0] * _WALK_DEPTH
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._rewire_parents()

    def _wire_children(self):
        """Populate children lists so directories know their subtrees.

        ``MainMemory.children`` holds every potential requester — the
        L3 banks, or the whole top cache level when there is no L3 —
        so its bitmask directory always has a child index to grant to.
        Every cache's ``child_id`` is its index in its parent level's
        children list; each cache has exactly one parent level and all
        banks of a level share one children order, so ids are
        unambiguous and stable across banks."""
        for cache in self.l3_banks:
            self.mainmem.children.append(cache)
        if self.l2s:
            for core in range(self.config.num_cores):
                if self.config.l2_shared_per_tile:
                    parent = self.l2s[self.config.core_tile(core)]
                else:
                    parent = self.l2s[core]
                parent.children.append(self.l1i[core])
                parent.children.append(self.l1d[core])
            uppers = self.l2s
        else:
            uppers = self.l1i + self.l1d
        if self.l3_banks:
            for upper in uppers:
                for cache in self.l3_banks:
                    cache.children.append(upper)
        else:
            self.mainmem.children.extend(uppers)
        for parent in ([self.mainmem] + self.l3_banks + self.l2s):
            for idx, child in enumerate(parent.children):
                child.child_id = idx

    # ------------------------------------------------------------------
    # Access entry points (bound phase)
    # ------------------------------------------------------------------

    def l1_probe(self, core_id):
        """Core ``core_id``'s ``(fetch_hit, data_hit, l1d latency,
        flush)`` for one ``run_until`` (see :func:`_hit_probe`), or None
        while the interference profiler must see every access with its
        cycle, or an L1 is hashed or not LRU."""
        l1i, l1d = self.l1i[core_id], self.l1d[core_id]
        if (self.profiler is not None
                or l1i.array.hash_sets or l1d.array.hash_sets
                or l1i.array.repl != "lru" or l1d.array.repl != "lru"):
            return None
        args = self.line_bits, self.access_latency
        fetch_hit, fetch_flush = _hit_probe(l1i, *args)
        data_hit, data_flush = _hit_probe(l1d, *args)

        def flush():
            self.fastpath_hits += fetch_flush() + data_flush()
        return fetch_hit, data_hit, l1d.latency, flush

    def access(self, core_id, addr, write, cycle=0, ifetch=False):
        """One core access; returns an :class:`AccessRecord` whose latency
        is the zero-load bound and whose steps feed the weave phase.

        Cores serve L1 hits through :meth:`l1_probe` and call this on a
        miss or an upgrade.  Every call takes the coherence walk
        (:meth:`_walk_access`), which serves the hits of a memory with
        no live probe too: exact, only slower."""
        line = addr >> self.line_bits
        l1 = self.l1i[core_id] if ifetch else self.l1d[core_id]
        array = l1.array
        # Unhashed L1s (every shipped config) index inline.
        idx = (line % array.num_sets if not array.hash_sets
               else array.set_index(line))
        entry = array._lines[idx].get(line)
        l1.accesses += 1
        self.slow_accesses += 1
        result = AccessRecord(core_id, line, write)
        result.latency = l1.latency
        if entry is None:
            l1.misses += 1
            result.missed_levels.append(l1.level)
        self._walk_access(l1, line, write, result, idx, entry)
        if (self.prefetchers and not ifetch
                and "l1d" in result.missed_levels):
            self._prefetch(core_id, line, result)
        latency = result.latency
        # Log2Histogram.record, inlined (latency is a non-negative int,
        # so the guards drop out).
        hist = self.access_latency
        b = latency.bit_length()
        hist._counts[b if b < 64 else 63] += 1
        hist.count += 1
        hist.total += latency
        if hist.min is None or latency < hist.min:
            hist.min = latency
        if hist.max is None or latency > hist.max:
            hist.max = latency
        if self._telem is not None:
            metrics = self._telem.metrics
            if metrics is not None and result.missed_levels:
                metrics.inc("mem.misses.%s" % result.missed_levels[-1])
        if self.profiler is not None:
            self.profiler.record(result, cycle)
        return result

    def _walk_access(self, c, line, write, ctx, idx, entry):
        """The coherence walk, as one iterative frame.  It starts at
        cache ``c``, which its caller has already looked up (``idx`` /
        ``entry`` are the set and the state it peeked) and charged:
        :meth:`access` counts the L1 access, its latency and a miss;
        :meth:`_prefetch` enters at the L2 on a miss and counts only a
        prefetch fill.  A hit at ``c`` is always an L1 (a hit or an
        upgrade), so it records no weave step: private levels have no
        weave component.

        Two loops over a preallocated path scratch — descend routing each
        miss to its parent and counting the next level, until a hit or
        main memory, then unwind granting, filling and evicting — with
        the latency accumulator, step list, and routing tables bound to
        locals.  Coherence fan-out (subtree invalidation/downgrade,
        upgrade acquires) dispatches into the cache helpers; of those
        only ``acquire_exclusive`` reads or writes ``ctx.latency``, so
        the local accumulator is synced around exactly that call.  The
        tests replay it against a recursive reference walk
        (``tests/reference_walk.py``)."""
        latency = ctx.latency
        steps = ctx.steps
        missed = ctx.missed_levels
        caches = self._walk_caches
        idxs = self._walk_idx
        depth = 0
        array = c.array
        lines = array._lines
        state = _MESI_S
        # -- Descend: route misses up until a hit or main memory -------
        while entry is None:
            banks = c._parent_banks
            if len(banks) == 1:
                parent = banks[0]
                net = c._parent_net[0]
            else:
                key = ((line * _HASH_MULT) & 0xFFFFFFFF) >> 8 \
                    if c._parent_hashed else line
                bank = key % len(banks)
                parent = banks[bank]
                net = c._parent_net[bank]
            if c.noc_routes is not None:
                route = c.noc_routes.get(
                    (c.tile, getattr(parent, "tile", c.tile)))
                if route is not None:
                    steps.append((route, latency, _SK_NOC))
            latency += net
            caches[depth] = c
            idxs[depth] = idx
            depth += 1
            if parent.level == "mem":
                # -- Terminal level: main memory, inlined --------------
                m = parent
                m.reads += 1
                ctrl = line % m._num_ctrls
                src_tile = c.tile
                ctrl_tile = m._ctrl_tiles[ctrl]
                if m.noc_routes is not None and src_tile != ctrl_tile:
                    route = m.noc_routes.get((src_tile, ctrl_tile))
                    if route is not None:
                        steps.append((route, latency, _SK_NOC))
                latency += m._net_to_ctrl[src_tile][ctrl]
                arrival = latency
                latency += m._zero_load
                weave = m.ctrl_weaves[ctrl]
                if weave is not None:
                    steps.append((weave, arrival, _SK_READ))
                rid = c.child_id
                rbit = 1 << rid
                sharers = m._sharers
                mask = sharers.get(line, 0)
                m.dir_ops += 1
                if write:
                    others = mask & ~rbit
                    if others:
                        children = m.children
                        while others:
                            low = others & -others
                            others ^= low
                            children[low.bit_length() - 1] \
                                .invalidate_subtree(line)
                            ctx.invalidations += 1
                    sharers[line] = rbit
                    m._owner[line] = rid
                    state = _MESI_E
                else:
                    owner = m._owner.get(line)
                    if owner is not None and owner != rid:
                        m.children[owner].downgrade_subtree(line)
                        del m._owner[line]
                    mask |= rbit
                    sharers[line] = mask
                    if mask == rbit:
                        m._owner[line] = rid
                        state = _MESI_E
                    else:
                        state = _MESI_S
                grantor = None
                break
            c = parent
            c.accesses += 1
            arrival = latency
            latency = arrival + c.latency
            array = c.array
            lines = array._lines
            ns = array.num_sets
            if array.hash_sets:
                idx = (line ^ line // ns ^ line // (ns * ns)) % ns
            else:
                idx = line % ns
            entry = lines[idx].get(line)
            if entry is None:
                c.misses += 1
                missed.append(c.level)
                if c.weave is not None:
                    steps.append((c.weave, arrival, _SK_MISS))
        # -- Hit bookkeeping (cache ``c``; main memory handled above) --
        if entry is not None:
            state = entry
            if array._repl is None:
                # LRU touch: move the line to the recency end.
                hit_lines = lines[idx]
                del hit_lines[line]
                hit_lines[line] = state
            else:
                array._repl[idx].hit(line)
            c.hits += 1
            if ctx.hit_level is None:
                ctx.hit_level = c.level
            if c.weave is not None:
                steps.append((c.weave, arrival, _SK_HIT))
            if write and state == _MESI_S:
                # Upgrade: gain exclusivity from the parent level.
                c.upgrades += 1
                banks = c._parent_banks
                if len(banks) == 1:
                    parent = banks[0]
                    net = c._parent_net[0]
                else:
                    key = ((line * _HASH_MULT) & 0xFFFFFFFF) >> 8 \
                        if c._parent_hashed else line
                    bank = key % len(banks)
                    parent = banks[bank]
                    net = c._parent_net[bank]
                latency += net
                ctx.latency = latency
                parent.acquire_exclusive(line, c, ctx)
                latency = ctx.latency
                state = _MESI_E
                lines[idx][line] = _MESI_E
            if depth == 0:
                # L1 hit: apply the access to our own copy.
                if write:
                    lines[idx][line] = _MESI_M
                    state = _MESI_M
                ctx.latency = latency
                return state
            grantor = c
        # -- Unwind: grant downward-walk order, fill, evict victims ----
        i = depth - 1
        while i >= 0:
            cc = caches[i]
            if grantor is not None:
                # The grantor's directory grant to ``cc``.
                rid = cc.child_id
                rbit = 1 << rid
                sharers = grantor._sharers
                mask = sharers.get(line, 0)
                grantor.dir_ops += 1
                if write:
                    dirty = False
                    others = mask & ~rbit
                    if others:
                        children = grantor.children
                        down = grantor.down_latency
                        while others:
                            low = others & -others
                            others ^= low
                            dirty |= children[low.bit_length() - 1] \
                                .invalidate_subtree(line)
                            latency += down
                            ctx.invalidations += 1
                    sharers[line] = rbit
                    grantor._owner[line] = rid
                    if dirty:
                        grantor.array.update_state(line, _MESI_M)
                    state = _MESI_E
                else:
                    owner = grantor._owner.get(line)
                    if owner is not None and owner != rid:
                        dirty = grantor.children[owner] \
                            .downgrade_subtree(line)
                        latency += grantor.down_latency
                        del grantor._owner[line]
                        if dirty:
                            grantor.array.update_state(line, _MESI_M)
                            state = _MESI_M
                    mask |= rbit
                    sharers[line] = mask
                    if mask == rbit and state >= _MESI_E:
                        grantor._owner[line] = rid
                        state = _MESI_E
                    else:
                        state = _MESI_S
            # The fill (the walk guarantees a miss here): an LRU set
            # appends and evicts its first (least recent) line; a
            # way-picking policy is called out to.
            carray = cc.array
            cidx = idxs[i]
            clines = carray._lines[cidx]
            if clines is _NO_LINES:
                # First fill into this set (sparse per-set state).
                clines = carray._materialise(cidx)
            crepl = carray._repl
            cfree = carray._free
            if cfree[cidx]:
                cfree[cidx] -= 1
                victim = None
                if crepl is not None:
                    crepl[cidx].fill(line)
            elif crepl is None:
                victim = next(iter(clines))
                vstate = clines.pop(victim)
            else:
                victim = crepl[cidx].replace(line)
                vstate = clines.pop(victim)
            clines[line] = state
            if victim is not None:
                # Evict the victim (inclusive: purge below first).
                cc.evictions += 1
                if cc.children:
                    ctx.shared_evictions += (victim,)
                dirty = vstate == _MESI_M
                cc._owner.pop(victim, None)
                vmask = cc._sharers.pop(victim, 0)
                if vmask:
                    children = cc.children
                    while vmask:
                        low = vmask & -vmask
                        vmask ^= low
                        dirty |= children[low.bit_length() - 1] \
                            .invalidate_subtree(victim)
                vbanks = cc._parent_banks
                if len(vbanks) == 1:
                    vparent = vbanks[0]
                else:
                    key = ((victim * _HASH_MULT) & 0xFFFFFFFF) >> 8 \
                        if cc._parent_hashed else victim
                    vparent = vbanks[key % len(vbanks)]
                # The parent's directory drops ``cc`` (a cache or main
                # memory: both keep the same bitmask directory).
                vparent.dir_ops += 1
                psharers = vparent._sharers
                pmask = psharers.get(victim)
                if pmask is not None:
                    pmask &= ~(1 << cc.child_id)
                    if pmask:
                        psharers[victim] = pmask
                    else:
                        del psharers[victim]
                if vparent._owner.get(victim) == cc.child_id:
                    del vparent._owner[victim]
                if dirty:
                    cc.writebacks += 1
                    if vparent.level == "mem":
                        # Memory writeback, timestamped from the local
                        # accumulator.
                        vparent.writebacks += 1
                        wb_weave = vparent.ctrl_weaves[
                            victim % vparent._num_ctrls]
                        if wb_weave is not None:
                            ctx.wbacks += ((wb_weave, latency, _SK_WBACK),)
                    else:
                        # Dirty data lands in the parent; inclusion
                        # guarantees the line is resident.
                        parray = vparent.array
                        plines = parray._lines[
                            victim % parray.num_sets
                            if not parray.hash_sets
                            else parray.set_index(victim)]
                        if victim in plines:
                            plines[victim] = _MESI_M
            grantor = cc
            i -= 1
        if write:
            # Leaf (L1): apply the access to our own copy.
            clines[line] = _MESI_M
            state = _MESI_M
        ctx.latency = latency
        return state

    def attach_telemetry(self, telemetry):
        """Install (or detach, with None) the observability context; the
        hot path pays a single identity check when telemetry is off."""
        self._telem = telemetry

    def _prefetch(self, core_id, line, ctx):
        """Train the core's stride prefetcher on the L2 access stream
        and issue fills.  Each prefetched line is peeked in the L2
        without a touch; a miss counts one ``prefetch_fills`` and
        enters the walk at the L2 — no L2 access, miss, latency or step
        — and no directory entry is made there: the first demand access
        installs sharers.  Prefetch traffic is off the demand access's
        critical path; its weave events ride along as side events."""
        if self.config.l2_shared_per_tile:
            l2 = self.l2s[self.config.core_tile(core_id)]
        else:
            l2 = self.l2s[core_id]
        array = l2.array
        for pf_line in self.prefetchers[core_id].observe(line):
            idx = array.set_index(pf_line)
            if pf_line in array._lines[idx]:
                continue
            l2.prefetch_fills += 1
            pf_ctx = AccessRecord(core_id, pf_line, False)
            self._walk_access(l2, pf_line, False, pf_ctx, idx, None)
            ctx.wbacks += (*pf_ctx.steps, *pf_ctx.wbacks)

    # ------------------------------------------------------------------
    # Stats and invariants
    # ------------------------------------------------------------------

    def all_caches(self):
        return list(self.l1i) + list(self.l1d) + list(self.l2s) \
            + list(self.l3_banks)

    def fill_stats(self, node):
        for cache in self.all_caches():
            cache.fill_stats(node.child(cache.name))
        self.mainmem.fill_stats(node.child("mem"))
        node.histogram("access_latency").merge(self.access_latency)

    def check_inclusion(self):
        """Invariant: every line in a child is present in the parent bank
        the walk routes it to.  Returns ``(child, parent, line)``
        violations, each child's in ascending line order: per parent its
        children's lines minus its own (set algebra, holding only the
        children's lines), line by line only below a multi-bank level."""
        violations = []
        for parent in self.l2s + self.l3_banks:
            children = [child for child in parent.children
                        if len(child._parent_banks) == 1]
            missing = set().union(*[lines for child in children
                                    for lines in child.array._lines])
            if missing:
                missing.difference_update(*parent.array._lines)
            for child in children if missing else ():
                violations += [(child.name, parent.name, line)
                               for line in sorted(missing)
                               if child.array.lookup(line, touch=False)
                               is not None]
        for child in self.all_caches():
            if len(child._parent_banks) > 1:
                for line in sorted(set().union(*child.array._lines)):
                    parent, _net = child.parent_select(line)
                    if parent.array.lookup(line, touch=False) is None:
                        violations.append((child.name, parent.name, line))
        return violations

    def check_coherence(self):
        """Invariant: single-writer — a line held by two or more cores'
        L1s is held by none of them in M/E.  Returns ``(line, copies)``
        violations in ascending line order, ``copies`` the L1s' ``(name,
        state)`` pairs; records are built only for failing lines."""
        seen, shared, bad = set(), set(), set()
        for l1i, l1d in zip(self.l1i, self.l1d):
            held = set().union(*l1i.array._lines, *l1d.array._lines)
            shared |= held & seen
            seen |= held
        for cache in self.l1i + self.l1d:
            held = shared.intersection(set().union(*cache.array._lines))
            bad.update(line for line in held
                       if cache.array.lookup(line, touch=False) >= _MESI_E)
        return [(line, [(cache.name, state) for cache in self.l1i + self.l1d
                        if (state := cache.array.lookup(line, touch=False))
                        is not None])
                for line in sorted(bad)]
