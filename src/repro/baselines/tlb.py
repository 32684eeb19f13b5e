"""TLB and page-table-walk model for the reference ("real") machine.

zsim deliberately omits TLBs; the paper attributes most of its residual
IPC error to that omission ("the lack of TLB and page table walker
models... Page table walk accesses are also cached, affecting the
reference stream and producing these errors").  The reference machine in
this reproduction therefore *includes* per-core I/D TLBs whose misses
trigger page-table walks through the cache hierarchy, reproducing both
the validation flow and the error structure.
"""

from __future__ import annotations

PAGE_BITS = 12
#: Synthetic physical region where page tables live.
PAGE_TABLE_BASE = 0xE000_0000


class TLB:
    """Fully associative TLB with LRU replacement (dict-ordered)."""

    def __init__(self, entries):
        self.entries = entries
        self._map = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, page):
        if page in self._map:
            self.hits += 1
            # LRU touch: move to the back.
            self._map[page] = self._map.pop(page)
            return True
        self.misses += 1
        if len(self._map) >= self.entries:
            oldest = next(iter(self._map))
            del self._map[oldest]
        self._map[page] = True
        return False


class TLBMemory:
    """Hierarchy wrapper adding per-core ITLB/DTLB + cached page walks.

    A TLB miss performs a two-level page walk: two dependent reads of
    page-table entries routed through the normal cache hierarchy (so walk
    traffic pollutes the caches, as on real hardware), plus a fixed walk
    overhead.  The resulting latency is added to the triggering access.
    """

    WALK_LEVELS = 2
    WALK_OVERHEAD = 5

    def __init__(self, hierarchy, itlb_entries=128, dtlb_entries=64):
        self.hierarchy = hierarchy
        self.config = hierarchy.config
        num_cores = hierarchy.config.num_cores
        self.itlbs = [TLB(itlb_entries) for _ in range(num_cores)]
        self.dtlbs = [TLB(dtlb_entries) for _ in range(num_cores)]
        self.walks = 0

    def access(self, core_id, addr, write, cycle=0, ifetch=False):
        page = addr >> PAGE_BITS
        tlb = self.itlbs[core_id] if ifetch else self.dtlbs[core_id]
        walk_latency = 0
        if not tlb.lookup(page):
            self.walks += 1
            walk_latency = self.WALK_OVERHEAD
            # Two dependent PTE reads through the cache hierarchy.
            pte_addr = PAGE_TABLE_BASE + (page * 8) % 0x0800_0000
            for level in range(self.WALK_LEVELS):
                walk = self.hierarchy.access(
                    core_id, pte_addr + level * 0x0100_0000, False,
                    cycle, ifetch=False)
                walk_latency += walk.latency
        result = self.hierarchy.access(core_id, addr, write,
                                       cycle + walk_latency, ifetch)
        result.latency += walk_latency
        return result

    def l1_probe(self, core_id):
        """The hierarchy's probe behind this core's TLBs.  A hit needs
        its page in the TLB, checked untouched, and an L1 hit; only then
        is the TLB looked up, as ``access`` would.  A refusal leaves
        both for ``access``."""
        probe = self.hierarchy.l1_probe(core_id)
        if probe is None:
            return None

        def translated(hit, tlb):
            def translated_hit(addr, write=False):
                page = addr >> PAGE_BITS
                return page in tlb._map and hit(addr, write) \
                    and tlb.lookup(page)
            return translated_hit
        return (translated(probe[0], self.itlbs[core_id]),
                translated(probe[1], self.dtlbs[core_id])) + probe[2:]

    def __getattr__(self, name):
        return getattr(self.hierarchy, name)
