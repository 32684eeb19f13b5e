"""Translation cache: decode-once storage for basic-block descriptors.

zsim leans on Pin's dynamic binary translation to pay decode costs once
per *static* instruction rather than once per *dynamic* instruction.  Our
substrate reproduces the same amortization: the first execution of a basic
block decodes it (µop fission, fusion, port/latency assignment, frontend
accounting) and caches the :class:`~repro.isa.decoder.DecodedBBL`; every
later execution reuses the descriptor.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.isa.decoder import decode_bbl


class TranslationCache:
    """Caches decoded basic blocks keyed by (program id, block id)."""

    def __init__(self, capacity=None):
        """``capacity`` optionally bounds the number of cached blocks;
        when full, the least-recently-*used* block is evicted (a simple
        stand-in for Pin's code-cache eviction).  Hits refresh recency,
        so a hot block survives capacity pressure indefinitely."""
        self._cache = OrderedDict()
        self._capacity = capacity
        self.translations = 0
        self.hits = 0
        #: Blocks dropped by capacity pressure.
        self.evictions = 0

    def translate(self, block, program_id=0):
        """Return the decoded descriptor for ``block``, decoding on miss."""
        key = (program_id, block.bbl_id)
        decoded = self._cache.get(key)
        if decoded is not None:
            self.hits += 1
            if self._capacity is not None:
                # Unbounded caches never evict, so recency bookkeeping
                # would be pure overhead on the hottest path in the
                # simulator.
                self._cache.move_to_end(key)
            return decoded
        decoded = decode_bbl(block)
        if self._capacity is not None and len(self._cache) >= self._capacity:
            self._cache.popitem(last=False)
            self.evictions += 1
        self._cache[key] = decoded
        self.translations += 1
        return decoded

    def __len__(self):
        return len(self._cache)

    def __contains__(self, key):
        return key in self._cache
