"""Translation cache: decode-once storage for basic-block descriptors.

zsim leans on Pin's dynamic binary translation to pay decode costs once
per *static* instruction rather than once per *dynamic* instruction.  Our
substrate reproduces the same amortization: the first execution of a basic
block decodes it (µop fission, fusion, port/latency assignment, frontend
accounting) and caches the :class:`~repro.isa.decoder.DecodedBBL`; every
later execution reuses the descriptor.
"""

from __future__ import annotations

from repro.isa.decoder import decode_bbl


class TranslationCache:
    """Caches decoded basic blocks keyed by (program id, block id)."""

    def __init__(self):
        self._cache = {}
        self.translations = 0
        self.hits = 0

    def translate(self, block, program_id=0):
        """Return the decoded descriptor for ``block``, decoding on miss."""
        key = (program_id, block.bbl_id)
        decoded = self._cache.get(key)
        if decoded is not None:
            self.hits += 1
            return decoded
        decoded = self._cache[key] = decode_bbl(block)
        self.translations += 1
        return decoded

    def __getstate__(self):
        """A descriptor is a deterministic function of its block, so a
        capsule carries the blocks and the counters; a load decodes
        again without counting, so resumed counters match a straight
        run's."""
        return ({key: decoded.block for key, decoded in self._cache.items()},
                self.translations, self.hits)

    def __setstate__(self, state):
        blocks, self.translations, self.hits = state
        self._cache = {key: decode_bbl(block)
                       for key, block in blocks.items()}

    def __len__(self):
        return len(self._cache)
