"""The class-based access patterns: the reference the closures of
``repro.workloads.patterns.make_pattern`` must reproduce address for
address and draw for draw (``Random.randrange`` here, the
``getrandbits`` rejection loop there)."""

from __future__ import annotations

LINE = 64


class StreamPattern:
    """Sequential walk: ``base, base+stride, ...`` wrapping at the
    footprint (spatial locality: with stride < 64 most accesses hit the
    line fetched by the previous miss)."""

    def __init__(self, base, footprint, stride=8):
        self.base = base
        self.footprint = footprint
        self.stride = stride
        self._offset = 0

    def __call__(self):
        addr = self.base + self._offset
        self._offset += self.stride
        if self._offset >= self.footprint:
            self._offset = 0
        return addr


class StridePattern(StreamPattern):
    """Large-stride walk (one access per line or worse)."""

    def __init__(self, base, footprint, stride=256):
        super().__init__(base, footprint, stride)


class RandomPattern:
    """Uniform random accesses over the footprint."""

    def __init__(self, base, footprint, rng):
        self.base = base
        self.footprint = max(LINE, footprint)
        self.rng = rng

    def __call__(self):
        return self.base + (self.rng.randrange(self.footprint) & ~7)


class ChasePattern:
    """Pointer chasing: a random-permutation cycle over the lines of the
    footprint — every access depends on the previous one and has no
    spatial locality, the mcf/omnetpp signature."""

    def __init__(self, base, footprint, rng):
        self.base = base
        num_lines = max(2, footprint // LINE)
        perm = list(range(num_lines))
        rng.shuffle(perm)
        # Build a single cycle through all lines.
        self._next = [0] * num_lines
        for i in range(num_lines):
            self._next[perm[i]] = perm[(i + 1) % num_lines]
        self._current = perm[0]

    def __call__(self):
        self._current = self._next[self._current]
        return self.base + self._current * LINE


class HotColdPattern:
    """With probability ``hot_fraction``, access a small hot region
    (L1-resident); otherwise defer to the cold pattern."""

    def __init__(self, cold, base, hot_bytes, hot_fraction, rng):
        self.cold = cold
        self.base = base
        self.hot_bytes = max(LINE, hot_bytes)
        self.hot_fraction = hot_fraction
        self.rng = rng

    def __call__(self):
        if self.rng.random() < self.hot_fraction:
            return self.base + (self.rng.randrange(self.hot_bytes) & ~7)
        return self.cold()


def reference_pattern(kind, base, footprint, rng, stride=None,
                      hot_fraction=0.0, hot_bytes=8 * 1024):
    """``make_pattern`` as objects: same arguments, same addresses and
    the same draws from ``rng``."""
    if kind == "stream":
        cold = StreamPattern(base, footprint, stride or 8)
    elif kind == "stride":
        cold = StridePattern(base, footprint, stride or 256)
    elif kind == "random":
        cold = RandomPattern(base, footprint, rng)
    elif kind == "chase":
        cold = ChasePattern(base, footprint, rng)
    else:
        raise ValueError("Unknown pattern kind: %r" % (kind,))
    if hot_fraction > 0.0:
        return HotColdPattern(cold, base + footprint, hot_bytes,
                              hot_fraction, rng)
    return cold
