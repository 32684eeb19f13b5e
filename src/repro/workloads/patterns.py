"""Data-access pattern generators for synthetic workloads.

Each generator is a callable returning the next byte address.  Patterns
cover the axes that differentiate the paper's benchmark suites: streaming
(STREAM, libquantum, lbm), strided (scientific stencils), uniform random
(hash-heavy codes), and pointer chasing (mcf, omnetpp, canneal).  A hot
set mixes in temporal locality so per-workload MPKIs are controllable.

The functional stream calls a pattern once per memory operand, so each
kind is one closure with the hot-set draw fused in, and
``Random.randrange(n)`` is spelled as the ``getrandbits`` rejection loop
CPython runs for it: the same addresses from the same draws, without
the per-call method layers (tests/pattern_reference.py holds the
class-based reference they are checked against).
"""

from __future__ import annotations

LINE = 64


def make_pattern(kind, base, footprint, rng, stride=None, hot_fraction=0.0,
                 hot_bytes=8 * 1024):
    """Build a pattern generator by name, optionally mixing in a hot
    set: with probability ``hot_fraction`` an access goes to a small
    (L1-resident) region after the footprint, otherwise to the pattern.
    ``kind``: "stream" | "stride" | "random" | "chase"."""
    random = rng.random
    getrandbits = rng.getrandbits
    hot = hot_fraction > 0.0
    hot_base = base + footprint
    hot_bytes = max(LINE, hot_bytes)
    hot_bits = hot_bytes.bit_length()
    if kind in ("stream", "stride"):
        # Sequential walk wrapping at the footprint (spatial locality:
        # with stride < 64 most accesses hit the line fetched by the
        # previous miss); "stride" defaults to one access per 4 lines.
        step = stride or (8 if kind == "stream" else 256)
        offset = 0

        def pattern():
            nonlocal offset
            if hot and random() < hot_fraction:
                r = getrandbits(hot_bits)
                while r >= hot_bytes:
                    r = getrandbits(hot_bits)
                return hot_base + (r & ~7)
            addr = base + offset
            offset += step
            if offset >= footprint:
                offset = 0
            return addr
    elif kind == "random":
        # Uniform random accesses over the footprint.
        span = max(LINE, footprint)
        bits = span.bit_length()

        def pattern():
            if hot and random() < hot_fraction:
                r = getrandbits(hot_bits)
                while r >= hot_bytes:
                    r = getrandbits(hot_bits)
                return hot_base + (r & ~7)
            r = getrandbits(bits)
            while r >= span:
                r = getrandbits(bits)
            return base + (r & ~7)
    elif kind == "chase":
        # Pointer chasing: a random-permutation cycle over the lines of
        # the footprint — every access depends on the previous one and
        # has no spatial locality, the mcf/omnetpp signature.
        num_lines = max(2, footprint // LINE)
        perm = list(range(num_lines))
        rng.shuffle(perm)
        successor = [0] * num_lines
        for i in range(num_lines):
            successor[perm[i]] = perm[(i + 1) % num_lines]
        current = perm[0]

        def pattern():
            nonlocal current
            if hot and random() < hot_fraction:
                r = getrandbits(hot_bits)
                while r >= hot_bytes:
                    r = getrandbits(hot_bits)
                return hot_base + (r & ~7)
            current = successor[current]
            return base + current * LINE
    else:
        raise ValueError("Unknown pattern kind: %r" % (kind,))
    return pattern
