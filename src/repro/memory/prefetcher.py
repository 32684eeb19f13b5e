"""Hardware stream/stride prefetcher model.

The zsim ecosystem models L2 stream prefetchers; this reproduction needs
one for the same reason the real Westmere does: streaming workloads
(STREAM, libquantum, lbm) pull one line per miss without it, far below
the bandwidth a prefetching machine sustains.

The model is a per-core stride detector over physical pages: each page
tracks its last line and stride; two consecutive accesses with the same
stride arm the entry, after which every access prefetches ``degree``
lines ahead.  Prefetch fills go into the attached cache level off the
demand access's critical path; their memory-system traffic is recorded
so the weave phase charges it to the contended resources.
"""

from __future__ import annotations


class _PageEntry:
    __slots__ = ("last_line", "stride", "confident")

    def __init__(self, line):
        self.last_line = line
        self.stride = 0
        self.confident = False


class StridePrefetcher:
    """Per-core page-stride prefetcher."""

    #: Lines per page (4KB pages, 64B lines).
    PAGE_SHIFT = 6
    #: Tracked pages (fully associative, LRU via dict order).
    TABLE_SIZE = 64

    def __init__(self, degree=2):
        self.degree = max(1, degree)
        self._pages = {}

    def observe(self, line):
        """Record a demand access; returns the lines to prefetch."""
        page = line >> self.PAGE_SHIFT
        entry = self._pages.get(page)
        if entry is None:
            if len(self._pages) >= self.TABLE_SIZE:
                del self._pages[next(iter(self._pages))]
            self._pages[page] = _PageEntry(line)
            return ()
        # LRU touch.
        self._pages[page] = self._pages.pop(page)
        stride = line - entry.last_line
        if stride == 0:
            return ()
        if stride == entry.stride:
            entry.confident = True
        else:
            entry.stride = stride
            entry.confident = False
        entry.last_line = line
        if not entry.confident:
            return ()
        return tuple(line + entry.stride * (i + 1)
                     for i in range(self.degree))
