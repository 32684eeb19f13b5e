"""The per-access record threaded through the memory hierarchy.

Every core memory access (ifetch, load, store) is one
:class:`AccessRecord`: the coherence walk fills it on the way down the
hierarchy, ``MemoryHierarchy.access`` returns it to the core timing
model, and — when the access reached contention-modeled components — the
core's weave trace holds it until the interval's weave phase has run.
It accumulates the zero-load latency (the *bound* on the access), the
per-level hit/miss record for stats attribution, and the *weave chain*:
the ordered (component, offset, kind) steps that the weave phase turns
into timed events (Figure 4 of the paper).  Both are tuples shared by
every record on the same path: read-only.
"""

from __future__ import annotations


class StepKind:
    """Weave event kinds, matching the paper's Figure 4 labels."""

    HIT = "HIT"
    MISS = "MISS"
    READ = "READ"
    WBACK = "WBACK"
    RESP = "RESP"
    NOC = "NOC"


class AccessRecord:
    """One access: filled by the walk, returned to the core, traced for
    the weave phase.  Nothing recycles records — whoever holds one owns
    it for as long as they hold it."""

    __slots__ = ("core_id", "line", "write", "latency", "steps",
                 "missed_levels", "hit_level", "invalidations", "wbacks",
                 "shared_evictions")

    def __init__(self, core_id, line, write):
        self.core_id = core_id
        self.line = line
        self.write = write
        self.latency = 0
        #: Lines this access evicted from shared caches (fills beyond
        #: the private levels) — the second class of path-altering
        #: interference the paper's Figure 2 characterizes.
        self.shared_evictions = ()
        #: Weave chain: (weave_component, offset_cycles, kind). Offsets are
        #: relative to the cycle the core issues the access and reflect
        #: zero-load timing, i.e. each event's lower bound.
        self.steps = ()
        self.missed_levels = ()
        self.hit_level = None
        self.invalidations = 0
        #: Off-critical-path writebacks: (weave_component, offset, kind).
        self.wbacks = ()

    def __repr__(self):
        return ("AccessRecord(lat=%d, hit=%s, missed=%s)"
                % (self.latency, self.hit_level, list(self.missed_levels)))
