"""Common core-model machinery: stats, instruction fetch, tracing.

Both timing models (IPC1 and OOO) share the same contract with the
bound-weave engine:

* :meth:`Core.run_until` simulates the attached thread until the core's
  cycle passes the interval limit, the stream ends, or a syscall is hit.
* Memory accesses that escape the private levels are appended to
  ``self.trace`` as ``(issue_cycle, AccessRecord)`` for the weave phase.
* L1 hits are served inside the core by the memory's :func:`l1_probe`;
  everything else goes through ``mem.access``.
* :meth:`Core.apply_delay` applies the weave phase's contention feedback
  by shifting the core's clocks forward (the delay is always >= 0).
* ``Core.issue_floor``: no later access is stamped below it.
"""

from __future__ import annotations


class RunOutcome:
    """Why :meth:`Core.run_until` returned."""

    LIMIT = "limit"      # reached the interval boundary
    DONE = "done"        # functional stream exhausted
    SYSCALL = "syscall"  # hit a syscall; descriptor in Core.pending_syscall
    BLOCKED = "blocked"  # descheduled (no thread attached)


class Core:
    """Base class for core timing models."""

    __slots__ = ("core_id", "mem", "config", "stream", "pending_syscall",
                 "trace", "instrs", "uops", "bbls", "l1i_misses",
                 "l1d_misses", "l2_misses", "l3_misses", "loads", "stores")

    def __init__(self, core_id, mem, config):
        self.core_id = core_id
        self.mem = mem
        self.config = config
        self.stream = None
        self.pending_syscall = None
        #: Weave-phase trace: list of (issue_cycle, AccessRecord).
        self.trace = []
        # Retired-work counters.
        self.instrs = 0
        self.uops = 0
        self.bbls = 0
        # Per-core cache miss attribution (MPKI numerators).
        self.l1i_misses = 0
        self.l1d_misses = 0
        self.l2_misses = 0
        self.l3_misses = 0
        self.loads = 0
        self.stores = 0

    # ------------------------------------------------------------------
    # Thread attach/detach (driven by the scheduler / engine)
    # ------------------------------------------------------------------

    def attach(self, stream):
        """Attach an instrumented BBLExec stream to this core."""
        self.stream = stream

    def detach(self):
        stream, self.stream = self.stream, None
        return stream

    @property
    def has_thread(self):
        return self.stream is not None

    # ------------------------------------------------------------------
    # Interface implemented by subclasses
    # ------------------------------------------------------------------

    @property
    def cycle(self):
        """The core's current completed-work cycle."""
        raise NotImplementedError

    def run_until(self, limit_cycle):
        """Simulate until ``self.cycle >= limit_cycle``; returns a
        :class:`RunOutcome` value."""
        raise NotImplementedError

    def apply_delay(self, delay):
        """Weave feedback: shift all clocks forward by ``delay``."""
        raise NotImplementedError

    def skip_to(self, cycle):
        """Advance an idle core's clock to ``cycle`` (descheduled time)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _access(self, addr, write, cycle, ifetch=False):
        """An access the L1 view did not serve: ``mem.access``, plus the
        per-level miss attribution."""
        result = self.mem.access(self.core_id, addr, write, cycle, ifetch)
        missed = result.missed_levels
        if missed:
            if "l1i" in missed:
                self.l1i_misses += 1
            if "l1d" in missed:
                self.l1d_misses += 1
            if "l2" in missed:
                self.l2_misses += 1
            if "l3" in missed:
                self.l3_misses += 1
        return result

    def fill_stats(self, node):
        node.set("instrs", self.instrs)
        node.set("uops", self.uops)
        node.set("bbls", self.bbls)
        node.set("cycles", self.cycle)
        node.set("l1i_misses", self.l1i_misses)
        node.set("l1d_misses", self.l1d_misses)
        node.set("l2_misses", self.l2_misses)
        node.set("l3_misses", self.l3_misses)
        node.set("loads", self.loads)
        node.set("stores", self.stores)

    def integrity_items(self):
        """The retired-work counters and miss attribution every model
        folds into the integrity sentinel's per-core digest; timing
        models add their clocks.  Plain data only: object reprs would
        leak host addresses into the digest."""
        yield (self.core_id, self.instrs, self.uops, self.bbls,
               self.l1i_misses, self.l1d_misses, self.l2_misses,
               self.l3_misses, self.loads, self.stores)

    @property
    def ipc(self):
        return self.instrs / self.cycle if self.cycle > 0 else 0.0


def _miss(addr, write=False):
    return False


#: Every probe misses, every access reaches ``mem.access``.
_MISS_PROBE = (_miss, _miss, 0, lambda: None)


def l1_probe(mem, core_id):
    """``(fetch_hit, data_hit, l1d latency, flush)`` of core ``core_id``
    (``MemoryHierarchy.l1_probe``).  Looked up on the *type*: a wrapper
    forwarding ``__getattr__`` must not hand out its inner memory's
    probe, or hits would bypass its ``access``."""
    probe = getattr(type(mem), "l1_probe", None)
    probe = probe(mem, core_id) if probe is not None else None
    return _MISS_PROBE if probe is None else probe
