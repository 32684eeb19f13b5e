"""Instrumentation layer: turns functional streams into timed streams.

zsim instruments every basic block, load, and store so that executing the
program drives the timing models.  Here the functional side is a Python
iterator of :class:`~repro.isa.program.BBLExec` records; the instrumenter
attaches decoded descriptors from the translation cache and supports
fast-forwarding (running the functional stream at full speed with no
timing models attached, as zsim does before the region of interest).

Checkpoint support (see :mod:`repro.resilience`): the underlying
functional source is usually a generator and cannot be pickled, but it
*is* deterministic, so position — ``pulled``, the count of records drawn
from it — fully describes it.  Two mechanisms build on that:

* ``__getstate__`` drops the source; a pickled stream round-trips with
  its position and counters intact.  The class is slotted: pickling
  reads no ``__dict__``, which on CPython 3.11 would leave every later
  ``__next__`` on the slower dict path.
* ``resume_source()`` installs a fresh source (a re-created generator)
  and fast-forwards it ``pulled`` records to the saved position.
"""

from __future__ import annotations

from repro.dbt.translation_cache import TranslationCache


class InstrumentedStream:
    """Wraps a functional BBLExec stream with decode-once instrumentation.

    Iterating yields ``(decoded_bbl, bbl_exec)`` pairs.
    """

    __slots__ = ("_stream", "tcache", "program_id", "instrs_retired",
                 "bbls_executed", "pulled")

    def __init__(self, stream, translation_cache=None, program_id=0):
        self._stream = iter(stream)
        # Note: an empty TranslationCache is falsy (len == 0), so an
        # explicit None check is required to honor shared caches.
        self.tcache = (translation_cache if translation_cache is not None
                       else TranslationCache())
        self.program_id = program_id
        self.instrs_retired = 0
        self.bbls_executed = 0
        #: Records drawn from the underlying source so far: the
        #: *source* position, which is what resume needs to replay.
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        bbl_exec = next(self._stream)
        self.pulled += 1
        block = bbl_exec.block
        decoded = self.tcache.translate(block, self.program_id)
        self.instrs_retired += block.num_instrs
        self.bbls_executed += 1
        return decoded, bbl_exec

    def fast_forward(self, num_instrs):
        """Consume the stream without timing until ``num_instrs`` retire.

        Returns the number of instructions actually skipped (less than
        requested if the stream ends early).  This is the analogue of
        zsim's close-to-native-speed fast-forwarding: the functional side
        runs, the timing side is never invoked.
        """
        skipped = 0
        while skipped < num_instrs:
            try:
                bbl_exec = next(self._stream)
            except StopIteration:
                break
            self.pulled += 1
            skipped += bbl_exec.block.num_instrs
        self.instrs_retired += skipped
        return skipped

    # ------------------------------------------------------------------
    # Checkpoint/resume
    # ------------------------------------------------------------------

    def __getstate__(self):
        state = {name: getattr(self, name) for name in self.__slots__}
        # The functional source is a generator (unpicklable); its
        # position is fully captured by ``pulled``.
        state["_stream"] = None
        return None, state

    def resume_source(self, source):
        """Install a freshly re-created functional source and advance it
        to the saved position (``pulled`` records).  Sources are
        deterministic, so the replayed prefix is exactly the consumed
        one; a source that ends early simply leaves the stream
        exhausted (the thread had already finished)."""
        source = iter(source)
        for _ in range(self.pulled):
            try:
                next(source)
            except StopIteration:
                break
        self._stream = source
