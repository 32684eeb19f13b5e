"""Instrumentation layer: turns functional streams into timed streams.

zsim instruments every basic block, load, and store so that executing the
program drives the timing models.  Here the functional side is a Python
iterator of :class:`~repro.isa.program.BBLExec` records; the instrumenter
attaches decoded descriptors from the translation cache, dispatches magic
ops, and supports fast-forwarding (running the functional stream at full
speed with no timing models attached, as zsim does before the region of
interest).

Checkpoint/replay support (see :mod:`repro.resilience`): the underlying
functional source is usually a generator and cannot be pickled, but it
*is* deterministic, so position — ``pulled``, the count of records drawn
from it — fully describes it.  Three mechanisms build on that:

* ``__getstate__`` drops the source; a pickled stream round-trips with
  its position, counters, and any pushed-back records intact.  The
  class is slotted: pickling reads no ``__dict__``, which on CPython
  3.11 would leave every later ``__next__`` on the slower dict path.
* ``resume_source()`` installs a fresh source (a re-created generator)
  and fast-forwards it ``pulled`` records to the saved position.
* ``begin_log()`` / ``rollback_log()`` bracket a speculative span (one
  supervised interval): every record served is logged, and on rollback
  the records are pushed back to be re-served, with the retire counters
  rewound — an in-memory rewind to the interval boundary.
"""

from __future__ import annotations

from collections import deque

from repro.dbt.translation_cache import TranslationCache
from repro.isa.opcodes import Opcode


class MagicOp:
    """Magic-op codes embedded in workloads (special NOP sequences)."""

    ROI_BEGIN = 1
    ROI_END = 2
    HEARTBEAT = 3


class InstrumentedStream:
    """Wraps a functional BBLExec stream with decode-once instrumentation.

    Iterating yields ``(decoded_bbl, bbl_exec)`` pairs.  Magic ops invoke
    registered handlers inline, mirroring how zsim recognizes magic NOP
    sequences at instrumentation time.
    """

    __slots__ = ("_stream", "tcache", "program_id", "magic_handler",
                 "instrs_retired", "bbls_executed", "pulled", "_pushback",
                 "_log", "_log_mark")

    def __init__(self, stream, translation_cache=None, program_id=0,
                 magic_handler=None):
        self._stream = iter(stream)
        # Note: an empty TranslationCache is falsy (len == 0), so an
        # explicit None check is required to honor shared caches.
        self.tcache = (translation_cache if translation_cache is not None
                       else TranslationCache())
        self.program_id = program_id
        self.magic_handler = magic_handler
        self.instrs_retired = 0
        self.bbls_executed = 0
        #: Records drawn from the underlying source so far.  Re-served
        #: pushback records do not count: ``pulled`` is the *source*
        #: position, which is what resume needs to replay.
        self.pulled = 0
        self._pushback = deque()
        self._log = None
        self._log_mark = (0, 0)

    def __iter__(self):
        return self

    def _next_record(self):
        if self._pushback:
            record = self._pushback.popleft()
        else:
            record = next(self._stream)
            self.pulled += 1
        if self._log is not None:
            self._log.append(record)
        return record

    def __next__(self):
        bbl_exec = self._next_record()
        block = bbl_exec.block
        decoded = self.tcache.translate(block, self.program_id)
        self.instrs_retired += block.num_instrs
        self.bbls_executed += 1
        if (self.magic_handler is not None
                and block.instructions[0].opcode == Opcode.MAGIC):
            self.magic_handler(bbl_exec)
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
                bbl_exec = self._next_record()
            except StopIteration:
                break
            skipped += bbl_exec.block.num_instrs
        self.instrs_retired += skipped
        return skipped

    # ------------------------------------------------------------------
    # Speculative spans (supervised intervals)
    # ------------------------------------------------------------------

    def begin_log(self):
        """Start logging served records so the span can be rolled back."""
        self._log = []
        self._log_mark = (self.instrs_retired, self.bbls_executed)

    def rollback_log(self):
        """Undo the span since :meth:`begin_log`: re-serve its records
        and rewind the retire counters.  ``pulled`` stays — the source
        genuinely produced those records; they now wait in pushback."""
        log, self._log = self._log, None
        if log:
            self._pushback.extendleft(reversed(log))
        self.instrs_retired, self.bbls_executed = self._log_mark

    def discard_log(self):
        """Commit the span: drop the log without rewinding."""
        self._log = None

    # ------------------------------------------------------------------
    # Checkpoint/resume
    # ------------------------------------------------------------------

    def __getstate__(self):
        state = {name: getattr(self, name) for name in self.__slots__}
        # The functional source is a generator (unpicklable); its
        # position is fully captured by ``pulled``.  An open log is a
        # supervisor-private rollback buffer, never checkpoint state.
        state["_stream"] = None
        state["_log"] = None
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
