"""The fleet journal: a durable, append-only JSONL write-ahead log.

Every job state transition the orchestrator makes is journaled *before*
it acts on it (write-ahead), one JSON object per line, flushed and
``fsync``'d per append.  That single discipline is what buys the resume
guarantee: a SIGKILLed orchestrator replays the journal and knows
exactly which jobs completed (never re-run), which were mid-flight
(re-enqueued, resuming from their own checkpoints), and which were
quarantined (stay parked).  Append-per-transition is cheap here — a
fleet transitions a handful of times per *job*, not per interval.

Crash anatomy, and why each piece is safe:

* **SIGKILL between transitions** — the journal ends at the last fsync;
  replay sees a consistent prefix.
* **SIGKILL mid-append** — the final line may be torn.  The reader
  (:func:`read_journal`) tolerates an undecodable tail line (counted,
  warned, skipped); a torn line can only be the *latest* transition,
  whose job is then conservatively treated as still mid-flight.
* **SIGKILL mid-rotation** — rotation (compaction of the journal into
  per-job snapshot records once it outgrows ``rotate_bytes``) writes
  the compacted log to a pid-unique temp, fsyncs it, and atomically
  ``os.replace``'s it over the journal.  Either the old journal or the
  complete new one exists, never a half.  Stale temps from a killed
  rotation are pruned on open (own-path prefix only).

Records are plain dicts with at least ``event`` and a wall-clock ``t``
(informational; replay logic never depends on clocks).
"""

from __future__ import annotations

import json
import os
import time

from repro.errors import FleetError
from repro.obs.log import get_logger
from repro.obs.monitor import prune_status_orphans

_log = get_logger("fleet.journal")

#: Rotate (compact) once the journal file outgrows this many bytes.
DEFAULT_ROTATE_BYTES = 1 << 19


def _fsync_directory(path):
    """Best-effort fsync of ``path``'s directory, so a rename survives
    a host crash (not just a process crash)."""
    directory = os.path.dirname(path) or "."
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class Journal:
    """Append-only JSONL journal with fsync'd appends and atomic
    rotation."""

    def __init__(self, path, rotate_bytes=DEFAULT_ROTATE_BYTES):
        self.path = path
        self.rotate_bytes = max(4096, int(rotate_bytes))
        self.rotations = 0
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        # A SIGKILL mid-rotation leaves a complete-or-partial temp next
        # to the journal; the journal itself is still the truth.
        prune_status_orphans(path)
        self._fh = open(path, "a", encoding="utf-8")

    # -- writing -------------------------------------------------------

    def append(self, event, **fields):
        """Durably append one record; returns the record dict."""
        record = {"event": event, "t": round(time.time(), 3)}
        record.update(fields)
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":"))
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        return record

    def size(self):
        try:
            return os.fstat(self._fh.fileno()).st_size
        except OSError:
            return 0

    def maybe_rotate(self, snapshot_records):
        """Compact the journal when it outgrew ``rotate_bytes``.

        ``snapshot_records`` is a callable returning the records that
        fully reconstruct current state (the orchestrator's per-job
        snapshot); it is only invoked when rotation actually happens.
        """
        if self.size() < self.rotate_bytes:
            return False
        self.rotate(snapshot_records())
        return True

    def rotate(self, records):
        """Atomically replace the journal with ``records``."""
        tmp = "%s.%d.tmp" % (self.path, os.getpid())
        with open(tmp, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._fh.close()
        os.replace(tmp, self.path)
        _fsync_directory(self.path)
        self._fh = open(self.path, "a", encoding="utf-8")
        self.rotations += 1
        _log.info("journal rotated: %s (%d rotation(s))", self.path,
                  self.rotations)

    def close(self):
        try:
            self._fh.close()
        except OSError:
            pass


def read_journal(path):
    """Read a journal tolerantly; returns ``(records, skipped)``.

    A torn final line (SIGKILL mid-append) is expected and skipped
    silently; an undecodable line *before* the tail means corruption
    beyond what a crash can explain, so it is skipped with a warning —
    replay degrades to re-running the affected job rather than refusing
    the whole campaign.  Raises :class:`~repro.errors.FleetError` only
    when the file itself cannot be read.
    """
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise FleetError("could not read journal %s: %s"
                         % (path, exc)) from exc
    records = []
    skipped = 0
    last_index = len(lines) - 1
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            skipped += 1
            if index != last_index:
                _log.warning("journal %s line %d is corrupt (skipped)",
                             path, index + 1)
            else:
                _log.info("journal %s has a torn final line (crash "
                          "mid-append); skipped", path)
            continue
        if isinstance(record, dict):
            records.append(record)
        else:
            skipped += 1
    return records, skipped
