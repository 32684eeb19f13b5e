"""Interval checkpointing: consistent snapshots at interval barriers.

The interval barrier is the engine's consistent global state: every
core has reached the limit cycle, the weave phase has drained, and the
scheduler holds no mid-syscall state.  A capsule written there is a
clean restart point, and the run is deterministic, so a run that ended
for any reason (killed, stopped on its wall budget, or ended by a typed
fault) resumes from its newest capsule to the same stats tree
(``repro run --resume``).  Capsules are audited before they are
written, so none holds a state that fails the integrity auditor.

Streams are reconstructed by fast-forwarding a fresh workload generator
to the recorded position (``InstrumentedStream.resume_source``), which
is deterministic by the workload seeding contract.

File format: one ASCII header line ``repro-ckpt <version> <crc32>``
followed by a pickle payload.  The CRC covers the payload; mismatches
raise :class:`~repro.errors.CheckpointError`, version skew raises
:class:`~repro.errors.CheckpointVersionError`.
"""

from __future__ import annotations

import os
import pickle
import zlib

from repro.errors import CheckpointError, CheckpointVersionError
from repro.obs.log import get_logger

#: On-disk format version; bump on any incompatible capsule change.
#: v2: deque OOO rings, inline weave edges.  v3: no recycling pools.  v4:
#: slot pickles, by-value digests.  v5: no OOO prune counters, byte _free.
#: v6: recency LRU maps.  v7: no magic handler, no Uops.  v8: blocks only.
#: v9: no replay log.  v10: no memory directory.  v11: timeline floors.
FORMAT_VERSION = 11
MAGIC = b"repro-ckpt"

_log = get_logger("resilience.checkpoint")


def _detached(sim):
    """Attribute names on ZSim that hold host-side machinery (threads,
    file handles) and stay out of a capsule.  ``_stop_requested`` is
    here so a capsule never embalms a pending SIGTERM (the resumed run
    would instantly stop again).  The flight recorder and live monitor
    are host-side observers (ring of host timestamps, status-file
    handles): a resumed run gets fresh ones."""
    return ("backend", "checkpointer", "_telem", "_stop_requested",
            "flight", "monitor")


def capture_state(sim):
    """Pickle the simulator at an interval barrier.  Host-side
    machinery (backend worker threads, telemetry sinks, the profiler)
    is detached around the dump; the returned bytes contain only
    simulated state."""
    saved = {name: getattr(sim, name, None) for name in _detached(sim)}
    profiler = sim.hierarchy.profiler
    telem = sim._telem
    sim.attach_telemetry(None)
    sim.hierarchy.profiler = None
    for name in _detached(sim):
        setattr(sim, name, None)
    try:
        return pickle.dumps(sim, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            "simulator state is not serializable: %s" % (exc,)) from exc
    finally:
        for name, value in saved.items():
            setattr(sim, name, value)
        sim.hierarchy.profiler = profiler
        if telem is not None:
            sim.attach_telemetry(telem)


#: The capture a capsule holds, under the name the perf suite's
#: ``resilience.snapshot_ms_16c`` row times; kept only for that row.
snapshot = capture_state


def discard(sim):
    """No-op: capture arms nothing that needs dropping.  Kept only
    because the perf suite's snapshot row calls it after each capture."""


# ---------------------------------------------------------------------
# On-disk checkpoints
# ---------------------------------------------------------------------


def write_checkpoint(path, sim, interval, limit, meta=None):
    """Write a versioned checkpoint capsule atomically to ``path``."""
    capsule = {
        "version": FORMAT_VERSION,
        "interval": interval,
        "limit": limit,
        "backend": sim.backend.name if sim.backend is not None else None,
        "contention": sim.contention_model,
        "config_name": sim.config.name,
        "meta": dict(meta or {}),
        "sim": capture_state(sim),
    }
    body = pickle.dumps(capsule, protocol=pickle.HIGHEST_PROTOCOL)
    header = b"%s %d %08x\n" % (MAGIC, FORMAT_VERSION,
                                zlib.crc32(body) & 0xFFFFFFFF)
    # PID-unique temp name: two runs sharing a checkpoint directory
    # must not clobber each other's in-flight write (the rename itself
    # is atomic either way).
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(body)
        os.replace(tmp, path)
    except OSError:
        # Disk full, read-only remount, vanished directory: leave no
        # half-written temp behind and let the caller decide whether
        # the run survives without this capsule.
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _log.info("checkpoint written: %s (interval %d)", path, interval)
    return path


def read_checkpoint(path):
    """Read and validate a checkpoint capsule; the embedded simulator
    is unpickled into ``capsule['sim']``."""
    with open(path, "rb") as fh:
        header = fh.readline()
        body = fh.read()
    parts = header.split()
    if len(parts) != 3 or parts[0] != MAGIC:
        raise CheckpointError("%s is not a checkpoint file" % (path,))
    try:
        version = int(parts[1])
        crc = int(parts[2], 16)
    except ValueError:
        raise CheckpointError("%s has a corrupt header" % (path,))
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            "%s is checkpoint format v%d; this build reads v%d"
            % (path, version, FORMAT_VERSION),
            found=version, expected=FORMAT_VERSION)
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CheckpointError("%s failed its checksum" % (path,))
    capsule = pickle.loads(body)
    capsule["sim"] = pickle.loads(capsule["sim"])
    return capsule


def parse_name(name):
    """``(run_id, interval)`` of a checkpoint filename, or None.  The
    current form is ``ckpt-<runid>-<interval>.pkl``; the legacy
    unqualified ``ckpt-<interval>.pkl`` has run id None."""
    if not (name.startswith("ckpt-") and name.endswith(".pkl")):
        return None
    run_id, _, interval = name[5:-4].rpartition("-")
    try:
        return run_id or None, int(interval)
    except ValueError:
        return None


def checkpoints(directory):
    """Every checkpoint-named file in ``directory`` as ``(interval,
    path)`` pairs, newest interval first (ties broken by name so the
    order is stable across runs)."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    found = []
    for name in names:
        parsed = parse_name(name)
        if parsed is not None:
            found.append((parsed[1], os.path.join(directory, name)))
    found.sort(key=lambda pair: (-pair[0], pair[1]))
    return found


def read_latest_checkpoint(directory, flight=None):
    """Read the newest *valid* checkpoint in ``directory``.

    A capsule that fails verification (truncated by a dying disk, CRC
    mismatch, version skew, vanished between listing and open) is
    skipped with a warning — and a ``checkpoint_fallback`` flight-ring
    event when a recorder is passed — and the next-newest capsule is
    tried instead.  Only when *no* capsule is readable does
    :class:`~repro.errors.CheckpointError` propagate: losing the last
    few intervals beats losing the whole run.

    Returns ``(path, capsule)``.
    """
    candidates = checkpoints(directory)
    if not candidates:
        raise CheckpointError("no checkpoints in %s" % (directory,))
    last_error = None
    for index, (interval, path) in enumerate(candidates):
        try:
            capsule = read_checkpoint(path)
        except (CheckpointError, OSError) as exc:
            last_error = exc
            _log.warning("skipping unreadable checkpoint %s: %s",
                         path, exc)
            if flight is not None:
                flight.record("checkpoint_fallback", path=path,
                              interval=interval, error=str(exc))
            continue
        if index:
            _log.warning("fell back to %s (interval %d): %d newer "
                         "checkpoint(s) failed verification",
                         path, interval, index)
        return path, capsule
    raise CheckpointError(
        "no valid checkpoint in %s: all %d candidate(s) failed "
        "verification (last: %s)"
        % (directory, len(candidates), last_error))


class Checkpointer:
    """Periodic on-disk checkpointing at interval strides.

    Each Checkpointer stamps its files with a per-run id
    (``ckpt-<runid>-<interval>.pkl``) and prunes **only its own**
    files: two runs sharing ``--checkpoint-dir`` can no longer delete
    each other's newest checkpoints out from under a resume.
    ``checkpoints()`` still lists both runs' files (and legacy
    unqualified names), highest interval first."""

    def __init__(self, directory, every=1, keep=2, meta=None,
                 run_id=None):
        self.directory = directory
        self.every = max(1, int(every))
        self.keep = max(1, int(keep))
        self.meta = dict(meta or {})
        self.run_id = run_id or os.urandom(4).hex()
        self.saved = 0
        self.last_path = None
        self._write_failed = False
        os.makedirs(directory, exist_ok=True)
        self._prune_orphans()

    def _prefix(self):
        return "ckpt-%s-" % self.run_id

    def _prune_orphans(self):
        """Remove stale ``*.tmp`` files a SIGKILL mid-write left behind
        by an earlier process with this same run id.  Own-prefix only:
        in a shared checkpoint directory, other runs' in-flight temp
        files must stay untouched."""
        prefix = self._prefix()
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if name.startswith(prefix) and name.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(self.directory, name))
                    _log.info("pruned orphaned checkpoint temp %s", name)
                except OSError:
                    pass

    def maybe_save(self, sim, interval, limit):
        """Save when ``interval`` lands on the stride; returns the path
        or None."""
        if interval % self.every:
            return None
        return self.save(sim, interval, limit)

    def save(self, sim, interval, limit):
        path = os.path.join(self.directory,
                            "%s%08d.pkl" % (self._prefix(), interval))
        meta = dict(self.meta)
        sentinel = sim.integrity
        if sentinel is not None:
            # No capsule holds a state that fails the auditor: an
            # IntegrityError here ends the run before anything is
            # written, and the newest capsule stays a clean restart.
            sentinel.audit_unaudited(sim)
            # Deep digests: ``--resume`` and ``repro verify`` check the
            # restored state against these before trusting the capsule.
            meta["integrity"] = sentinel.capsule_record(sim)
        flight = sim.flight
        try:
            write_checkpoint(path, sim, interval, limit, meta)
        except OSError as exc:
            # A full or read-only disk must not kill a healthy run:
            # warn once, keep simulating without resumability.
            if not self._write_failed:
                self._write_failed = True
                _log.warning("checkpoint write failed (%s); run "
                             "continues without resume capsules: %s",
                             path, exc)
            if flight is not None:
                flight.record("checkpoint_failed", interval=interval,
                              path=path, error=str(exc))
            return None
        self._write_failed = False
        self.saved += 1
        self.last_path = path
        if flight is not None:
            flight.record("checkpoint", interval=interval, path=path)
        self._prune()
        return path

    def _prune(self):
        prefix = self._prefix()
        kept = sorted(
            (name for name in os.listdir(self.directory)
             if name.startswith(prefix) and name.endswith(".pkl")))
        for name in kept[:-self.keep]:
            try:
                os.unlink(os.path.join(self.directory, name))
            except OSError:
                pass
