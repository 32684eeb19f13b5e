"""State-integrity sentinel: fingerprint chains and invariant audits.

The bound-weave engine's determinism contract — every backend produces
byte-identical simulated state — is enforced offline by test oracles,
but a *silently* corrupted cache line or scoreboard entry (a bad host,
a buggy executor, an injected ``corrupt`` fault) raises nothing on
its own, and poisons every downstream interval and checkpoint.  This module closes that loop with
three pieces (ISSUE 9):

* **Interval fingerprint chain.**  At every interval barrier the
  sentinel computes a cheap ``zlib.crc32`` digest per component (core
  stage clocks and scoreboards, cache counters and occupancy, scheduler
  queues, weave domains) and folds them into a hash ledger::

      fp[i] = crc32(interval_i || sorted per-component digests, fp[i-1])

  A divergence names the guilty subsystem via the per-component
  sub-digests.  The chain value is recorded into the flight ring,
  embedded in checkpoint capsule meta (``meta["integrity"]``, with
  *deep* full tag+MESI digests so ``--resume`` and ``repro verify`` can
  re-derive them).

* **Online invariant auditor.**  At a configurable stride
  (``--audit-every N``; 0 = off) the sentinel checks structural
  invariants the engine must preserve at every barrier: MESI
  single-writer and inclusion, cache-array free-way bookkeeping, weave
  queues drained and horizon floors respected, and scheduler run-queue /
  running-slot consistency.  A violation raises
  :class:`~repro.errors.IntegrityError` carrying the component path and
  a state excerpt, and the run ends with its post-mortem capsule.

* **Audited capsules.**  The simulator is deterministic, so a violation
  is a model bug or an injected ``corrupt@I:cN`` fault, and replaying
  the interval would only reproduce it.  The clean restart point is on
  disk instead: with auditing on, ``Checkpointer.save`` audits any
  barrier the stride skipped before writing it, so no capsule holds a
  state that fails the auditor.  :func:`verify_state` audits restored
  state too, so ``--resume`` and ``repro verify`` refuse a capsule an
  older build wrote from a corrupt state.

Digest depth: the per-barrier chain uses *cheap* digests (counters,
occupancy, free-way CRCs — O(sets), not O(lines)) so the default-stride
overhead stays under the hotpath budget; checkpoint capsules and
``repro verify`` use *deep* digests that also cover the full tag+MESI
arrays and directories by value, where the cost is per-checkpoint
rather than per-interval.
"""

from __future__ import annotations

import io
import pickle
import zlib

from repro.errors import IntegrityError


def _crc(items):
    """crc32 of the joined ``repr`` of ``items``: ints, strings, tuples
    and enums only, whose ``repr`` is stable."""
    text = "".join([repr(item) for item in items])
    return zlib.crc32(text.encode("ascii", "backslashreplace")) & 0xFFFFFFFF


def fingerprint_components(sim, deep=False):
    """Per-component state digests at an interval barrier.

    Returns ``{component_path: crc32}``.  With ``deep=False`` (the
    per-barrier chain) each digest covers counters, clocks, occupancy
    and queue summaries; ``deep=True`` (checkpoint capsules, resume
    verification, ``repro verify``) additionally walks full cache
    tag+MESI arrays and coherence directories.
    """
    digests = {}
    for core in sim.cores:
        digests["core%d" % core.core_id] = _crc(core.integrity_items())
    hierarchy = sim.hierarchy
    digests["mem.mem"] = _crc(hierarchy.mainmem.integrity_items())
    for cache in hierarchy.all_caches():
        crc = _crc(cache.integrity_items())
        if deep:
            # The by-value state, pickled at C speed with the memo off:
            # equal values give equal bytes, across round trips too.
            buf = io.BytesIO()
            pickler = pickle.Pickler(buf, pickle.HIGHEST_PROTOCOL)
            pickler.fast = True
            pickler.dump(cache.deep_items())
            crc = zlib.crc32(buf.getbuffer(), crc) & 0xFFFFFFFF
        digests["mem.%s" % cache.name] = crc
    digests["sched"] = _crc(sim.scheduler.integrity_items())
    if sim.weave is not None:
        for domain in sim.weave.domains:
            digests["weave.domain%d" % domain.domain_id] = _crc(
                domain.integrity_items())
    return digests


def chain_payload(interval, digests):
    """Canonical byte string folded into the fingerprint chain for one
    barrier (also what ``repro verify`` re-derives)."""
    return ("%d|" % interval + "|".join(
        "%s:%08x" % (name, digests[name])
        for name in sorted(digests))).encode("ascii")


# ---------------------------------------------------------------------
# Invariant audits
# ---------------------------------------------------------------------


def audit_invariants(sim):
    """Check every barrier invariant; returns ``(component, excerpt)``
    violation pairs (empty when the state is sound)."""
    violations = []
    hierarchy = sim.hierarchy
    # MESI single-writer across the L1s (>=2 copies with an M/E owner).
    for line, copies in hierarchy.check_coherence():
        violations.append(
            ("mem", "single-writer violated for line 0x%x: %s"
             % (line, sorted(copies))))
    # Inclusion: every child-resident line present in its parent.
    for child, parent, line in hierarchy.check_inclusion():
        violations.append(
            ("mem.%s" % child,
             "line 0x%x resident but absent from parent %s (inclusion)"
             % (line, parent)))
    # Cache-array bookkeeping: free-way counts and way back-pointers.
    for cache in hierarchy.all_caches():
        violations.extend(cache.array.audit_invariants(
            "mem.%s" % cache.name))
    if sim.weave is not None:
        for domain in sim.weave.domains:
            if len(domain._queue):
                violations.append(
                    ("weave.domain%d" % domain.domain_id,
                     "%d event(s) still queued at the interval barrier"
                     % len(domain._queue)))
    # Scheduler bookkeeping (run queue vs. running slots).
    violations.extend(sim.scheduler.audit_invariants())
    return violations


def check_invariants(sim, interval, phase):
    """Raise :class:`~repro.errors.IntegrityError` naming the first
    :func:`audit_invariants` violation, after recording every one as an
    ``integrity_violation`` flight-ring event."""
    violations = audit_invariants(sim)
    if not violations:
        return
    component, excerpt = violations[0]
    flight = getattr(sim, "flight", None)
    if flight is not None:
        for comp, text in violations:
            flight.record("integrity_violation", interval=interval,
                          component=comp, excerpt=text)
    raise IntegrityError(
        "integrity audit failed at interval %s: %s — %s%s"
        % (interval, component, excerpt,
           " (+%d more violation(s))" % (len(violations) - 1)
           if len(violations) > 1 else ""),
        component=component, excerpt=excerpt, interval=interval,
        phase=phase)


# ---------------------------------------------------------------------
# The sentinel
# ---------------------------------------------------------------------


class IntegritySentinel:
    """Fingerprint-chain + audit state for one run.

    Deliberately *part of simulated state*: the sentinel pickles with
    the simulator (it is **not** in ``checkpoint._detached``), so a
    ``--resume`` continues the chain from the barrier it restores, and
    the resumed intervals derive the chain values an uninterrupted run
    would.
    """

    def __init__(self, audit_every=0):
        #: Audit stride in intervals; 0 = fingerprints only, no audits.
        self.audit_every = max(0, int(audit_every))
        #: Running chain value (crc32 ledger over all barriers so far).
        self.chain = 0
        #: Interval of the most recent observation.
        self.interval = 0
        #: Cheap per-component digests of the most recent barrier.
        self.components = {}
        self.fingerprints = 0
        self.audits = 0

    # -- per-barrier hook ---------------------------------------------

    def observe(self, sim, interval):
        """Advance the chain at an interval barrier; run the invariant
        auditor when ``interval`` lands on the audit stride.  Raises
        :class:`~repro.errors.IntegrityError` on a violation."""
        digests = fingerprint_components(sim)
        self.chain = zlib.crc32(chain_payload(interval, digests),
                                self.chain) & 0xFFFFFFFF
        self.components = digests
        self.interval = interval
        self.fingerprints += 1
        flight = sim.flight
        if flight is not None:
            flight.record("fingerprint", interval=interval,
                          chain="%08x" % self.chain)
        if self.audit_every and interval % self.audit_every == 0:
            self.audit(sim, interval)
        return self.chain

    def audit(self, sim, interval=None):
        """Run the invariant auditor now; raises on any violation."""
        self.audits += 1
        check_invariants(sim, interval, "audit")

    def audit_unaudited(self, sim):
        """Audit the current barrier unless the stride already did (a
        checkpoint is only written from an audited state)."""
        if self.audit_every and self.interval % self.audit_every:
            self.audit(sim, self.interval)

    # -- checkpoint / verify support ----------------------------------

    def capsule_record(self, sim):
        """Record embedded in checkpoint capsule meta: the chain value
        at this barrier plus *deep* per-component digests that
        ``ZSim.resume`` and ``repro verify`` recompute byte-for-byte."""
        return {
            "interval": self.interval,
            "chain": self.chain,
            "audit_every": self.audit_every,
            "components": fingerprint_components(sim, deep=True),
        }

    def summary(self):
        """The sentinel's counters and its current chain value."""
        return {"fingerprints": self.fingerprints, "audits": self.audits,
                "chain": self.chain, "interval": self.interval}


def verify_state(sim, record, context="resume"):
    """Recompute deep digests on a (restored) simulator, check them
    against a checkpoint capsule's ``meta["integrity"]`` record, then
    audit the state's invariants.  Returns the digests on success;
    raises :class:`~repro.errors.IntegrityError` naming the first
    diverging component or the first violation otherwise."""
    digests = fingerprint_components(sim, deep=True)
    expected = dict(record.get("components") or {})
    guilty = [name for name in sorted(set(digests) | set(expected))
              if digests.get(name) != expected.get(name)]
    sentinel = getattr(sim, "integrity", None)
    if not guilty and sentinel is not None \
            and record.get("chain") is not None \
            and sentinel.chain != record["chain"]:
        guilty = ["chain"]
        digests = dict(digests, chain=sentinel.chain)
        expected["chain"] = record["chain"]
    if not guilty:
        # Matching digests only prove the capsule holds what was
        # written; the audit proves that what was written is sound.
        check_invariants(sim, record.get("interval"), context)
        return digests
    name = guilty[0]
    raise IntegrityError(
        "%s fingerprint mismatch at interval %s: component %s digest "
        "%s != recorded %s (%d component(s) diverged: %s)"
        % (context, record.get("interval"), name,
           _hex(digests.get(name)), _hex(expected.get(name)),
           len(guilty), ", ".join(guilty[:8])),
        component=name, fingerprint=digests.get(name),
        expected=expected.get(name), interval=record.get("interval"),
        phase=context)


def _hex(value):
    return "%08x" % value if isinstance(value, int) else "absent"
