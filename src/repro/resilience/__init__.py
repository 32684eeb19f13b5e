"""Resilience layer: supervised execution, interval checkpoints, and
deterministic fault injection (see docs/resilience.md).

The layer leans on two guarantees the engine already provides — interval
barriers are consistent global states, and execution backends never
change simulated results — to turn host-side failures (dead or stalled
workers, corrupted event queues, killed processes) into recoverable
events: the supervisor replays the faulted interval serially from an
in-memory snapshot, and the checkpointer persists barrier snapshots so
a killed run resumes to an identical stats tree.

The root re-exports what a guarded run executes: checkpoints and the
integrity sentinel.  The supervisor (:mod:`repro.resilience.supervisor`,
with its recovery backoff) and fault injection
(:mod:`repro.resilience.faults`) are imported from their modules.
"""

from repro.resilience.checkpoint import (Checkpointer, capture_state,
                                         checkpoints, discard,
                                         read_checkpoint,
                                         read_latest_checkpoint, restore,
                                         snapshot, write_checkpoint,
                                         FORMAT_VERSION)
from repro.resilience.integrity import (IntegritySentinel,
                                        audit_invariants,
                                        fingerprint_components,
                                        verify_state)

__all__ = [
    "Checkpointer", "FORMAT_VERSION", "IntegritySentinel",
    "audit_invariants", "capture_state", "checkpoints", "discard",
    "fingerprint_components", "read_checkpoint", "read_latest_checkpoint",
    "restore", "snapshot", "verify_state", "write_checkpoint",
]
