"""Resilience layer: interval checkpoints, the integrity sentinel, and
deterministic fault injection (see docs/resilience.md).

The layer leans on two guarantees the engine already provides: interval
barriers are consistent global states, and a run is deterministic.  So
no fault is replayed in-process.  Every fault ends the run typed, with
a post-mortem capsule, and the checkpointer's newest barrier capsule is
a clean restart point: ``repro run --resume`` continues from it to the
stats tree an uninterrupted run produces.

The root re-exports what a guarded run executes: checkpoints and the
integrity sentinel.  Fault injection (:mod:`repro.resilience.faults`)
is imported from its module.
"""

from repro.resilience.checkpoint import (Checkpointer, capture_state,
                                         checkpoints, discard,
                                         read_checkpoint,
                                         read_latest_checkpoint,
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
    "snapshot", "verify_state", "write_checkpoint",
]
