"""Crash-tolerant experiment campaigns.

``repro.fleet`` turns a JSON sweep spec (config × workload × seed grid)
into a campaign of subprocess-isolated ``repro run`` jobs executed under
a durable write-ahead journal.  The package guarantee: with workers
*and* the orchestrator SIGKILLed at arbitrary points, ``repro fleet
resume`` completes every non-quarantined job exactly once, re-runs no
completed job, and every job's stats tree is byte-identical (modulo the
``host`` section) to a serial in-process run of the same spec.

Layering: :mod:`~repro.fleet.spec` expands the grid,
:mod:`~repro.fleet.journal` persists transitions,
:mod:`~repro.fleet.monitor` publishes campaign status through the
:mod:`repro.obs.monitor` machinery, and
:mod:`~repro.fleet.orchestrator` runs the show — leaning on
:mod:`repro.resilience` for backoff and per-job checkpoint resume.
"""

from repro.fleet.journal import (DEFAULT_ROTATE_BYTES, Journal,
                                 read_journal)
from repro.fleet.monitor import FleetMonitor
from repro.fleet.orchestrator import (EXIT_DRAINED, FleetOrchestrator,
                                      JobState)
from repro.fleet.spec import JobSpec, SweepSpec

__all__ = [
    "DEFAULT_ROTATE_BYTES",
    "EXIT_DRAINED",
    "FleetMonitor",
    "FleetOrchestrator",
    "JobSpec",
    "JobState",
    "Journal",
    "SweepSpec",
    "read_journal",
]
