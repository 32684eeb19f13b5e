"""The paper's primary contribution: the bound-weave simulation engine.

* :class:`~repro.core.simulator.ZSim` — the top-level simulator.
* :class:`~repro.core.bound.BoundPhase` — interval-barrier zero-load
  simulation.
* :class:`~repro.core.weave.WeaveEngine` — domain-partitioned
  event-driven contention simulation.
* :class:`~repro.core.interference.InterferenceProfiler` — Figure 2's
  path-altering interference profile.
* :class:`~repro.core.host.HostModel` — host-parallelism model (Fig. 8).
"""

from repro.core.bound import BoundPhase
from repro.core.domains import CoreWeave, Domain, assign_domains
from repro.core.events import WeaveEvent
from repro.core.host import HostModel, makespan
from repro.core.interference import InterferenceProfiler
from repro.core.simulator import CONTENTION_MODELS, SimulationResult, ZSim
from repro.core.weave import WeaveEngine, WeaveStats

__all__ = [
    "BoundPhase",
    "CONTENTION_MODELS",
    "CoreWeave",
    "Domain",
    "HostModel",
    "InterferenceProfiler",
    "SimulationResult",
    "WeaveEngine",
    "WeaveEvent",
    "WeaveStats",
    "ZSim",
    "assign_domains",
    "makespan",
]
