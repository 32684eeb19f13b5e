"""Observability: tracing, metrics, and profiling hooks.

The telemetry layer mirrors what the paper's evaluation needed to be
written at all: per-phase (bound vs. weave) wall-clock costs, periodic
stats dumps, and event/crossing accounting.  Three pillars:

* :mod:`repro.obs.tracer` — span/instant tracing, exportable as Chrome
  trace-event JSON (load it in ``chrome://tracing`` / Perfetto) or as a
  compact text timeline.
* :mod:`repro.obs.metrics` — a registry of counters and log-2 bucketed
  histograms plus one sample row per simulated interval (zsim's
  periodic HDF5 dumps), serializable to JSON.  It holds only numbers
  the stats tree does not.
* :mod:`repro.obs.context` — the :class:`Telemetry` object threaded
  through the simulator.  Every hot-path call site guards on
  ``telem is not None`` so a run without telemetry pays nothing.

:mod:`repro.obs.log` configures structured per-subsystem loggers.

The run-introspection layer rides alongside; import its names from
their modules, which a run loads only when it turns them on:

* :mod:`repro.obs.flight` — the always-on ``FlightRecorder`` ring
  buffer and its post-mortem capsules (``repro report``).
* :mod:`repro.obs.monitor` — the ``RunMonitor`` live status file
  (``repro top``).
"""

from repro.obs.context import Telemetry
from repro.obs.histogram import Log2Histogram
from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

__all__ = [
    "Log2Histogram",
    "MetricsRegistry",
    "Telemetry",
    "Tracer",
    "configure_logging",
    "get_logger",
]
