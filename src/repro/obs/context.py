"""The telemetry context threaded through the simulator.

One :class:`Telemetry` object bundles the tracer and the metrics
registry and is passed into :class:`~repro.core.simulator.ZSim` (which
forwards it to the bound phase, weave engine, memory hierarchy, and
scheduler).  The contract for instrumented code is:

* hold the context as ``self._telem`` (``None`` when telemetry is off);
* guard every hot-path call site with ``if self._telem is not None:``
  so a disabled run pays one attribute load and an identity check —
  nothing is allocated, formatted, or timed.

Either pillar can be switched off individually (``Telemetry(trace=False)``
still collects metrics).
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


class Telemetry:
    """Instrumentation context: a tracer plus a metrics registry."""

    def __init__(self, trace=True, metrics=True):
        self.tracer = Tracer() if trace else None
        self.metrics = MetricsRegistry() if metrics else None

    # Convenience writers used by the CLI -----------------------------

    def write_trace(self, path, indent=None):
        if self.tracer is None:
            raise RuntimeError("tracing is disabled on this Telemetry")
        self.tracer.write(path, indent=indent)

    def write_metrics(self, path, indent=2):
        if self.metrics is None:
            raise RuntimeError("metrics are disabled on this Telemetry")
        self.metrics.write(path, indent=indent)

    def __repr__(self):
        return ("Telemetry(trace=%s, metrics=%s)"
                % (self.tracer is not None, self.metrics is not None))
