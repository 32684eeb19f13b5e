"""Execution backends: how the bound-weave engine runs on the host.

The engine layers split "what to run" from "how to run it":

* :mod:`repro.core.bound` and :mod:`repro.core.weave` produce the work —
  bound-phase core runs in barrier wake order, and the weave-phase event
  graph partitioned into domains.
* An :class:`~repro.exec.backend.ExecutionBackend` owns the host
  resources (worker threads, queues, handoff discipline) that execute
  that work.

Four backends ship, each in its own module, which :func:`make_backend`
imports only when a run asks for it by name:

* :class:`~repro.exec.serial.SerialBackend` — the default; runs
  everything inline on the calling thread, bit-identical to the engine
  before backends existed.
* :class:`~repro.exec.parallel.ParallelBackend` — a worker pool of up to
  ``boundweave.host_threads`` threads.  Bound-phase cores are dispatched
  to workers through bounded per-worker queues with an ordered ticket
  handoff; weave domains execute concurrently on per-domain workers for
  provably independent event batches, synchronizing only at
  domain-crossing events.
* :class:`~repro.exec.pipelined.PipelinedBackend` — a two-stage
  pipeline: the bound phase runs on the driver thread while a dedicated
  weave-stage thread consumes intervals from a bounded queue (the
  paper's stated future work, modeled by ``HostModel.pipelined_*``).
* :class:`~repro.exec.process.ProcessBackend` — crash-tolerant
  speculation on real OS worker processes forked at the interval
  barrier: workers speculate bound-phase core runs against a
  copy-on-write replica, the driver validates the recorded accesses
  against the authoritative hierarchy and commits (or re-runs inline); a
  worker dying mid-interval can only cost wasted speculation, never
  corrupted state.

The cardinal invariant (the ZSim property the equivalence suite pins):
backends may change *wall time*, never *simulated results*.  For one
seed, every backend produces the same instruction counts, cycles,
per-core stats, and weave delays as the serial backend.
"""

import importlib

from repro.errors import ConfigError

#: Backend name -> (module, class) for ``--backend`` /
#: ``config.boundweave.backend``.
_BACKENDS = {
    "serial": ("repro.exec.serial", "SerialBackend"),
    "parallel": ("repro.exec.parallel", "ParallelBackend"),
    "pipelined": ("repro.exec.pipelined", "PipelinedBackend"),
    "process": ("repro.exec.process", "ProcessBackend"),
}

#: Valid names for ``--backend`` / ``config.boundweave.backend``.
BACKEND_NAMES = tuple(_BACKENDS)


def make_backend(name, host_threads=None):
    """Import and instantiate a backend by name (``serial``/
    ``parallel``/``pipelined``/``process``); raises
    :class:`~repro.errors.ConfigError` (a ValueError subclass) for
    unknown names."""
    try:
        module, cls = _BACKENDS[name]
    except KeyError:
        raise ConfigError("Unknown execution backend: %r (valid: %s)"
                          % (name, ", ".join(BACKEND_NAMES))) from None
    return getattr(importlib.import_module(module), cls)(
        host_threads=host_threads)


__all__ = ["BACKEND_NAMES", "make_backend"]
