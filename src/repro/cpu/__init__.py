"""Core timing models: IPC1 and instruction-driven OOO."""

from repro.cpu.base import Core, RunOutcome
from repro.cpu.bpred import BranchPredictor
from repro.cpu.ooo import OOOCore
from repro.cpu.simple import SimpleCore


def make_core(core_id, mem, config):
    """Instantiate the configured core model."""
    if config.model == "simple":
        return SimpleCore(core_id, mem, config)
    if config.model == "ooo":
        return OOOCore(core_id, mem, config)
    raise ValueError("Unknown core model: %r" % (config.model,))


__all__ = ["BranchPredictor", "Core", "OOOCore", "RunOutcome", "SimpleCore",
           "make_core"]
