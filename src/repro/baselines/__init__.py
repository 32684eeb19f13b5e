"""Baseline simulators and the golden reference machine."""

from repro.baselines.graphite import DEFAULT_SLACK, graphite_simulator
from repro.baselines.pdes import PDESSimulator
from repro.baselines.reference import REFERENCE_INTERVAL, reference_simulator
from repro.baselines.tlb import TLB, TLBMemory

__all__ = [
    "DEFAULT_SLACK",
    "PDESSimulator",
    "REFERENCE_INTERVAL",
    "TLB",
    "TLBMemory",
    "graphite_simulator",
    "reference_simulator",
]
