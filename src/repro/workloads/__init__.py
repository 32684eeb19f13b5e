"""Synthetic workloads standing in for the paper's benchmark suites.

Process mixes are in :mod:`repro.workloads.multiprogrammed` and the
Section 3.3 classes in :mod:`repro.workloads.server`.
"""

from repro.workloads.base import (
    KernelProgram,
    KernelSpec,
    Workload,
    kernel_stream,
)
from repro.workloads.multithreaded import (
    FIGURE2_WORKLOADS,
    MULTITHREADED,
    PARSEC,
    SPEC_OMP,
    SPLASH2,
    TABLE4_WORKLOADS,
    default_threads,
    mt_workload,
)
from repro.workloads.patterns import make_pattern
from repro.workloads.spec_cpu import SPEC_CPU2006, spec_workload

__all__ = [
    "FIGURE2_WORKLOADS",
    "KernelProgram",
    "KernelSpec",
    "MULTITHREADED",
    "PARSEC",
    "SPEC_CPU2006",
    "SPEC_OMP",
    "SPLASH2",
    "TABLE4_WORKLOADS",
    "Workload",
    "default_threads",
    "kernel_stream",
    "make_pattern",
    "mt_workload",
    "spec_workload",
]
