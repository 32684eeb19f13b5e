"""Synthetic workloads standing in for the paper's benchmark suites."""

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
from repro.workloads.multiprogrammed import (
    MultiprogrammedMix,
    interference_study,
)
from repro.workloads.patterns import make_pattern
from repro.workloads.spec_cpu import SPEC_CPU2006, spec_workload

__all__ = [
    "FIGURE2_WORKLOADS",
    "KernelProgram",
    "KernelSpec",
    "MULTITHREADED",
    "MultiprogrammedMix",
    "PARSEC",
    "SPEC_CPU2006",
    "SPEC_OMP",
    "SPLASH2",
    "TABLE4_WORKLOADS",
    "Workload",
    "default_threads",
    "interference_study",
    "kernel_stream",
    "make_pattern",
    "mt_workload",
    "spec_workload",
]
