"""Experiment harness: drivers regenerating the paper's tables/figures."""

from repro.harness import table1
from repro.harness.performance import (
    MODEL_SETS,
    host_scalability,
    interval_sensitivity,
    model_grid,
    native_mips,
    simulate_mips,
    table4,
    target_scalability,
    with_core_model,
)
from repro.harness.validation import (
    mt_validation,
    run_real,
    run_zsim,
    spec_validation,
    speedup_curve,
    stream_scalability,
    validate_workload,
)

__all__ = [
    "MODEL_SETS",
    "host_scalability",
    "interval_sensitivity",
    "model_grid",
    "mt_validation",
    "native_mips",
    "run_real",
    "run_zsim",
    "simulate_mips",
    "spec_validation",
    "speedup_curve",
    "stream_scalability",
    "table1",
    "table4",
    "target_scalability",
    "validate_workload",
    "with_core_model",
]
