"""Statistics: hierarchical counters, metric aggregation, reporting."""

from repro.obs.histogram import Log2Histogram
from repro.stats.aggregate import (
    confidence_interval_95,
    hmean,
    ipc,
    mean,
    mean_abs,
    mpki,
    perf_error,
    run_until_tight,
    stdev,
)
from repro.stats.ascii_plot import line_plot
from repro.stats.counters import StatsNode
from repro.stats.diff import (
    DiffResult,
    Mismatch,
    assert_equivalent,
    diff_trees,
    load_tree,
)
from repro.stats.reporting import format_table

__all__ = [
    "DiffResult",
    "Log2Histogram",
    "Mismatch",
    "StatsNode",
    "assert_equivalent",
    "confidence_interval_95",
    "diff_trees",
    "load_tree",
    "format_table",
    "hmean",
    "line_plot",
    "ipc",
    "mean",
    "mean_abs",
    "mpki",
    "perf_error",
    "run_until_tight",
    "stdev",
]
