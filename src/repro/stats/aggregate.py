"""Aggregation helpers for the evaluation's summary rows.

The harmonic mean the paper uses for MIPS figures, plus the plain mean,
mean absolute value (average |error| rows) and sample standard
deviation that the benchmark files report.
"""

from __future__ import annotations

import math


def hmean(values):
    """Harmonic mean, the paper's aggregate for MIPS figures."""
    values = list(values)
    if not values:
        raise ValueError("hmean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("hmean requires positive values")
    return len(values) / sum(1.0 / v for v in values)


def mean(values):
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def mean_abs(values):
    """Mean of absolute values (average |error| summaries)."""
    return mean(abs(v) for v in values)


def stdev(values):
    values = list(values)
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (len(values) - 1))
