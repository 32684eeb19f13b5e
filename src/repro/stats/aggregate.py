"""Aggregation helpers used throughout the evaluation.

These implement the exact metrics the paper reports: IPC, misses per
thousand instructions (MPKI), relative performance error, harmonic-mean
MIPS, and the repeat-until-tight-confidence-interval methodology of
Section 4.1.
"""

from __future__ import annotations

import math


def ipc(instructions, cycles):
    """Instructions per cycle."""
    if cycles <= 0:
        return 0.0
    return instructions / cycles


def mpki(misses, instructions):
    """Misses per thousand instructions."""
    if instructions <= 0:
        return 0.0
    return 1000.0 * misses / instructions


def perf_error(simulated, real):
    """Relative performance error, positive = simulator overestimates.

    ``perf_error = (perf_sim - perf_real) / perf_real`` (Section 4.1).
    """
    if real == 0:
        raise ValueError("Real performance must be nonzero")
    return (simulated - real) / real


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


# Two-sided 95% t critical values for small sample sizes (df 1..30).
_T95 = [12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
        2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
        2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
        2.048, 2.045, 2.042]


def confidence_interval_95(values):
    """Half-width of the 95% confidence interval on the mean."""
    values = list(values)
    n = len(values)
    if n < 2:
        return float("inf")
    t = _T95[min(n - 1, len(_T95)) - 1]
    return t * stdev(values) / math.sqrt(n)


def run_until_tight(run, max_runs=20, min_runs=3, rel_halfwidth=0.01):
    """Repeat ``run()`` until the 95% CI of its mean is within
    ``rel_halfwidth`` of the mean, as the paper's validation methodology
    requires ("until every relevant metric has a 95% confidence interval
    of at most 1%").  Returns (mean, list_of_samples)."""
    samples = []
    while len(samples) < max_runs:
        samples.append(run())
        if len(samples) >= min_runs:
            mu = mean(samples)
            if mu == 0 or confidence_interval_95(samples) <= abs(
                    mu) * rel_halfwidth:
                break
    return mean(samples), samples
