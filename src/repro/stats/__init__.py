"""Statistics: hierarchical counters, metric aggregation, reporting.

A run builds only the :class:`StatsNode` tree.  The rest is imported
from its module: :mod:`repro.stats.aggregate` (means, errors, confidence
intervals), :mod:`repro.stats.reporting` (``format_table``),
:mod:`repro.stats.ascii_plot` (``line_plot``) and
:mod:`repro.stats.diff` (the stats-tree equivalence oracle).
"""

from repro.stats.counters import StatsNode

__all__ = ["StatsNode"]
