"""Plain-text table renderer for the benchmark harness.

The benchmark scripts regenerate every table of the paper as aligned
ASCII text, so results diff cleanly and need no plotting stack.
"""

from __future__ import annotations


def format_table(headers, rows, title=None):
    """Render an aligned ASCII table. Cells are stringified with str()."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(str(h)) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value):
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return "%.0f" % value
        if abs(value) >= 1:
            return "%.2f" % value
        return "%.4f" % value
    return str(value)
