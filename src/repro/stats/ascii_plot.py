"""Plain-text figure rendering: line plots for the benches.

The paper's figures are plots; benchmarks regenerate them as text so
results diff cleanly with no plotting stack.  These renderers draw
fixed-size character grids with labelled axes; one glyph per series.
"""

from __future__ import annotations

GLYPHS = "ox+*#@%&"


def _scale(value, lo, hi, size):
    if hi <= lo:
        return 0
    pos = int(round((value - lo) / (hi - lo) * (size - 1)))
    return min(max(pos, 0), size - 1)


def line_plot(series, width=64, height=16, x_label="x", y_label="y",
              title=None, logy=False):
    """Render ``{name: [(x, y), ...]}`` as an ASCII plot.

    ``logy`` plots log10(y) (for Figure 2's log-scale fractions).
    """
    import math

    points = []
    for values in series.values():
        for x, y in values:
            if logy:
                y = math.log10(max(y, 1e-12))
            points.append((x, y))
    if not points:
        return "(empty plot)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if ylo == yhi:
        ylo, yhi = ylo - 1, yhi + 1
    grid = [[" "] * width for _ in range(height)]
    for idx, (name, values) in enumerate(series.items()):
        glyph = GLYPHS[idx % len(GLYPHS)]
        for x, y in values:
            if logy:
                import math as _m
                y = _m.log10(max(y, 1e-12))
            col = _scale(x, xlo, xhi, width)
            row = height - 1 - _scale(y, ylo, yhi, height)
            grid[row][col] = glyph
    lines = []
    if title:
        lines.append(title)
    y_top = "%.3g" % (10 ** yhi if logy else yhi)
    y_bot = "%.3g" % (10 ** ylo if logy else ylo)
    label_width = max(len(y_top), len(y_bot), len(y_label)) + 1
    for row_idx, row in enumerate(grid):
        if row_idx == 0:
            label = y_top
        elif row_idx == height - 1:
            label = y_bot
        elif row_idx == height // 2:
            label = y_label
        else:
            label = ""
        lines.append(label.rjust(label_width) + " |" + "".join(row))
    lines.append(" " * label_width + " +" + "-" * width)
    x_axis = ("%g" % xlo) + (" " * max(1, width - len("%g" % xlo)
                                       - len("%g" % xhi))) + ("%g" % xhi)
    lines.append(" " * (label_width + 2) + x_axis + "  (%s)" % x_label)
    legend = "  ".join("%s=%s" % (GLYPHS[i % len(GLYPHS)], name)
                       for i, name in enumerate(series))
    lines.append(" " * (label_width + 2) + legend)
    return "\n".join(lines)
