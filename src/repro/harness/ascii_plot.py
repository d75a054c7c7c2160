"""Minimal terminal plotting for figure output."""

from __future__ import annotations

from typing import Sequence, Tuple


def line_plot(
    series: Sequence[Tuple[float, float]],
    height: int = 12,
    width: int = 70,
    title: str = "",
) -> str:
    """Scatter/line plot of (x, y) points on a character grid."""
    points = list(series)
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in points:
        col = int((x - x_lo) / x_span * (width - 1))
        row = height - 1 - int((y - y_lo) / y_span * (height - 1))
        grid[row][col] = "*"
    lines = []
    if title:
        lines.append(title)
    lines.append(f"y: [{y_lo:.3g}, {y_hi:.3g}]")
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(f"x: [{x_lo:.3g}, {x_hi:.3g}]")
    return "\n".join(lines)
