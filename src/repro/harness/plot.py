"""ASCII charts for experiment output.

The CLI prints the paper's figures as tables; ``repro sweep`` adds a
quick visual shape — a multi-series line chart for Figure 5/6-style
sweeps — with no plotting dependency.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


def line_chart(series: Dict[str, List[Tuple[float, float]]],
               title: str = "", width: int = 60, height: int = 16,
               x_label: str = "", y_label: str = "") -> str:
    """Multi-series scatter/line chart on a character grid.

    ``series``: name -> [(x, y)] — each series gets its own marker.
    """
    markers = "*o+x@%&"
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1

    grid = [[" "] * width for _ in range(height)]

    def place(x: float, y: float, ch: str) -> None:
        col = round((x - x0) / (x1 - x0) * (width - 1))
        row = height - 1 - round((y - y0) / (y1 - y0) * (height - 1))
        grid[row][col] = ch

    legend = []
    for (name, pts), marker in zip(series.items(), markers):
        legend.append(f"{marker} {name}")
        for x, y in pts:
            place(x, y, marker)

    lines = [title] if title else []
    lines.append(f"{y1:>10.3g} ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 10 + " │" + "".join(row))
    lines.append(f"{y0:>10.3g} ┤" + "".join(grid[-1]))
    lines.append(" " * 12 + "└" + "─" * width)
    lines.append(f"{'':12}{x0:<10.3g}{x_label:^{max(0, width - 20)}}"
                 f"{x1:>10.3g}")
    lines.append("  legend: " + "   ".join(legend))
    return "\n".join(lines)
