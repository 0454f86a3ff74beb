"""Paper-style table rendering for the benchmark harness.

Every figure's table builder (``repro.bench.figures``) renders its data
as an aligned text table (the rows and series the paper plots) so
EXPERIMENTS.md can record paper-vs-measured side by side.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "format_bytes"]


def format_bytes(value: float) -> str:
    """Human-friendly byte counts (the log-scale axes of Figs. 2(d), 4(c))."""
    if value < 1024:
        return f"{value:.0f} B"
    if value < 1024 * 1024:
        return f"{value / 1024:.1f} KB"
    return f"{value / (1024 * 1024):.2f} MB"


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """Render an aligned text table with a title rule."""
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value != 0 and (abs(value) >= 1e6 or abs(value) < 1e-3):
            return f"{value:.3g}"
        return f"{value:,.2f}"
    return str(value)
