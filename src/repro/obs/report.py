"""Plain-text table rendering for the benchmark harness.

Every bench prints the series the paper's claim predicts as an aligned
ASCII table, so ``pytest benchmarks/ --benchmark-only`` output doubles
as the EXPERIMENTS.md evidence.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

__all__ = ["format_table", "Table"]


def _render_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned table with a rule under the header."""
    rendered = [[_render_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        header.ljust(width) for header, width in zip(headers, widths)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered:
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


class Table:
    """Incrementally built table; ``print(table)`` renders it."""

    def __init__(self, title: str, headers: Sequence[str]) -> None:
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[Any]] = []

    def add_row(self, *cells: Any) -> None:
        self.rows.append(list(cells))

    def to_payload(self) -> dict:
        """The table as a JSON-ready mapping (for ``*.metrics.json``)."""
        return {
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
        }

    def __str__(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)
