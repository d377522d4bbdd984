"""Rendering experiment results as aligned text tables.

The paper has no numeric tables of its own, so these renderers produce
the tables the CLI, study reports and benchmarks print: one row per
parameter point, columns for measured statistics and the paper's
predicted scale, plus fitted-exponent footers for the scaling sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["Table", "format_table"]


@dataclass
class Table:
    """A simple column-aligned text table with a title and footnotes."""

    title: str
    columns: Sequence
    rows: list = field(default_factory=list)
    footnotes: list = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells; table has {len(self.columns)} columns"
            )
        self.rows.append(tuple(_format_cell(v) for v in values))

    def add_footnote(self, text: str) -> None:
        self.footnotes.append(text)

    def render(self) -> str:
        return format_table(self.title, self.columns, self.rows, self.footnotes)

    def __str__(self) -> str:
        return self.render()


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def format_table(title, columns, rows, footnotes=()) -> str:
    """Render rows as an aligned monospace table."""
    header = [str(c) for c in columns]
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def _line(cells):
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
    lines = [title, rule, _line(header), rule]
    lines.extend(_line(row) for row in rows)
    lines.append(rule)
    lines.extend(f"  * {note}" for note in footnotes)
    return "\n".join(lines)
