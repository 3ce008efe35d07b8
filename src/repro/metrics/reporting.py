"""Plain-text report rendering for the experiment drivers.

Every experiment prints the rows/series the paper reports; this module
keeps the formatting consistent (and testable) across them.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: str = "") -> str:
    """Render an aligned ASCII table."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError(
                f"row has {len(row)} cells, expected {columns}: {row}")
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [max(len(headers[i]), *(len(r[i]) for r in cells))
              if cells else len(headers[i]) for i in range(columns)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i])
                           for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i])
                               for i in range(columns)))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
