"""CSV export: one table writer and the trace counters.

Kept dependency-free (``csv`` from the standard library).
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from pathlib import Path
from typing import Any


def write_csv(path: "str | Path", headers: Sequence[str],
              rows: Sequence[Sequence[Any]]) -> Path:
    """Write one table; returns the resolved path."""
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row with {len(row)} cells under {len(headers)} headers")
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        writer.writerows(rows)
    return target


def export_counters(path: "str | Path", tracer) -> Path:
    """The trace layer's metrics registry (final values) to CSV."""
    from repro.trace.export import counter_rows
    return write_csv(path, ["kind", "name", "value"], counter_rows(tracer))

