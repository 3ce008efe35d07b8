"""CSV export of experiment results.

Every experiment driver's structured result can be flattened to CSV so
downstream users can plot the figures with their own tooling.  Kept
dependency-free (``csv`` from the standard library).
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


def export_timeline(path: "str | Path", timeline) -> Path:
    """One utilization timeline (Fig. 11-style) to CSV."""
    rows = [(f"{minute:.1f}", f"{value:.4f}")
            for minute, value in zip(timeline.times_minutes,
                                     timeline.values, strict=True)]
    return write_csv(path, ["minute", "utilization"], rows)


def export_cdf(path: "str | Path", values: Sequence[float]) -> Path:
    """An empirical CDF (Figs. 9/12-style) to CSV."""
    from repro.metrics.stats import cdf_points
    xs, ys = cdf_points(values)
    rows = [(f"{x:.6g}", f"{y:.6f}") for x, y in zip(xs, ys, strict=True)]
    return write_csv(path, ["value", "cumulative_fraction"], rows)


def export_fault_log(path: "str | Path", log) -> Path:
    """One row per injected fault: detection latency, lost iterations,
    re-run work, and worst per-job recovery time."""
    return write_csv(path, list(log.CSV_HEADERS), log.rows())


def export_counters(path: "str | Path", tracer) -> Path:
    """The trace layer's metrics registry (final values) to CSV."""
    from repro.trace.export import counter_rows
    return write_csv(path, ["kind", "name", "value"], counter_rows(tracer))


def export_run_result(directory: "str | Path", result) -> list[Path]:
    """Everything plottable from one RunResult: per-job outcomes plus
    CPU/network timelines (and the fault log when faults were
    injected, and the trace counters when tracing was on)."""
    base = Path(directory)
    written = []
    outcome_rows = []
    for outcome in result.outcomes.values():
        outcome_rows.append((
            outcome.job_id, outcome.state.value,
            f"{outcome.submit_time:.1f}",
            "" if outcome.finish_time is None
            else f"{outcome.finish_time:.1f}",
            outcome.migrations))
    written.append(write_csv(
        base / f"{result.scheduler_name}_jobs.csv",
        ["job_id", "state", "submit_s", "finish_s", "migrations"],
        outcome_rows))
    for resource in ("cpu", "net"):
        written.append(export_timeline(
            base / f"{result.scheduler_name}_{resource}_timeline.csv",
            result.utilization_timeline(resource)))
    fault_log = getattr(result, "fault_log", None)
    if fault_log is not None and fault_log.records:
        written.append(export_fault_log(
            base / f"{result.scheduler_name}_faults.csv", fault_log))
    trace = getattr(result, "trace", None)
    if trace is not None:
        written.append(export_counters(
            base / f"{result.scheduler_name}_counters.csv", trace))
    return written
