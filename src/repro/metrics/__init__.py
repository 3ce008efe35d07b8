"""Measurement: utilization timelines, run statistics, paper-style reports."""

from repro.metrics.faults import FaultLog, FaultRecord, FaultSummary
from repro.metrics.reporting import format_table
from repro.metrics.stats import cdf_points
from repro.metrics.timeline import Timeline, bin_segments
from repro.metrics.utilization import (
    ClusterUsageRecorder,
    DecisionRecord,
    GroupUsage,
)

__all__ = [
    "ClusterUsageRecorder",
    "DecisionRecord",
    "FaultLog",
    "FaultRecord",
    "FaultSummary",
    "GroupUsage",
    "Timeline",
    "bin_segments",
    "cdf_points",
    "format_table",
]
