"""Binned time-series built from resource busy segments."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.sim.resources import BusySegment


def bin_segments(segments: Iterable[BusySegment], t_end: float,
                 bin_seconds: float, t_start: float = 0.0,
                 weight: float = 1.0) -> np.ndarray:
    """Integrate utilization segments into fixed-width bins.

    Returns, per bin, the average level times ``weight`` (e.g. the
    machine count the segments represent).  Bins cover
    ``[t_start, t_end)``.
    """
    if bin_seconds <= 0:
        raise ValueError(f"bin width must be positive, got {bin_seconds}")
    span = max(0.0, t_end - t_start)
    n_bins = max(1, int(np.ceil(span / bin_seconds)))
    acc = np.zeros(n_bins)
    for segment in segments:
        lo = max(segment.start, t_start)
        hi = min(segment.end, t_end)
        if hi <= lo or segment.level <= 0:
            continue
        first = int((lo - t_start) // bin_seconds)
        last = min(int(np.ceil((hi - t_start) / bin_seconds)), n_bins)
        # Each touched bin contributes its overlap with [lo, hi): the
        # vectorized form clips the segment against every bin edge at
        # once (a long segment over fine bins was O(bins) in Python).
        edges = t_start + bin_seconds * np.arange(first, last + 1)
        overlap = (np.minimum(hi, edges[1:])
                   - np.maximum(lo, edges[:-1])).clip(min=0.0)
        acc[first:last] += overlap * (segment.level * weight)
    return acc / bin_seconds


@dataclass
class Timeline:
    """A binned utilization time series (Fig. 11-style)."""

    bin_seconds: float
    values: np.ndarray
    label: str = ""

    def average_until(self, t_seconds: float) -> float:
        """Average over bins that start before ``t_seconds`` (e.g. the
        makespan, so the post-completion tail does not dilute)."""
        n = max(1, int(np.ceil(t_seconds / self.bin_seconds)))
        head = self.values[:n]
        return float(np.mean(head)) if len(head) else 0.0

