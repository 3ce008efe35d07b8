"""§V-D: workload sensitivity to job arrival rates.

Poisson arrivals with mean inter-arrival time swept from 0 (all at
once, the main experiment) to 8 minutes, plus Google-trace-like bursty
windows.  Paper: speedups decline only mildly (2.11x/1.60x at 0 ->
2.01x/1.56x at 8 minutes; traces average 2.02x/1.57x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.isolated import IsolatedRuntime
from repro.core.runtime import HarmonyRuntime
from repro.experiments.common import scaled_workload
from repro.metrics.reporting import format_table
from repro.workloads.arrivals import poisson_arrivals, with_arrival_times
from repro.workloads.traces import google_trace_arrivals


@dataclass
class ArrivalRow:
    label: str
    jct_speedup: float
    makespan_speedup: float


@dataclass
class SensitivityArrivalResult:
    rows: list[ArrivalRow]


def _measure(label: str, workload, n_machines: int) -> ArrivalRow:
    isolated = IsolatedRuntime(n_machines, workload).run()
    harmony = HarmonyRuntime(n_machines, workload).run()
    return ArrivalRow(label=label,
                      jct_speedup=isolated.mean_jct / harmony.mean_jct,
                      makespan_speedup=(isolated.makespan
                                        / harmony.makespan))


def run(scale: float = 1.0, seed: int = 2021,
        mean_arrival_minutes: tuple[float, ...] = (0.0, 4.0, 8.0),
        n_trace_windows: int = 2) -> SensitivityArrivalResult:
    base_workload, n_machines = scaled_workload(scale, seed)
    rows = []
    for mean_minutes in mean_arrival_minutes:
        times = poisson_arrivals(len(base_workload),
                                 mean_minutes * 60.0, seed=seed)
        workload = with_arrival_times(base_workload, times)
        rows.append(_measure(f"poisson {mean_minutes:.0f} min",
                             workload, n_machines))
    trace_rows = []
    for window in range(n_trace_windows):
        times = google_trace_arrivals(len(base_workload),
                                      mean_interarrival_seconds=120.0,
                                      window_index=window, seed=seed)
        workload = with_arrival_times(base_workload, times)
        trace_rows.append(_measure(f"trace window {window}",
                                   workload, n_machines))
    if trace_rows:
        rows.append(ArrivalRow(
            label="google traces (avg)",
            jct_speedup=float(np.mean([r.jct_speedup
                                       for r in trace_rows])),
            makespan_speedup=float(np.mean([r.makespan_speedup
                                            for r in trace_rows]))))
    return SensitivityArrivalResult(rows=rows)


def report(result: SensitivityArrivalResult) -> str:
    """Render the paper-style rows for this exhibit."""
    return format_table(
        ["arrival process", "JCT speedup", "makespan speedup"],
        [(r.label, f"{r.jct_speedup:.2f}", f"{r.makespan_speedup:.2f}")
         for r in result.rows],
        title="§V-D arrival sensitivity (paper: 2.11/1.60 at batch, "
              "2.01/1.56 at 8 min, 2.02/1.57 on traces)")
