"""Fig. 11: cluster utilization over time, Harmony vs isolated.

The paper's timelines show Harmony holding high, steady CPU/network
utilization with an earlier makespan line, while the isolated baseline
fluctuates around ~50% CPU for much longer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.isolated import IsolatedRuntime
from repro.core.runtime import HarmonyRuntime, RunResult
from repro.experiments.common import scaled_workload
from repro.metrics.timeline import Timeline


@dataclass
class Fig11Result:
    isolated: RunResult
    harmony: RunResult

    def timeline(self, which_system: str, which_resource: str) -> Timeline:
        run_result = self.harmony if which_system == "harmony" \
            else self.isolated
        return run_result.utilization_timeline(which_resource)


def run(scale: float = 1.0, seed: int = 2021) -> Fig11Result:
    """Run the experiment; see the module docstring for
    the paper exhibit it reproduces."""
    workload, n_machines = scaled_workload(scale, seed)
    isolated = IsolatedRuntime(n_machines, workload).run()
    harmony = HarmonyRuntime(n_machines, workload).run()
    return Fig11Result(isolated=isolated, harmony=harmony)


#: Characters in one rendered timeline.
_SPARKLINE_WIDTH = 60


def _sparkline(values: np.ndarray) -> str:
    """Coarse ASCII rendering of a 0..1 series."""
    if len(values) == 0:
        return ""
    chunks = np.array_split(values, min(_SPARKLINE_WIDTH, len(values)))
    blocks = " .:-=+*#%@"
    return "".join(
        blocks[min(len(blocks) - 1,
                   int(np.clip(np.mean(chunk), 0, 1) * (len(blocks) - 1)))]
        for chunk in chunks)


def report(result: Fig11Result) -> str:
    """Render the paper-style rows for this exhibit."""
    lines = ["Fig. 11 — utilization timelines (1-minute bins)"]
    for system in ("isolated", "harmony"):
        run_result = getattr(result, system)
        for resource in ("cpu", "net"):
            timeline = result.timeline(system, resource)
            lines.append(
                f"{system:8s} {resource:3s} "
                f"avg={timeline.average_until(run_result.makespan):.1%} "
                f"|{_sparkline(timeline.values)}| "
                f"makespan={run_result.makespan / 60:.0f} min")
    lines.append(
        "paper: Harmony 93.2% CPU / 83.1% net on a ~1100-min makespan; "
        "isolated ~55% CPU on a ~1770-min makespan")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - manual driver
    print(report(run()))
