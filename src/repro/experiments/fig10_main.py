"""Fig. 10: the main JCT / makespan comparison (§V-C).

Harmony versus the isolated baseline (speedup 1.0 by definition) and
the naively co-located baseline (best/avg/worst over sampled
groupings).  Paper: naive 1.11x JCT / 1.09x makespan on average with
worst cases below 1x; Harmony 2.11x JCT / 1.60x makespan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.isolated import IsolatedRuntime
from repro.baselines.naive import run_naive_cases
from repro.core.runtime import HarmonyRuntime, RunResult
from repro.experiments.common import scaled_workload
from repro.metrics.reporting import format_table


@dataclass
class Fig10Result:
    isolated: RunResult
    naive_cases: list[RunResult]
    harmony: RunResult

    # -- speedups (isolated = 1.0) -----------------------------------------

    def jct_speedup(self, result: RunResult) -> float:
        return self.isolated.mean_jct / result.mean_jct

    def makespan_speedup(self, result: RunResult) -> float:
        return self.isolated.makespan / result.makespan

    @property
    def naive_jct_speedups(self) -> list[float]:
        return [self.jct_speedup(case) for case in self.naive_cases]

    @property
    def naive_makespan_speedups(self) -> list[float]:
        return [self.makespan_speedup(case) for case in self.naive_cases]

    @property
    def harmony_jct_speedup(self) -> float:
        return self.jct_speedup(self.harmony)

    @property
    def harmony_makespan_speedup(self) -> float:
        return self.makespan_speedup(self.harmony)

    @property
    def utilization_ratio(self) -> float:
        """Harmony / isolated CPU utilization (paper: up to 1.65x)."""
        return (self.harmony.average_utilization("cpu")
                / self.isolated.average_utilization("cpu"))


def run(scale: float = 1.0, seed: int = 2021,
        n_naive_cases: int = 3) -> Fig10Result:
    """Run the experiment; see the module docstring for
    the paper exhibit it reproduces."""
    workload, n_machines = scaled_workload(scale, seed)
    isolated = IsolatedRuntime(n_machines, workload).run()
    naive_cases = run_naive_cases(n_machines, workload,
                                  n_cases=n_naive_cases)
    harmony = HarmonyRuntime(n_machines, workload).run()
    return Fig10Result(isolated=isolated, naive_cases=naive_cases,
                       harmony=harmony)


def report(result: Fig10Result) -> str:
    """Render the paper-style rows for this exhibit."""
    naive_jct = result.naive_jct_speedups
    naive_makespan = result.naive_makespan_speedups
    rows = [
        ("Isolated", "1.00", "1.00"),
        ("Naive (avg [min..max])",
         f"{sum(naive_jct) / len(naive_jct):.2f} "
         f"[{min(naive_jct):.2f}..{max(naive_jct):.2f}]",
         f"{sum(naive_makespan) / len(naive_makespan):.2f} "
         f"[{min(naive_makespan):.2f}..{max(naive_makespan):.2f}]"),
        ("Harmony", f"{result.harmony_jct_speedup:.2f}",
         f"{result.harmony_makespan_speedup:.2f}"),
    ]
    lines = [format_table(
        ["scheduler", "JCT speedup", "makespan speedup"], rows,
        title="Fig. 10 — normalized speedup vs isolated "
              "(paper: naive 1.11/1.09 with worst<1; Harmony 2.11/1.60)")]
    lines.append(
        f"cluster utilization: Harmony "
        f"{result.harmony.average_utilization('cpu'):.1%} CPU / "
        f"{result.harmony.average_utilization('net'):.1%} net vs "
        f"isolated {result.isolated.average_utilization('cpu'):.1%} / "
        f"{result.isolated.average_utilization('net'):.1%} "
        f"(ratio {result.utilization_ratio:.2f}x, paper: 1.65x)")
    lines.append(
        f"Harmony concurrency: {result.harmony.mean_concurrent_jobs():.1f}"
        f" jobs in {result.harmony.mean_concurrent_groups():.1f} groups "
        "(paper: 27.2 jobs, 6.7 groups); regrouping overhead "
        f"{result.harmony.migration_overhead_seconds / result.harmony.makespan:.1%}"
        " of makespan (paper: <2%)")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - manual driver
    print(report(run()))
