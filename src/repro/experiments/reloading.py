"""§V-G: dynamic data reloading micro-benchmark.

8 jobs (4 apps x 2 datasets) co-located on 32 machines, with the sum of
inputs exceeding the machines' memory.  A fixed disk-block ratio alpha
is swept — too low melts the group in GC ("GC explodes"), too high
stalls COMP on disk reads — and Harmony's per-job hill climbing is
compared against the best fixed value.  Paper: fixed-alpha minimum
52.9 s at alpha=0.3; adaptive reaches 44.3 s (16.3% better) because it
"can dynamically adjust the ratio using different ratios for each job";
main-run alphas average 0.34 (min 0.11, max 1.0).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.config import DEFAULT_SIM_CONFIG
from repro.experiments.common import SingleGroupResult, run_single_group
from repro.metrics.reporting import format_table
from repro.workloads.generator import WorkloadGenerator

#: "we run 8 jobs (4 apps * 2 datasets) on 32 EC2 instances".
_MACHINES = 32
_ITERATIONS = 10


@dataclass
class ReloadingResult:
    fixed_rows: list[tuple[float, float]]  # (alpha, mean iteration s)
    adaptive_iteration_seconds: float
    adaptive: SingleGroupResult
    adaptive_alphas: np.ndarray

    @property
    def best_fixed(self) -> tuple[float, float]:
        return min(self.fixed_rows, key=lambda row: row[1])

    @property
    def adaptive_gain(self) -> float:
        """Relative improvement of adaptive over the best fixed alpha."""
        _, best_seconds = self.best_fixed
        return (best_seconds - self.adaptive_iteration_seconds) \
            / best_seconds

    def alpha_stats(self) -> tuple[float, float, float]:
        if self.adaptive_alphas.size == 0:
            return (0.0, 0.0, 0.0)
        return (float(self.adaptive_alphas.mean()),
                float(self.adaptive_alphas.min()),
                float(self.adaptive_alphas.max()))


#: The paper's §V-G iterations are mini-batch granular (their optimum
#: sits at 44-53 s); scaling per-iteration compute/communication down
#: (inputs and memory footprints unchanged!) reproduces that regime,
#: where one iteration's reload window is genuinely tight.
_MINIBATCH_SCALE = 0.08


def _workload(seed: int):
    jobs = WorkloadGenerator(seed).base_workload(hyper_params_per_pair=1)
    return [replace(job,
                    compute_scale=job.compute_scale * _MINIBATCH_SCALE,
                    model_scale=job.model_scale * _MINIBATCH_SCALE)
            for job in jobs]


def _group_run(alpha, seed: int):
    config = replace(DEFAULT_SIM_CONFIG, memory=replace(
        DEFAULT_SIM_CONFIG.memory, fixed_alpha=alpha))
    return run_single_group(_workload(seed), _MACHINES, config=config,
                            max_iterations=_ITERATIONS)


def run(seed: int = 2021,
        alphas: tuple[float, ...] = (0.1, 0.2, 0.3, 0.5, 0.7, 0.9)
        ) -> ReloadingResult:
    fixed_rows = []
    for alpha in alphas:
        result = _group_run(alpha, seed)
        fixed_rows.append((alpha, result.mean_iteration_seconds))

    # Adaptive: fixed_alpha None = per-job hill climbing.  Run the
    # group directly (not via run_single_group) to keep the alpha trace.
    from repro.core.group_runtime import ExecutionMode, GroupRuntime
    from repro.core.job import Job, JobState
    from repro.sim import RandomStreams, Simulator
    from repro.workloads.costmodel import CostModel
    from repro.experiments.common import _CollectingHooks

    config = DEFAULT_SIM_CONFIG
    simulator = Simulator()
    hooks = _CollectingHooks()
    group = GroupRuntime(simulator, "vg", tuple(range(_MACHINES)),
                         ExecutionMode.HARMONY, CostModel(config.machine),
                         config, RandomStreams(config.seed), hooks)
    for spec in _workload(seed):
        spec = replace(spec, iterations=min(spec.iterations, _ITERATIONS))
        job = Job(spec)
        job.state = JobState.RUNNING
        group.add_job(job)
    simulator.run()
    durations = [c.duration for c in group.cycles]
    adaptive_seconds = float(np.mean(durations)) if durations else 0.0
    adaptive = SingleGroupResult(
        job_ids=tuple(), n_machines=_MACHINES,
        cpu_utilization=0.0, net_utilization=0.0,
        mean_iteration_seconds=adaptive_seconds,
        duration_seconds=simulator.now)
    alphas_seen = np.array([c.alpha for c in group.cycles])
    return ReloadingResult(fixed_rows=fixed_rows,
                           adaptive_iteration_seconds=adaptive_seconds,
                           adaptive=adaptive,
                           adaptive_alphas=alphas_seen)


def report(result: ReloadingResult) -> str:
    """Render the paper-style rows for this exhibit."""
    rows = [(f"fixed alpha={alpha:.1f}", f"{seconds:.1f}")
            for alpha, seconds in result.fixed_rows]
    rows.append(("adaptive (Harmony)",
                 f"{result.adaptive_iteration_seconds:.1f}"))
    lines = [format_table(
        ["configuration", "mean iteration (s)"], rows,
        title="§V-G — dynamic data reloading "
              "(paper: U-shaped in alpha, minimum 52.9 s at 0.3; "
              "adaptive 44.3 s, 16.3% better)")]
    best_alpha, best_seconds = result.best_fixed
    mean_alpha, min_alpha, max_alpha = result.alpha_stats()
    lines.append(f"best fixed alpha {best_alpha:.1f} at "
                 f"{best_seconds:.1f} s; adaptive gain "
                 f"{result.adaptive_gain:+.1%}")
    lines.append(f"adaptive alpha: mean {mean_alpha:.2f}, min "
                 f"{min_alpha:.2f}, max {max_alpha:.2f} "
                 "(paper main run: mean 0.34, min 0.11, max 1.0)")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - manual driver
    print(report(run()))
