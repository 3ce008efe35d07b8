"""The *naively co-located* baseline (§V-A).

"The naively co-located baseline naively shares resources between the
co-located jobs ... the different combinations of jobs and the
different allocations of resources cause greater variance in the
performance ... This baseline represents the approach introduced in
Gandiva, which has no fine coordination between co-located jobs and an
analytical basis for job grouping."

Jobs are packed ``group_size`` at a time in queue order (shuffled per
seed to sample the "all possible cases" the paper sweeps); inside a
group their subtasks contend via processor sharing with an interference
penalty, and there is no data spilling — exceeding memory is an OOM
failure, exactly the Fig. 4 behaviour.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.baselines.base import BaselineRuntime
from repro.config import DEFAULT_SIM_CONFIG, SimConfig
from repro.core.group_runtime import ExecutionMode
from repro.core.runtime import RunResult
from repro.policies.queueing import packed_fifo
from repro.workloads.apps import JobSpec
from repro.workloads.costmodel import CostModel


class NaiveRuntime(BaselineRuntime):
    """Uncoordinated co-location (Gandiva style)."""

    def __init__(self, n_machines: int, workload: Sequence[JobSpec],
                 config: SimConfig = DEFAULT_SIM_CONFIG,
                 group_size: int = 2,
                 shuffle_seed: int | None = 0,
                 dop_scale: float = 0.4,
                 cost_model: CostModel | None = None):
        super().__init__(n_machines, workload,
                         mode=ExecutionMode.NAIVE,
                         name="naive",
                         policy=packed_fifo(group_size=group_size),
                         config=config,
                         shuffle_seed=shuffle_seed,
                         dop_scale=dop_scale,
                         cost_model=cost_model)


def run_naive_cases(n_machines: int, workload: Sequence[JobSpec],
                    config: SimConfig = DEFAULT_SIM_CONFIG,
                    n_cases: int = 5,
                    group_sizes: Sequence[int] = (2, 2, 3)) -> \
        list[RunResult]:
    """Sample several naive groupings, as §V-A "run[s] all possible
    cases, and report[s] the best and the worst case".

    Exhaustively enumerating every grouping of 80 jobs is intractable;
    sampled shuffles across several co-location degrees reproduce the
    best/avg/worst spread of Fig. 10.
    """
    results = []
    rng = np.random.default_rng(config.seed)
    for case in range(n_cases):
        group_size = int(group_sizes[case % len(group_sizes)])
        seed = int(rng.integers(0, 2**31 - 1))
        runtime = NaiveRuntime(n_machines, workload, config=config,
                               group_size=group_size, shuffle_seed=seed)
        results.append(runtime.run())
    return results


def best_and_worst(results: Sequence[RunResult],
                   baseline_jct: float) -> tuple[RunResult, RunResult]:
    """The best/worst cases by JCT speedup (the Fig. 10 error bar)."""
    if not results:
        raise ValueError("no naive cases to compare")
    ordered = sorted(results, key=lambda r: baseline_jct / r.mean_jct)
    return ordered[-1], ordered[0]
