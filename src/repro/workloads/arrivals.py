"""Job arrival processes for the §V-D sensitivity experiments.

The paper submits jobs "with arrival times that follow a Poisson
distribution, increasing the mean job arrival time from 0 to 8 minutes";
mean 0 means all jobs arrive at once (the main §V-C experiment).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.apps import JobSpec


def batch_arrivals(n_jobs: int) -> list[float]:
    """All jobs submitted at time zero (the main experiment)."""
    if n_jobs < 0:
        raise WorkloadError(f"negative job count {n_jobs}")
    return [0.0] * n_jobs


def poisson_arrivals(n_jobs: int, mean_interarrival_seconds: float,
                     seed: int = 0) -> list[float]:
    """Arrival times of a Poisson process.

    ``mean_interarrival_seconds == 0`` degenerates to batch arrivals,
    matching the paper's "0 arrival time means we submit all jobs at
    once".
    """
    if n_jobs < 0:
        raise WorkloadError(f"negative job count {n_jobs}")
    if mean_interarrival_seconds < 0:
        raise WorkloadError("negative mean inter-arrival time")
    if mean_interarrival_seconds == 0:
        return batch_arrivals(n_jobs)
    gaps = np.random.default_rng(seed).exponential(
        mean_interarrival_seconds, size=n_jobs)
    times = np.cumsum(gaps)
    times[0] = 0.0  # the first job opens the experiment
    return [float(t) for t in times]


def with_arrival_times(jobs: Sequence[JobSpec],
                       arrival_times: Sequence[float]) -> list[JobSpec]:
    """Jobs re-stamped with the given submit times (same order)."""
    if len(jobs) != len(arrival_times):
        raise WorkloadError(
            f"{len(jobs)} jobs but {len(arrival_times)} arrival times")
    stamped = []
    for job, when in zip(jobs, arrival_times, strict=True):
        if when < 0:
            raise WorkloadError(f"negative arrival time {when}")
        stamped.append(replace(job, submit_time=float(when)))
    return stamped
