"""Evaluation workload generation.

The paper's base workload is "4 applications each with 2 datasets and 10
different hyper-parameters, resulting [in] the 80 different (app,
dataset, hyper-params) tuples" (§V-B).  :class:`WorkloadGenerator`
produces that set (or a scaled version of it), with hyper-parameter
scales drawn so the workload matches the published Fig. 9
characteristics.  The §V-D sensitivity subsets (top / bottom 60 jobs by
computation ratio) are provided by :func:`comp_intensive_subset` and
:func:`comm_intensive_subset`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import WorkloadError
from repro.sim.rand import RandomStreams
from repro.workloads.apps import APPS, DATASETS, JobSpec
from repro.workloads.costmodel import CostModel

#: The DoP at which the paper characterizes its workload (Fig. 9).
CHARACTERIZATION_DOP = 16


class WorkloadGenerator:
    """Deterministic generator for the paper's evaluation workloads."""

    def __init__(self, seed: int = 2021):
        self.seed = seed
        self._streams = RandomStreams(seed).spawn("workload")

    def base_workload(self, hyper_params_per_pair: int = 10) -> list[JobSpec]:
        """The 80-job base workload (or fewer with a smaller
        ``hyper_params_per_pair`` for scaled-down experiments)."""
        if hyper_params_per_pair < 1:
            raise WorkloadError("need at least one hyper-param per pair")
        rng = self._streams.stream("hyper-params")
        jobs: list[JobSpec] = []
        for app_name, app in sorted(APPS.items()):
            for dataset in DATASETS[app_name]:
                for index in range(hyper_params_per_pair):
                    # Hyper-parameters (classes / topics / rank) scale the
                    # compute work and the model size log-uniformly.
                    compute_scale = float(
                        2.0 ** rng.uniform(-1.0, 1.0))
                    model_scale = float(2.0 ** rng.uniform(-0.7, 0.7))
                    iterations = int(rng.integers(12, 41))
                    jobs.append(JobSpec(
                        job_id=f"{app_name}-{dataset.name}-h{index}",
                        app=app,
                        dataset=dataset,
                        compute_scale=compute_scale,
                        model_scale=model_scale,
                        iterations=iterations))
        return jobs

    def sized_workload(self, n_jobs: int) -> list[JobSpec]:
        """An arbitrary-size workload cycling over the Table I tuples
        (used for the §V-F scalability experiments with thousands of
        jobs)."""
        if n_jobs < 1:
            raise WorkloadError("need at least one job")
        per_pair = (n_jobs + 7) // 8
        jobs = self.base_workload(hyper_params_per_pair=per_pair)
        return jobs[:n_jobs]


def make_base_workload(seed: int = 2021,
                       hyper_params_per_pair: int = 10) -> list[JobSpec]:
    """Convenience wrapper: the paper's 80-job workload."""
    return WorkloadGenerator(seed).base_workload(hyper_params_per_pair)


def _sorted_by_comp_ratio(jobs: Sequence[JobSpec]) -> list[JobSpec]:
    model = CostModel()
    return sorted(jobs, key=lambda j: model.profile(
        j, CHARACTERIZATION_DOP).comp_ratio)


#: Share of a workload in each of its computation- and
#: communication-intensive subsets (the paper's 60 of 80 jobs, §V-D).
SUBSET_FRACTION = 0.75


def comp_intensive_subset(jobs: Sequence[JobSpec],
                          n: int = 60) -> list[JobSpec]:
    """The ``n`` most computation-heavy jobs (paper: top 60 of 80)."""
    if n > len(jobs):
        raise WorkloadError(f"asked for {n} of {len(jobs)} jobs")
    ordered = _sorted_by_comp_ratio(jobs)
    return ordered[len(jobs) - n:]


def comm_intensive_subset(jobs: Sequence[JobSpec],
                          n: int = 60) -> list[JobSpec]:
    """The ``n`` most communication-heavy jobs (paper: bottom 60 of 80)."""
    if n > len(jobs):
        raise WorkloadError(f"asked for {n} of {len(jobs)} jobs")
    ordered = _sorted_by_comp_ratio(jobs)
    return ordered[:n]
