"""Workload substrate: Table I applications, the 80-job evaluation
workload, arrival processes, and the ground-truth iteration cost model.
"""

from repro.workloads.apps import (
    APPS,
    AppSpec,
    DATASETS,
    DatasetSpec,
    JobSpec,
    LASSO,
    LDA,
    MLR,
    NMF,
)
from repro.workloads.arrivals import (
    batch_arrivals,
    poisson_arrivals,
    with_arrival_times,
)
from repro.workloads.costmodel import CostModel, IterationProfile
from repro.workloads.generator import (
    WorkloadGenerator,
    comm_intensive_subset,
    comp_intensive_subset,
    make_base_workload,
)
from repro.workloads.traces import google_trace_arrivals

__all__ = [
    "APPS",
    "DATASETS",
    "AppSpec",
    "CostModel",
    "DatasetSpec",
    "IterationProfile",
    "JobSpec",
    "LASSO",
    "LDA",
    "MLR",
    "NMF",
    "WorkloadGenerator",
    "batch_arrivals",
    "comm_intensive_subset",
    "comp_intensive_subset",
    "google_trace_arrivals",
    "make_base_workload",
    "poisson_arrivals",
    "with_arrival_times",
]
