"""Table I of the paper: applications, datasets, and job specifications.

The four classical-ML applications and their datasets, with the input
and model sizes published in Table I.  Per-application *cost
coefficients* translate those sizes into per-iteration compute work,
communication volume, and memory footprints; they are calibrated so the
workload reproduces the published characteristics of Fig. 9 (iteration
times of 0–20 minutes and computation ratios spread across ~0.1–0.95 at
DoP 16) — see ``repro/workloads/costmodel.py`` for the physics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import WorkloadError


@dataclass(frozen=True)
class AppSpec:
    """One ML application and its resource-cost coefficients.

    ``comp_machine_seconds_per_gb`` is the CPU work of one iteration per
    GB of input data, expressed in machine-seconds: a group of ``m``
    machines finishes the COMP step of a job in
    ``comp_machine_seconds_per_gb * input_gb * compute_scale / m``
    seconds (the paper's Eq. 2: ``T_cpu ∝ 1/m``).
    """

    name: str
    domain: str
    #: Machine-seconds of COMP work per GB of input per iteration.
    comp_machine_seconds_per_gb: float
    #: Fraction of the model actually moved per PULL (and per PUSH):
    #: sparse/partitioned access patterns move less than the full model.
    traffic_fraction: float
    #: Worker-side parameter cache as a fraction of the model size
    #: (Bösen-style systems only cache the rows touched by the current
    #: mini-batch, a small slice of multi-GB models).
    worker_cache_fraction: float = 0.05
    #: Working-set (intermediate results) fraction of resident data.
    workspace_fraction: float = 0.10
    #: In-memory expansion of the on-disk input (managed-runtime object
    #: overhead; the paper's system is JVM-based).
    memory_expansion: float = 1.5


@dataclass(frozen=True)
class DatasetSpec:
    """One dataset with the sizes published in Table I (in GBs)."""

    name: str
    input_gb: float
    model_gb: float


# --- Table I ----------------------------------------------------------
# Cost coefficients per application.  LDA's collapsed Gibbs sweep is far
# more CPU-heavy per input byte than the matrix workloads; Lasso's
# coordinate updates are the cheapest and move sparse deltas.

NMF = AppSpec(
    name="NMF", domain="recommendation",
    comp_machine_seconds_per_gb=30.0, traffic_fraction=1.0)
LDA = AppSpec(
    name="LDA", domain="topic-modeling",
    comp_machine_seconds_per_gb=400.0, traffic_fraction=0.8)
MLR = AppSpec(
    name="MLR", domain="classification",
    comp_machine_seconds_per_gb=40.0, traffic_fraction=1.0)
LASSO = AppSpec(
    name="Lasso", domain="regression",
    comp_machine_seconds_per_gb=20.0, traffic_fraction=0.5)

APPS: dict[str, AppSpec] = {app.name: app for app in (NMF, LDA, MLR, LASSO)}

#: Table I datasets, keyed by application name.
DATASETS: dict[str, tuple[DatasetSpec, ...]] = {
    "NMF": (DatasetSpec("Netflix64x", 45.6, 1.0),
            DatasetSpec("Netflix128x", 91.2, 5.0)),
    "LDA": (DatasetSpec("PubMed", 4.3, 2.1),
            DatasetSpec("NYTimes", 0.6, 1.1)),
    "MLR": (DatasetSpec("Synthetic78", 78.4, 12.0),
            DatasetSpec("Synthetic155", 155.0, 24.0)),
    "Lasso": (DatasetSpec("Synthetic78", 78.4, 12.0),
              DatasetSpec("Synthetic155", 155.0, 24.0)),
}


@dataclass(frozen=True)
class JobSpec:
    """One training job: an (app, dataset, hyper-parameters) tuple.

    ``compute_scale`` and ``model_scale`` encode the effect of the
    hyper-parameter choice (number of classes / topics / factor rank) on
    per-iteration compute work and on model size, relative to the
    dataset's published base model.  ``iterations`` is the number of
    iterations until the objective crosses its convergence threshold.
    """

    job_id: str
    app: AppSpec
    dataset: DatasetSpec
    compute_scale: float = 1.0
    model_scale: float = 1.0
    iterations: int = 50
    submit_time: float = 0.0

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise WorkloadError(
                f"job {self.job_id}: iterations must be positive")
        # Stated positively so that NaN fails too.
        if not (0.0 < self.compute_scale < math.inf
                and 0.0 < self.model_scale < math.inf):
            raise WorkloadError(
                f"job {self.job_id}: scales must be finite and positive")
        if not 0.0 <= self.submit_time < math.inf:
            raise WorkloadError(
                f"job {self.job_id}: submit time must be finite and >= 0")

    # -- derived physical quantities ------------------------------------

    @property
    def cpu_work_machine_seconds(self) -> float:
        """Total COMP work of one iteration, in machine-seconds (W_j)."""
        return (self.app.comp_machine_seconds_per_gb
                * self.dataset.input_gb * self.compute_scale)

    @property
    def model_gb(self) -> float:
        """Effective model size under this hyper-parameter choice."""
        return self.dataset.model_gb * self.model_scale

    @property
    def input_gb(self) -> float:
        return self.dataset.input_gb

    @property
    def comm_gb_per_direction(self) -> float:
        """Bytes (in GB) each machine's NIC moves per PULL (= per PUSH)."""
        return self.model_gb * self.app.traffic_fraction

    def describe(self) -> str:
        return (f"{self.job_id}: {self.app.name}/{self.dataset.name} "
                f"cs={self.compute_scale:.2f} ms={self.model_scale:.2f} "
                f"iters={self.iterations}")
