"""Ground-truth cost model: job physics on a given machine type.

This module answers, for a :class:`~repro.workloads.apps.JobSpec` run on
``m`` machines: how long is each subtask, how much memory is resident
per machine, how many bytes must be reloaded from disk per iteration.

It is the *simulated world*, not the scheduler's knowledge: Harmony only
ever sees the profiled metrics that the runtime measures (with noise) —
exactly as in the paper, where the scheduler works from runtime metrics
(§IV-B1) rather than from an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.allreduce import AllReduceModel
from repro.cluster.disk import DiskModel
from repro.cluster.network import NetworkModel
from repro.config import GB, MachineSpec
from repro.errors import WorkloadError
from repro.workloads.apps import JobSpec


@dataclass(frozen=True)
class IterationProfile:
    """Noise-free subtask durations of one iteration at a given DoP."""

    t_pull: float
    t_comp: float
    t_push: float

    @property
    def t_comm(self) -> float:
        """Total network-subtask time (PULL + PUSH, §IV-A)."""
        return self.t_pull + self.t_push

    @property
    def t_iteration(self) -> float:
        """Sequential iteration time of the job running alone."""
        return self.t_pull + self.t_comp + self.t_push

    @property
    def comp_ratio(self) -> float:
        """Computation time / iteration time (Fig. 9b's metric)."""
        total = self.t_iteration
        return self.t_comp / total if total > 0 else 0.0


class CostModel:
    """Job physics bound to one machine specification.

    ``comm_architecture`` selects how model synchronization happens:
    ``"ps"`` (the paper's focus — PULL and PUSH through parameter
    servers) or ``"allreduce"`` (the §VI extension — one ring
    all-reduce per iteration, no PULL, the model replicated on every
    worker).
    """

    def __init__(self, spec: MachineSpec | None = None,
                 comm_architecture: str = "ps"):
        if comm_architecture not in ("ps", "allreduce"):
            raise WorkloadError(
                f"unknown communication architecture "
                f"{comm_architecture!r}")
        self.spec = spec if spec is not None else MachineSpec()
        self.network = NetworkModel(self.spec)
        self.disk = DiskModel(self.spec)
        self.comm_architecture = comm_architecture
        self._allreduce = AllReduceModel(self.spec)

    # -- subtask durations ----------------------------------------------

    def comp_seconds(self, job: JobSpec, m: int) -> float:
        """COMP duration on ``m`` machines (Eq. 2: T_cpu ∝ 1/m)."""
        self._check_dop(m)
        return job.cpu_work_machine_seconds / m

    def pull_seconds(self, job: JobSpec, m: int = 1) -> float:
        """PULL duration (zero under all-reduce: there are no servers
        to fetch from; synchronization is one fused COMM step)."""
        if self.comm_architecture == "allreduce":
            return 0.0
        return self.network.pull_seconds(job.model_gb * GB,
                                         job.app.traffic_fraction)

    def push_seconds(self, job: JobSpec, m: int = 1) -> float:
        """PUSH duration — or, under all-reduce, the whole ring step."""
        if self.comm_architecture == "allreduce":
            return self._allreduce.sync_seconds(
                job.model_gb * GB * job.app.traffic_fraction, m)
        return self.network.push_seconds(job.model_gb * GB,
                                         job.app.traffic_fraction)

    def profile(self, job: JobSpec, m: int) -> IterationProfile:
        """Noise-free subtask durations of one iteration at DoP ``m``."""
        return IterationProfile(t_pull=self.pull_seconds(job, m),
                                t_comp=self.comp_seconds(job, m),
                                t_push=self.push_seconds(job, m))

    # -- memory footprints (per machine) ---------------------------------

    def input_resident_bytes(self, job: JobSpec, m: int,
                             alpha: float = 0.0) -> float:
        """Memory-side input blocks per machine at disk ratio ``alpha``."""
        self._check_dop(m)
        self._check_alpha(alpha)
        return (job.input_gb * GB * job.app.memory_expansion
                * (1.0 - alpha) / m)

    def model_resident_bytes(self, job: JobSpec, m: int,
                             model_spilled: bool = False) -> float:
        """Model-state bytes resident per machine.

        PS: the server's 1/m partition plus the worker-side parameter
        cache.  All-reduce: a *full* model replica per worker — the
        price of the architecture.  When ``model_spilled`` is True (the
        §IV-C fallback), only the worker cache remains resident; the
        partition/replica lives on disk between the job's iterations.
        """
        self._check_dop(m)
        model_bytes = job.model_gb * GB
        cache = model_bytes * job.app.worker_cache_fraction
        if model_spilled:
            return cache
        if self.comm_architecture == "allreduce":
            return model_bytes + cache
        return model_bytes / m + cache

    def workspace_bytes(self, job: JobSpec, m: int,
                        alpha: float = 0.0) -> float:
        """Intermediate results generated while computing (§II-B)."""
        base = (self.input_resident_bytes(job, m, alpha)
                + job.model_gb * GB * job.app.worker_cache_fraction)
        return base * job.app.workspace_fraction

    def resident_bytes(self, job: JobSpec, m: int, alpha: float = 0.0,
                       model_spilled: bool = False) -> float:
        """Total resident bytes per machine for this job."""
        return (self.input_resident_bytes(job, m, alpha)
                + self.model_resident_bytes(job, m, model_spilled)
                + self.workspace_bytes(job, m, alpha))

    # -- disk traffic ------------------------------------------------------

    def reload_bytes_per_iteration(self, job: JobSpec, m: int,
                                   alpha: float) -> float:
        """Raw disk bytes each machine reloads per iteration (§IV-C)."""
        self._check_dop(m)
        self._check_alpha(alpha)
        return job.input_gb * GB * alpha / m

    def reload_seconds_per_iteration(self, job: JobSpec, m: int,
                                     alpha: float) -> float:
        return self.disk.read_seconds(
            self.reload_bytes_per_iteration(job, m, alpha))

    def checkpoint_bytes(self, job: JobSpec, m: int) -> float:
        """Model bytes per machine written when pausing the job."""
        self._check_dop(m)
        return job.model_gb * GB / m

    # -- validation --------------------------------------------------------

    @staticmethod
    def _check_dop(m: int) -> None:
        if m < 1:
            raise WorkloadError(f"DoP must be >= 1, got {m}")

    @staticmethod
    def _check_alpha(alpha: float) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise WorkloadError(f"alpha must be in [0, 1], got {alpha}")
