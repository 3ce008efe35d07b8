"""Shared queue-driven runtime for the pluggable scheduling policies.

:class:`BaselineMaster` owns the queue, the cluster ledger and the
demand/metrics oracles; *which* queued jobs start, grouped how, is
delegated to a :data:`~repro.policies.base.Policy`, a function of the
observation.  The master observes (queue, free machines, running
groups), the policy returns a tuple of
:class:`~repro.policies.base.GroupStart`, and the master applies the
starts and re-asks until a pass makes no progress.  The
ledgers, the group start/stop lifecycle, the decision-application path
and the run loop are the ones Harmony's master and runtime use
(:class:`~repro.core.master.MasterBase`,
:class:`~repro.core.runtime.RuntimeBase`).

The historical baselines are one policy family at fixed parameters:
FIFO + demand-skip backfill packing up to ``group_size`` jobs
(:func:`repro.policies.queueing.packed_fifo`), which transcribes the
original admission scan exactly; the differential tests pin
naive/isolated outcomes bitwise-equal to it.  What differs between
registry entries beyond the policy is the execution discipline
(:class:`~repro.core.group_runtime.ExecutionMode`).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.check.oracle import exact_metrics
from repro.cluster.cluster import Cluster
from repro.config import DEFAULT_SIM_CONFIG, SimConfig
from repro.core.group_runtime import ExecutionMode, GroupRuntime
from repro.core.job import Job, JobState
from repro.core.master import MasterBase
from repro.core.profiler import JobMetrics
from repro.core.runtime import RuntimeBase
from repro.errors import SimulationError
from repro.metrics.utilization import ClusterUsageRecorder
from repro.policies.base import (
    GroupStart,
    Policy,
    PolicyObservation,
    RunningGroupView,
)
from repro.sim import RandomStreams, Simulator
from repro.workloads.apps import JobSpec
from repro.workloads.costmodel import CostModel

#: No job is given more machines than this, mirroring the largest DoP
#: the paper's evaluation exercises (Fig. 3 stops at 32).
MAX_DOP = 32


class BaselineMaster(MasterBase):
    """Queue-driven admission onto dedicated machine groups."""

    group_prefix = "b"

    #: Queue policies neither profile nor pause: no per-iteration
    #: callback, so single-job groups may take the fast path's solo
    #: lane (:mod:`repro.sim.fastpath`).
    on_iteration = None

    def __init__(self, sim: Simulator, cluster: Cluster,
                 cost_model: CostModel, config: SimConfig,
                 streams: RandomStreams, recorder: ClusterUsageRecorder,
                 mode: ExecutionMode, policy: Policy,
                 shuffle_seed: int | None = None,
                 dop_scale: float = 1.0):
        self.mode = mode  # read by MasterBase's memory floors
        super().__init__(sim, cluster, cost_model, config, streams,
                         recorder)
        #: The admission brain.
        self.policy = policy
        self.dop_scale = dop_scale
        self._queue: list[str] = []
        # machines_for is pure in the batch's jobs (the cost model and
        # config never change mid-run) but is re-asked on every _pump
        # pass, as is the memory floor behind it.
        self._machines_cache: dict[tuple[str, ...], int] = {}
        self._metrics_cache: dict[tuple[str, int], JobMetrics] = {}
        #: group_id -> predicted machine-release time, frozen at start.
        self._release_predictions: dict[str, float] = {}
        self._shuffle_rng = None
        if shuffle_seed is not None:
            import numpy as np
            self._shuffle_rng = np.random.default_rng(shuffle_seed)

    # -- submission -----------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        job = self._add_job(spec)
        self._queue.append(spec.job_id)
        if self._shuffle_rng is not None:
            # The naive baseline's grouping is arbitrary; a shuffled
            # queue samples one of the "all possible cases" of §V-A.
            order = self._shuffle_rng.permutation(len(self._queue))
            self._queue = [self._queue[i] for i in order]
        self._pump()
        return job

    # -- demand / metrics oracles -----------------------------------------------

    def machines_for(self, job_ids: Sequence[str]) -> int:
        """Dedicated machine count for a (possibly co-located) job set.

        Balances computation against communication per job — "we try to
        maximize the CPU utilization rates ... by reducing the network
        overheads that occur with lower DoP" (§V-A) — while honouring
        the no-spill memory floor.
        """
        key = tuple(job_ids)
        machines = self._machines_cache.get(key)
        if machines is None:
            cap = min(MAX_DOP * len(key), self.cluster.size)
            wanted = int(round(self._balanced(key)))
            machines = max(self._memory_floor(key), min(cap, wanted), 1)
            self._machines_cache[key] = machines
        return machines

    def _balanced(self, job_ids: Sequence[str]) -> float:
        """Aggregate balance point, scaled by ``dop_scale``: enough
        machines that the batch's total COMP matches its total COMM."""
        specs = [self.jobs[job_id].spec for job_id in job_ids]
        total_work = sum(spec.cpu_work_machine_seconds for spec in specs)
        total_comm = sum(self.cost_model.profile(spec, 1).t_comm
                         for spec in specs)
        return total_work / max(total_comm, 1e-9) * self.dop_scale

    def _metrics_at(self, job_id: str, m: int) -> JobMetrics:
        """Exact (cost-model) metrics, as the profiler would converge."""
        key = (job_id, m)
        cached = self._metrics_cache.get(key)
        if cached is None:
            cached = exact_metrics(self.cost_model,
                                   self.jobs[job_id].spec, m)
            self._metrics_cache[key] = cached
        return cached

    def _solo_seconds(self, job_id: str, m: int) -> float:
        """Closed-form solo runtime of the remaining iterations (Eq. 1)."""
        metrics = self._metrics_at(job_id, m)
        return self.jobs[job_id].remaining_iterations \
            * metrics.t_iteration_at(m)

    def _running_views(self) -> tuple[RunningGroupView, ...]:
        """Live groups with Eq. 1 release predictions, sorted by id.

        The release prediction is frozen at group start (see
        ``_admit``), *not* recomputed from live iteration counters: the
        batched fast path advances ``remaining_iterations`` in bulk, so
        observing it mid-run would make policy decisions depend on the
        simulation engine.
        """
        views = []
        for group_id in sorted(self.groups):
            group = self.groups[group_id]
            jobs = group.jobs()
            views.append(RunningGroupView(
                group_id=group_id,
                job_ids=tuple(job.job_id for job in jobs),
                n_machines=group.n_machines,
                predicted_release=self._release_predictions.get(
                    group_id, self.sim.now)))
        return tuple(views)

    # -- admission --------------------------------------------------------------

    def _observe(self) -> PolicyObservation:
        return PolicyObservation(
            now=self.sim.now,
            cluster_size=self.cluster.size,
            n_free=self.cluster.n_free,
            queue=tuple(self._queue),
            batch_demand=self.machines_for,
            memory_floor=self._memory_floor,
            metrics_at=self._metrics_at,
            solo_seconds=self._solo_seconds,
            running=self._running_views)

    def _pump(self) -> None:
        """Ask the policy for admission passes until one makes no
        progress (the policy sees the post-start cluster each time)."""
        while self._apply(self.policy(self._observe()), self._queue):
            pass

    def _admit(self, group: GroupRuntime, start: GroupStart) -> None:
        batch = [self.jobs[job_id] for job_id in start.job_ids]
        for job in batch:
            self._queue.remove(job.job_id)
        # Freeze the Eq. 1 release prediction now, from decision-time
        # state only, so later observations are engine-independent.
        m = group.n_machines
        estimate = self.perf_model.estimate_group(
            [self._metrics_at(job.job_id, m) for job in batch], m)
        remaining = max(job.remaining_iterations for job in batch)
        self._release_predictions[group.group_id] = \
            self.sim.now + remaining * estimate.t_group_iteration
        offsets = start.start_offsets or (0.0,) * len(batch)
        for job, delay in zip(batch, offsets, strict=True):
            job.state = JobState.RUNNING  # queue policies do not profile
            if not group.add_job(job, start_delay=delay):
                # The job does not fit even fully spilled.
                job.state = JobState.FAILED
                job.finish_time = self.sim.now
        if group.is_idle:
            self._stop_group(group)  # no job fitted: free its machines

    def _stop_group(self, group: GroupRuntime,
                    crashed: bool = False) -> list[Job]:
        self._release_predictions.pop(group.group_id, None)
        return super()._stop_group(group, crashed)

    # -- GroupHooks ----------------------------------------------------------------

    def on_job_finished(self, job: Job, group: GroupRuntime) -> None:
        self._end_job(job, JobState.FINISHED)
        self._job_left(group)

    def on_job_paused(self, job: Job, group: GroupRuntime) -> None:
        raise SimulationError("baseline runtimes never pause jobs")

    def on_job_failed(self, job: Job, group: GroupRuntime,
                      error: Exception) -> None:
        self._end_job(job, JobState.FAILED)
        self._job_left(group)

    def _job_left(self, group: GroupRuntime) -> None:
        if group.is_idle and group.group_id in self.groups:
            self._stop_group(group)
        self._pump()


class BaselineRuntime(RuntimeBase):
    """Drives one queue policy end-to-end."""

    master: BaselineMaster

    def __init__(self, n_machines: int, workload: Sequence[JobSpec],
                 mode: ExecutionMode, name: str,
                 policy: Policy,
                 config: SimConfig = DEFAULT_SIM_CONFIG,
                 shuffle_seed: int | None = None,
                 dop_scale: float = 1.0):
        super().__init__(n_machines, workload, config, None, name)
        self.master = BaselineMaster(self.sim, self.cluster,
                                     self.cost_model, config, self.streams,
                                     self.recorder, mode=mode,
                                     policy=policy,
                                     shuffle_seed=shuffle_seed,
                                     dop_scale=dop_scale)
