"""Shared queue-driven runtime for the pluggable scheduling policies.

:class:`BaselineMaster` owns the queue, the cluster ledger and the
demand/metrics oracles; *which* queued jobs start, grouped how, is
delegated to a :class:`~repro.policies.base.SchedulingPolicy`.  The
master observes (queue, free machines, running groups), the policy
decides (:class:`~repro.policies.base.PolicyDecision`), and the master
applies the starts and re-asks until a pass makes no progress.  The
ledgers, the group start/stop lifecycle and the run loop are the ones
Harmony's master and runtime use (:class:`~repro.core.master.MasterBase`,
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
from repro.core.perfmodel import PerfModel
from repro.core.profiler import JobMetrics
from repro.core.runtime import RuntimeBase
from repro.errors import SimulationError
from repro.metrics.utilization import ClusterUsageRecorder
from repro.policies.base import (
    PolicyDecision,
    PolicyObservation,
    RunningGroupView,
    SchedulingPolicy,
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

    #: Queue policies neither profile nor pause: ``on_iteration`` is a
    #: no-op and groups are only ever created, never mutated while
    #: running — the contract that lets the fast path batch their
    #: groups (:mod:`repro.sim.fastpath`).
    iteration_hooks_inert = True

    def __init__(self, sim: Simulator, cluster: Cluster,
                 cost_model: CostModel, config: SimConfig,
                 streams: RandomStreams, recorder: ClusterUsageRecorder,
                 mode: ExecutionMode, policy: SchedulingPolicy,
                 shuffle_seed: int | None = None,
                 dop_scale: float = 1.0):
        # Uncoordinated modes do not spill (alpha = 0); when a spill
        # ratio is forced through the config (the ablation's
        # static-spill stages), the memory floor honours it.
        alpha = 0.0
        if mode.spill_enabled and config.memory.spill_enabled:
            fixed = config.memory.fixed_alpha
            alpha = 1.0 if fixed is None else fixed
        super().__init__(sim, cluster, cost_model, config, streams,
                         recorder, floor_alpha=alpha,
                         floor_spills_model=False)
        self.mode = mode
        #: The admission brain.
        self.policy = policy
        self.dop_scale = dop_scale
        self._queue: list[str] = []
        # machines_for is pure in the batch's specs (the cost model and
        # config never change mid-run) but is re-asked on every _pump
        # pass, as is the memory floor behind it.
        self._machines_cache: dict[tuple[str, ...], int] = {}
        self._metrics_cache: dict[tuple[str, int], JobMetrics] = {}
        #: Eq. 1 model for the running-group release predictions the
        #: reservation-backfill policies observe.
        self._perf_model = PerfModel(
            cpu_weight=config.scheduler.cpu_weight)
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

    def machines_for(self, specs: Sequence[JobSpec]) -> int:
        """Dedicated machine count for a (possibly co-located) job set.

        Balances computation against communication per job — "we try to
        maximize the CPU utilization rates ... by reducing the network
        overheads that occur with lower DoP" (§V-A) — while honouring
        the no-spill memory floor.
        """
        key = tuple(spec.job_id for spec in specs)
        cached = self._machines_cache.get(key)
        if cached is not None:
            return cached
        floor = self._specs_floor(specs)
        total_work = sum(spec.cpu_work_machine_seconds for spec in specs)
        total_comm = sum(self.cost_model.profile(spec, 1).t_comm
                         for spec in specs)
        # Aggregate balance point: enough machines that the group's
        # total COMP matches its total COMM demand.
        balanced = total_work / max(total_comm, 1e-9)
        wanted = int(round(balanced * self.dop_scale))
        cap = min(MAX_DOP * len(specs), self.cluster.size)
        result = max(floor, min(cap, wanted), 1)
        self._machines_cache[key] = result
        return result

    def _memory_dominated(self, specs: Sequence[JobSpec],
                          wanted: int) -> bool:
        """Whether a batch's allocation is driven by its memory floor
        rather than by compute/communication balance."""
        total_work = sum(spec.cpu_work_machine_seconds for spec in specs)
        total_comm = sum(self.cost_model.profile(spec, 1).t_comm
                         for spec in specs)
        balanced = total_work / max(total_comm, 1e-9) * self.dop_scale
        return wanted > max(1.0, balanced) * 1.5

    def _specs_of(self, job_ids: tuple[str, ...]) -> list[JobSpec]:
        return [self.jobs[job_id].spec for job_id in job_ids]

    def _demand_for_ids(self, job_ids: tuple[str, ...]) -> int:
        return self.machines_for(self._specs_of(job_ids))

    def _floor_for_ids(self, job_ids: tuple[str, ...]) -> int:
        return self._specs_floor(self._specs_of(job_ids))

    def _dominated_for_ids(self, job_ids: tuple[str, ...],
                           wanted: int) -> bool:
        return self._memory_dominated(self._specs_of(job_ids), wanted)

    def _metrics_at(self, job_id: str, m: int) -> JobMetrics:
        """Exact (cost-model) metrics, as the profiler would converge."""
        key = (job_id, m)
        cached = self._metrics_cache.get(key)
        if cached is None:
            cached = exact_metrics(self.cost_model,
                                   self.jobs[job_id].spec, m)
            self._metrics_cache[key] = cached
        return cached

    def _remaining_iterations(self, job_id: str) -> int:
        return self.jobs[job_id].remaining_iterations

    def _solo_seconds(self, job_id: str, m: int) -> float:
        """Closed-form solo runtime of the remaining iterations (Eq. 1)."""
        metrics = self._metrics_at(job_id, m)
        return self.jobs[job_id].remaining_iterations \
            * metrics.t_iteration_at(m)

    def _running_views(self) -> tuple[RunningGroupView, ...]:
        """Live groups with Eq. 1 release predictions, sorted by id.

        The release prediction is frozen at group start (see
        ``_start``), *not* recomputed from live iteration counters: the
        batched fast path advances ``remaining_iterations`` in bulk, so
        observing it mid-run would make policy decisions depend on the
        simulation engine.
        """
        views = []
        for group_id in sorted(self.groups):
            group = self.groups[group_id]
            jobs = group.jobs()
            if not jobs:
                continue
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
            batch_demand=self._demand_for_ids,
            memory_floor=self._floor_for_ids,
            memory_dominated=self._dominated_for_ids,
            metrics_at=self._metrics_at,
            remaining_iterations=self._remaining_iterations,
            solo_seconds=self._solo_seconds,
            running=self._running_views)

    def _pump(self) -> None:
        """Ask the policy for admission passes until one makes no
        progress (the policy sees the post-start cluster each time)."""
        while True:
            decision = self.policy.decide(self._observe())
            if not decision.starts or not self._apply(decision):
                return

    def _apply(self, decision: PolicyDecision) -> bool:
        """Start every applicable group of a decision, in order.

        A start referencing jobs no longer queued, or machines no
        longer free, is skipped (policies reason about a snapshot; the
        master owns the ledger) — skipping everything ends the pump.
        """
        applied = False
        queued = set(self._queue)
        for start in decision.starts:
            ids = start.job_ids
            if len(set(ids)) != len(ids) \
                    or any(job_id not in queued for job_id in ids):
                continue
            if start.n_machines > self.cluster.n_free:
                continue
            for job_id in ids:
                self._queue.remove(job_id)
                queued.discard(job_id)
            batch = [self.jobs[job_id] for job_id in ids]
            self._start(batch, start.n_machines, start.start_offsets)
            applied = True
        return applied

    def _start(self, batch: Sequence[Job], n_machines: int,
               start_offsets: Sequence[float] | None = None) -> None:
        group = self._start_group(n_machines)
        # Freeze the Eq. 1 release prediction now, from decision-time
        # state only, so later observations are engine-independent.
        estimate = self._perf_model.estimate_group(
            [self._metrics_at(job.job_id, n_machines) for job in batch],
            n_machines)
        remaining = max(job.remaining_iterations for job in batch)
        self._release_predictions[group.group_id] = \
            self.sim.now + remaining * estimate.t_group_iteration
        for index, job in enumerate(batch):
            job.state = JobState.RUNNING  # queue policies do not profile
            delay = (start_offsets[index] if start_offsets is not None
                     else 0.0)
            if not group.add_job(job, start_delay=delay):
                # No spill support: the job physically does not fit.
                job.state = JobState.FAILED
                job.finish_time = self.sim.now

    def _stop_group(self, group: GroupRuntime,
                    crashed: bool = False) -> list[Job]:
        self._release_predictions.pop(group.group_id, None)
        return super()._stop_group(group, crashed)

    # -- GroupHooks ----------------------------------------------------------------

    def on_iteration(self, job: Job, group: GroupRuntime) -> None:
        pass  # queue policies do not profile

    def on_job_finished(self, job: Job, group: GroupRuntime) -> None:
        self._end_job(job, JobState.FINISHED)
        self._job_left(group)

    def on_job_paused(self, job: Job, group: GroupRuntime) -> None:
        raise SimulationError(
            "baseline runtimes never pause jobs")  # pragma: no cover

    def _job_left(self, group: GroupRuntime) -> None:
        if group.is_idle and group.group_id in self.groups:
            self._stop_group(group)
        self._pump()


class BaselineRuntime(RuntimeBase):
    """Drives one queue policy end-to-end."""

    master: BaselineMaster

    def __init__(self, n_machines: int, workload: Sequence[JobSpec],
                 mode: ExecutionMode, name: str,
                 policy: SchedulingPolicy,
                 config: SimConfig = DEFAULT_SIM_CONFIG,
                 shuffle_seed: int | None = None,
                 dop_scale: float = 1.0,
                 cost_model: CostModel | None = None):
        super().__init__(n_machines, workload, config, cost_model, name)
        self.master = BaselineMaster(self.sim, self.cluster,
                                     self.cost_model, config, self.streams,
                                     self.recorder, mode=mode,
                                     policy=policy,
                                     shuffle_seed=shuffle_seed,
                                     dop_scale=dop_scale)
