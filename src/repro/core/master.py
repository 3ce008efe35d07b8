"""The Harmony master (§III, Fig. 6).

The master owns the job queue and the job groups: it assigns newly
submitted jobs to groups for profiling, runs the scheduling algorithm
over profiled metrics, applies grouping decisions by migrating jobs
(pause -> checkpoint -> restore, §IV-B4), repairs groups when jobs
finish (similar-job replacement, then escalating regrouping), and
admits waiting jobs when machines free up.

Interpretation choices relative to the paper are documented inline and
in DESIGN.md: a profiled job chooses among {stay, move, new-group,
wait} by predicted cluster utilization (the paper's "adds it to a
proper group that maximizes U or let it wait"), and a periodic check
realizes §IV-B2's "constantly seeks for higher resource utilization"
under the 5% benefit threshold.

:class:`MasterBase` holds what this master shares with the queue-policy
master (:mod:`repro.baselines.base`): the job and group ledgers, the
group start/stop lifecycle, and the path that turns a tuple of
:class:`~repro.policies.base.GroupStart` into running groups.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.config import SimConfig
from repro.core.group_runtime import ExecutionMode, GroupRuntime
from repro.core.job import Job, JobState
from repro.core.memory_manager import FootprintTable
from repro.core.perfmodel import GroupEstimate, PerfModel
from repro.core.profiler import JobMetrics, Profiler
from repro.core.regroup import (
    find_similar_bundle,
    find_similar_job,
    prefer_fewer_jobs,
    settled,
)
from repro.core.scheduler import HarmonyScheduler, SchedulePlan
from repro.errors import SchedulingError, SimulationError
from repro.metrics.faults import FaultLog, FaultRecord
from repro.metrics.utilization import (
    ClusterUsageRecorder,
    DecisionRecord,
    busy_fraction,
)
from repro.policies.base import GroupStart
from repro.policies.planner import plan_decision
from repro.sim import RandomStreams, Simulator
from repro.workloads.apps import JobSpec
from repro.workloads.costmodel import CostModel

#: At most this many new jobs profile concurrently in one group, to
#: "minimize the potential degradation of resource utilization" (§IV-B1).
_MAX_PROFILING_PER_GROUP = 2
#: Machines of a bootstrap profiling group when the cluster is empty.
_BOOTSTRAP_MACHINES = 4
#: Escalation limit: how many groups beyond the repaired one may join a
#: completion-triggered regrouping before we stop growing the scope.
_MAX_ESCALATION_GROUPS = 3
#: Relative rounding guard on the escalation gate's best-case bound:
#: the bound and a candidate's score sum the same products in different
#: orders, so they may differ in the last bits.
_BOUND_ROUNDING = 1e-9
#: No plan scores above this over the budget it was planned for: each
#: Eq. 3 ratio is at most 1 (correctly rounded division is monotone),
#: Σ m_g·u_g ≤ Σ m_g ≤ budget, and 0.75 + 0.25 = 1.0 (DESIGN.md §5b).
_SCORE_CEILING = 1.0
#: Iterations a new job runs in the profiling state before its metrics
#: are trusted.
_PROFILING_ITERATIONS = 3
#: Iterations of progress lost when a machine failure forces a restart
#: from the last checkpoint ("checkpointing (per epoch) and restart",
#: §VI).
CHECKPOINT_INTERVAL_ITERATIONS = 1


@dataclass(frozen=True)
class GateCounts:
    """How the Harmony master's regroup decisions ended.

    An escalation (§IV-B4) is either skipped by the best-case bound or
    planned, and a planned one may settle before its largest scope; a
    periodic check (§IV-B2) is either planned or skipped because no
    plan's score can clear the threshold.
    """

    escalations: int
    escalations_pruned: int
    escalations_settled: int
    checks_planned: int
    checks_pruned: int

    def describe(self) -> str:
        planned = self.escalations - self.escalations_pruned
        return (f"regroup gates: {planned} escalations planned "
                f"({self.escalations_settled} settled early), "
                f"{self.escalations_pruned} skipped by bound; "
                f"{self.checks_planned} periodic checks planned, "
                f"{self.checks_pruned} skipped")


@dataclass
class _Rebuild:
    """An in-flight plan application.

    Only *unmatched* groups drain; matched groups keep running while
    individual jobs migrate in and out ("the master simply pauses the
    job and executes the other co-located jobs in the meanwhile,
    keeping the resources busy", §IV-B4).  ``slots`` are the plan groups
    that need fresh machine sets once the drain releases them, as
    (slot name, machines): a slot's jobs are those routed to it.
    """

    draining: set[str]
    slots: list[tuple[str, int]]


class MasterBase:
    """The ledgers and the group lifecycle every master shares.

    A master owns the submitted jobs and the live groups.  Starting a
    group allocates machines, builds its :class:`GroupRuntime` and opens
    its usage record; stopping one (drained or crashed) keeps its audit
    and cycles, closes the record and frees the machines.  Subclasses
    decide which groups to start and when, as a tuple of
    :class:`~repro.policies.base.GroupStart` that :meth:`_apply`
    carries out (the only code that starts a group), and place each
    started group's jobs in :meth:`_admit`.  Subclasses
    set ``mode`` (the groups' execution discipline, which the memory
    floors read at construction) and
    ``group_prefix``: group ids key the groups' RNG stream names, so
    each master keeps its prefix.
    """

    group_prefix: str
    mode: ExecutionMode

    def __init__(self, sim: Simulator, cluster: Cluster,
                 cost_model: CostModel, config: SimConfig,
                 streams: RandomStreams, recorder: ClusterUsageRecorder):
        self.sim = sim
        self.cluster = cluster
        self.cost_model = cost_model
        self.config = config
        self.streams = streams
        self.recorder = recorder
        #: Eq. 1-3 model behind the master's predictions.
        self.perf_model = PerfModel()
        self.jobs: dict[str, Job] = {}
        self.groups: dict[str, GroupRuntime] = {}
        #: Cycle records of groups that have been torn down.
        self.finished_cycles: list = []
        #: Final conservation snapshots of torn-down groups, for
        #: :mod:`repro.check` (live groups are audited on demand).
        self.group_audits: list = []
        #: Iterations rolled back per job by crash recovery — the
        #: checker's no-lost-iterations ledger: a finished job must have
        #: executed exactly ``spec.iterations + rolled_back`` cycles.
        self.rolled_back_iterations: dict[str, int] = {}
        self.migration_overhead_seconds = 0.0
        #: (time, n_machines, n_jobs) per group membership epoch — the
        #: raw data behind Fig. 12's DoP / jobs-per-group CDFs.
        self.group_shape_log: list[tuple[float, int, int]] = []
        self._group_ids = itertools.count()
        #: The memory-feasibility rule behind the floors below, shared
        #: with every group this master starts (their admission gates).
        self.footprints = FootprintTable(cost_model, config.memory,
                                         self.mode.spill_enabled)
        # A closure over what it reads, not a method: the master hands
        # it to the schedulers and policies it owns.
        footprints, jobs, limit = self.footprints, self.jobs, cluster.size

        def memory_floor(job_ids: Sequence[str]) -> int:
            """Smallest machine count where the jobs co-locate within
            the target memory pressure (cluster size + 1 if they never
            do)."""
            return footprints.floor([jobs[job_id].spec
                                     for job_id in job_ids], limit)

        self._memory_floor = memory_floor

    def _add_job(self, spec: JobSpec) -> Job:
        if spec.job_id in self.jobs:
            raise SchedulingError(f"duplicate job id {spec.job_id}")
        job = Job(spec)
        self.jobs[spec.job_id] = job
        return job

    @property
    def all_done(self) -> bool:
        return all(job.is_done for job in self.jobs.values())

    def _end_job(self, job: Job, state: JobState) -> None:
        job.transition(state)
        job.finish_time = self.sim.now

    def gate_counts(self) -> GateCounts | None:
        """The regroup gates' tallies; None for a master without
        regroup gates."""
        return None

    def _stop_group(self, group: GroupRuntime,
                    crashed: bool = False) -> list[Job]:
        """Take a group down; returns the jobs a crash displaced."""
        del self.groups[group.group_id]
        if crashed:
            victims = group.crash()
        else:
            group.stop()
            victims = []
        self.group_audits.append(group.audit())
        self.finished_cycles.extend(group.cycles)
        self.recorder.group_stopped(group.group_id, self.sim.now)
        self.cluster.release_all(group.group_id)
        return victims

    def _apply(self, starts: Sequence[GroupStart],
               eligible: Iterable[str]) -> bool:
        """Start every applicable group of ``starts``, in order.

        Each start allocates its machines, builds its
        :class:`GroupRuntime`, opens its usage record and hands the new
        group to :meth:`_admit`.  A start is stale, and skipped, when
        its ids repeat, when one of them is not (or no longer)
        ``eligible``, or when it wants more machines than are free:
        deciders reason about a snapshot, the master owns the ledger.
        Returns whether anything started.
        """
        eligible = set(eligible)
        applied = False
        for start in starts:
            ids, n_machines = start.job_ids, start.n_machines
            if len(set(ids)) != len(ids) or not eligible.issuperset(ids) \
                    or n_machines > self.cluster.n_free:
                continue
            eligible.difference_update(ids)
            group_id = f"{self.group_prefix}{next(self._group_ids)}"
            group = GroupRuntime(
                self.sim, group_id,
                self.cluster.allocate(n_machines, group_id), self.mode,
                self.cost_model, self.config, self.streams, hooks=self,
                footprints=self.footprints)
            self.groups[group_id] = group
            self.recorder.group_started(group_id, n_machines, self.sim.now,
                                        group.cpu, group.net)
            self._admit(group, start)
            applied = True
        return applied

    def _admit(self, group: GroupRuntime,
               start: GroupStart) -> None:  # pragma: no cover - abstract
        """Place ``start``'s jobs into ``group``, just started for it."""
        raise NotImplementedError


class HarmonyMaster(MasterBase):
    """Scheduling brain bound to a simulator and a cluster.

    Each group estimate (Eq. 1-3 over the profiled metrics) and each
    memory floor is worked out when a decision needs it, so the master
    holds no memo that a publish, a membership change or a crash could
    leave stale.
    """

    group_prefix = "g"
    mode = ExecutionMode.HARMONY

    def __init__(self, sim: Simulator, cluster: Cluster,
                 cost_model: CostModel, config: SimConfig,
                 streams: RandomStreams,
                 recorder: ClusterUsageRecorder,
                 perf_model: PerfModel | None = None,
                 scheduler_factory=None,
                 fault_log: FaultLog | None = None):
        super().__init__(sim, cluster, cost_model, config, streams,
                         recorder)
        self.profiler = Profiler()
        if perf_model is not None:
            self.perf_model = perf_model
        if config.shard.n_cells > cluster.size:
            raise ValueError(
                f"n_cells must be <= the cluster's {cluster.size} "
                f"machines, got {config.shard.n_cells}")
        # Every schedule() call of the cluster-of-cells front end leaves
        # history behind (placer stickiness, the rebalance cadence), so
        # even a discarded probe changes later plans: there the regroup
        # gates must not skip Algorithm 1 calls.
        self._may_skip_planning = config.shard.n_cells == 1
        # The scheduling algorithm is pluggable so the §V-F Oracle can
        # drive the very same master (Fig. 14's comparison).  With
        # ShardConfig.n_cells > 1 the default becomes the
        # cluster-of-cells front end (repro.shard) — same schedule()
        # contract, same last_stats seam below.  Imported
        # lazily: repro.shard depends on core.scheduler, so a module-
        # level import here would couple every master import to it.
        if scheduler_factory is None:
            if config.shard.n_cells > 1:
                from repro.shard.scheduler import ShardedScheduler
                scheduler_factory = functools.partial(
                    ShardedScheduler, shard=config.shard,
                    tracer=sim.tracer)
            else:
                scheduler_factory = HarmonyScheduler
        self.scheduler = scheduler_factory(
            perf_model=self.perf_model, config=config.scheduler,
            memory_floor=self._memory_floor)
        # Observability (repro.trace): scheduler decisions land on a
        # dedicated "master" lane as instant events; None when tracing
        # is off so decision paths pay one attribute check.
        self._trace = sim.tracer
        self._trace_track = (
            self._trace.track("master", "scheduler", process_sort=0)
            if self._trace is not None else None)

        self._profiling_iterations: dict[str, int] = {}
        self._pending_moves: dict[str, str] = {}
        self._rebuild: _Rebuild | None = None
        self._last_apply_time = float("-inf")
        #: group_id -> index of its open DecisionRecord + epoch start.
        self._open_decisions: dict[str, tuple[int, float]] = {}
        #: Recovery accounting sink (repro.faults); optional.
        self.fault_log = fault_log

        # -- incremental fast path -------------------------------------
        #: Completions repaired by the §IV-B4 plan patch (similar job or
        #: bundle spliced in) vs. escalated to full Algorithm 1.
        self.fast_path_replacements = 0
        self.full_path_regroups = 0
        #: Escalations skipped because even a perfect plan could not
        #: clear the regroup threshold (``_best_case_score``), and
        #: planned ones stopped before their largest scope because no
        #: larger scope could displace the choice (``settled``).
        self.escalations_pruned = 0
        self.escalations_settled = 0
        #: Periodic checks that planned, and those skipped because the
        #: current score already puts the threshold out of any plan's
        #: reach (``_SCORE_CEILING``).
        self.checks_planned = 0
        self.checks_pruned = 0
        #: Kept for the perf ledger, which reads both: hits stay 0 and
        #: misses count the group estimates worked out.
        self.estimate_cache_hits = 0
        self.estimate_cache_misses = 0

    # ------------------------------------------------------------------ API

    def submit(self, spec: JobSpec) -> Job:
        """Accept a job into the queue (the Fig. 6 'waiting' state)."""
        job = self._add_job(spec)
        self._pump()
        return job

    def gate_counts(self) -> GateCounts:
        return GateCounts(escalations=self.full_path_regroups,
                          escalations_pruned=self.escalations_pruned,
                          escalations_settled=self.escalations_settled,
                          checks_planned=self.checks_planned,
                          checks_pruned=self.checks_pruned)

    def _instant(self, name: str, **args) -> None:
        """Emit a scheduler-decision instant on the master lane."""
        if self._trace is not None:
            self._trace.instant(name, cat="scheduler",
                                track=self._trace_track, args=args)

    def jobs_in_state(self, *states: JobState) -> list[Job]:
        return [job for job in self.jobs.values() if job.state in states]

    # --------------------------------------------------------- group hooks

    def on_iteration(self, job: Job, group: GroupRuntime) -> None:
        cycle = group.cycles[-1]
        self.profiler.record_iteration(job.job_id, cycle.t_cpu_measured,
                                       cycle.t_net_measured,
                                       group.n_machines)
        if job.state is JobState.PROFILING:
            count = self._profiling_iterations.get(job.job_id, 0) + 1
            self._profiling_iterations[job.job_id] = count
            if count >= _PROFILING_ITERATIONS:
                job.transition(JobState.PROFILED)
                self._on_job_profiled(job)

    def on_job_finished(self, job: Job, group: GroupRuntime) -> None:
        self._end_job(job, JobState.FINISHED)
        self._note_membership_change(group)
        if self._rebuild is None:
            self._handle_completion(group, job)
        self._check_rebuild()
        self._pump()

    def on_job_paused(self, job: Job, group: GroupRuntime) -> None:
        job.transition(JobState.PAUSED)
        job.migrations += 1
        if self._trace is not None:
            self._trace.counter("scheduler.migrations").add(1)
        self.migration_overhead_seconds += \
            self.cost_model.disk.checkpoint_seconds(
                self.cost_model.checkpoint_bytes(job.spec,
                                                 group.n_machines))
        self._note_membership_change(group)
        self._settle_routes()
        self._check_rebuild()
        self._pump()

    def on_job_failed(self, job: Job, group: GroupRuntime,
                      error: Exception) -> None:
        raise SimulationError(
            "Harmony groups never co-locate naively, so no job fails")

    # ----------------------------------------------------------- the pump

    def _pump(self) -> None:
        """Advance every queue that may have become serviceable.

        Nothing here starts a rebuild (a plan application): groups
        started for free machines run their first step only after this
        call returns, so one check up front keeps every stage off the
        jobs and machines an in-flight rebuild claims.
        """
        if self._rebuild is not None:
            return
        self._cleanup_idle_groups()
        self._admit_paused_to_free_machines()
        self._assign_profiling()

    def _cleanup_idle_groups(self) -> None:
        reserved = set(self._pending_moves.values())
        for group in [g for gid, g in self.groups.items()
                      if g.is_idle and gid not in reserved]:
            self._stop_group(group)

    def _stop_group(self, group: GroupRuntime,
                    crashed: bool = False) -> list[Job]:
        self._close_decision(group, self.sim.now)
        return super()._stop_group(group, crashed)

    # -------------------------------------------------------- profiling path

    def _needs_profiling(self) -> list[Job]:
        unmeasured = [job for job in
                      self.jobs_in_state(JobState.PAUSED)
                      if not self.profiler.has(job.job_id)]
        return self.jobs_in_state(JobState.WAITING) + unmeasured

    def _assign_profiling(self) -> None:
        """Deploy queued jobs for profiling (§IV-B1): into a group that
        is already profiling, else the group with the fewest machines,
        else a fresh bootstrap group on free machines."""
        for job in self._needs_profiling():
            target = self._profiling_target(job)
            if target is not None:
                self._join(job, target)
                continue
            bootstrap = GroupStart((job.job_id,), max(
                _BOOTSTRAP_MACHINES, self._memory_floor([job.job_id])))
            if not self._apply((bootstrap,), bootstrap.job_ids):
                break  # no capacity anywhere; wait for an event

    def _profiling_target(self, job: Job) -> GroupRuntime | None:
        def profiling_count(group: GroupRuntime) -> int:
            return sum(1 for j in group.jobs()
                       if j.state is JobState.PROFILING)

        candidates = [g for g in self.groups.values()
                      if profiling_count(g) < _MAX_PROFILING_PER_GROUP
                      and g.can_admit(job)]
        if not candidates:
            return None
        already_profiling = [g for g in candidates if profiling_count(g)]
        pool = already_profiling if already_profiling else candidates
        return min(pool, key=lambda g: g.n_machines)

    # ---------------------------------------------------- failure injection

    def inject_machine_failure(self, machine_id: int,
                               fault_record: FaultRecord | None = None,
                               ) -> list[str]:
        """A machine dies: the group on it crashes and every co-located
        job restarts from its last checkpoint (§VI fault tolerance).

        Returns the ids of the affected jobs.  The health monitor calls
        this on heartbeat loss, once the detection latency has elapsed
        on the simulator clock, so recovery measurements include it.
        The :mod:`repro.faults` injector has already marked the machine
        failed; it rejoins the pool when the injector repairs it.
        """
        owner = self.cluster.owner_of(machine_id)
        group = self.groups.get(owner) if owner else None
        if self._trace is not None:
            self._instant("machine-crash", machine=machine_id,
                          group=group.group_id if group else None,
                          victims=group.n_jobs if group else 0)
        if group is None:
            return []  # free machine, or a non-group owner
        group_id = group.group_id
        victims = self._stop_group(group, crashed=True)
        if self._rebuild is not None:
            self._rebuild.draining.discard(group_id)

        lost = CHECKPOINT_INTERVAL_ITERATIONS
        lost_total = 0
        rerun_seconds = 0.0
        for job in victims:
            # Restart from the last checkpoint: the in-flight progress
            # since then is gone.
            before = job.remaining_iterations
            job.remaining_iterations = min(
                job.spec.iterations, job.remaining_iterations + lost)
            lost_total += job.remaining_iterations - before
            self.rolled_back_iterations[job.job_id] = (
                self.rolled_back_iterations.get(job.job_id, 0)
                + job.remaining_iterations - before)
            if self.profiler.has(job.job_id):
                metrics = self.profiler.get(job.job_id)
                rerun_seconds += ((job.remaining_iterations - before)
                                  * metrics.t_iteration_at(
                                      group.n_machines))
            if job.state is not JobState.PAUSED:
                job.transition(JobState.PAUSED)
            job.migrations += 1
            self._pending_moves.pop(job.job_id, None)
        if self.fault_log is not None and fault_record is not None:
            fault_record.group_id = group_id
            self.fault_log.jobs_displaced(
                fault_record, at=self.sim.now,
                job_ids=tuple(job.job_id for job in victims),
                lost_iterations=lost_total,
                rerun_work_seconds=rerun_seconds)
        self._check_rebuild()
        self._pump()
        return [job.job_id for job in victims]

    def machine_repaired(self, machine_id: int) -> None:
        """A failed machine rejoined the pool: admit waiting work."""
        del machine_id  # the pump re-reads the free pool itself
        self._check_rebuild()
        self._pump()

    def _note_recovered(self, job: Job) -> None:
        """Tell the fault log a displaced job is executing again."""
        if self.fault_log is not None:
            self.fault_log.job_recovered(job.job_id, self.sim.now)

    # ------------------------------------------- periodic improvement check

    def periodic_check(self) -> None:
        """Re-evaluate the whole grouping; regroup only when the
        predicted utilization gain clears the 5% threshold (§IV-B2's
        "constantly seeks for higher resource utilization").

        Groups currently profiling a new job are left alone — pausing a
        half-profiled job would only churn (§IV-B1 wants profiling to
        finish undisturbed).
        """
        if self._rebuild is not None or self._pending_moves:
            return
        settle = 2.0 * self.config.scheduler.reschedule_check_seconds
        if self.sim.now - self._last_apply_time < settle:
            return  # let the previous regrouping settle before re-judging
        profiling = {gid for gid, g in self.groups.items()
                     if any(j.state is JobState.PROFILING
                            for j in g.jobs())}
        stable = [g for gid, g in self.groups.items()
                  if gid not in profiling]
        budget = self._scope_budget(stable)
        current = self._score_estimates(
            self._live_estimates(exclude_groups=profiling),
            total_machines=budget)
        threshold = self.config.scheduler.regroup_benefit_threshold
        if (self._may_skip_planning
                and current * (1.0 + threshold) >= _SCORE_CEILING):
            # No plan over ``budget`` can score above the ceiling.
            self.checks_pruned += 1
            self._instant(
                "regroup-check", current_score=round(current, 4),
                planned_score=None, threshold=threshold, triggered=False,
                pruned=True,
                patched_completions=self.fast_path_replacements,
                escalated_completions=self.full_path_regroups)
            return
        scoped = self._plan_scope(stable)
        if scoped is None:
            return
        self.checks_planned += 1
        plan = scoped[0]
        triggered = plan.score > current * (1.0 + threshold)
        if self._trace is not None:
            stats = self.scheduler.last_stats
            self._instant(
                "regroup-check", current_score=round(current, 4),
                planned_score=round(plan.score, 4), threshold=threshold,
                triggered=triggered, pruned=False,
                plan_groups=len(plan.groups),
                plan_jobs=plan.n_jobs,
                prefixes_evaluated=stats.n_prefixes_evaluated,
                cache_hits=stats.cache_hits,
                cache_misses=stats.cache_misses,
                groups_certified=stats.groups_certified,
                fast_path=stats.fast_path,
                patched_completions=self.fast_path_replacements,
                escalated_completions=self.full_path_regroups)
        if triggered:
            self._apply_plan(plan,
                             scope_group_ids=self.groups.keys() - profiling)

    # ------------------------------------------------ profiled-job decision

    def _on_job_profiled(self, job: Job) -> None:
        """The §IV-B4 arrival rule, generalized to {stay, move, new
        group, wait} chosen by predicted cluster utilization."""
        if self._rebuild is not None:
            return  # the in-flight regrouping will place everyone
        metrics = self.profiler.get(job.job_id)
        current_group = self.groups.get(job.group_id or "")
        assert current_group is not None

        # One sweep per decision: every option below filters this list,
        # so each group is estimated once, not once per candidate group.
        live = [(group_id, self._group_estimate(group, job.job_id))
                for group_id, group in self.groups.items()]

        def joining(group: GroupRuntime) -> float:
            mates = self._metrics_of(group.jobs(), skip=job.job_id)
            return self._score_estimates(
                [estimate for group_id, estimate in live
                 if group_id != group.group_id and estimate is not None]
                + [self.perf_model.estimate_group(mates + [metrics],
                                                  group.n_machines)])

        options: list[tuple[float, str, str | None]] = [
            (joining(current_group), "stay", current_group.group_id)]
        for group_id, group in self.groups.items():
            if group is not current_group and group.can_admit(job):
                options.append((joining(group), "move", group_id))
        rest = [estimate for _, estimate in live if estimate is not None]
        new_m = self._balanced_machines(metrics)
        if new_m is not None:
            options.append((self._score_estimates(
                rest + [self.perf_model.estimate_group([metrics], new_m)]),
                "new", None))
        options.append((self._score_estimates(rest), "wait", None))

        options.sort(key=lambda option: -option[0])
        score, action, target_id = options[0]
        if self._trace is not None:
            self._instant("placement", job=job.job_id, action=action,
                          target=target_id, score=round(score, 4),
                          n_options=len(options))
        if action == "stay":
            job.transition(JobState.RUNNING)
        elif action == "move":
            self._route(job, target_id)  # type: ignore[arg-type]
        elif action == "new":
            start = GroupStart((job.job_id,), new_m)  # type: ignore[arg-type]
            self._apply((start,), start.job_ids)
        else:
            current_group.request_pause(job.job_id)

    def _balanced_machines(self, metrics: JobMetrics) -> int | None:
        """Machine count balancing one job's CPU and network use, capped
        by free machines and floored by memory feasibility."""
        free = self.cluster.n_free
        if free < 1:
            return None
        floor = self._memory_floor([metrics.job_id])
        if floor > free:
            return None
        balanced = max(1, round(metrics.cpu_work / max(metrics.t_net,
                                                       1e-9)))
        return min(free, max(floor, min(balanced, self.cluster.size)))

    # ------------------------------------------------- completion handling

    def _handle_completion(self, group: GroupRuntime,
                           finished: Job) -> None:
        """§IV-B4 case (2): repair the group of a finished job.

        The similar-job / similar-bundle replacement is a *plan patch*:
        the candidate splice is re-scored locally (patched group +
        untouched rest of the cluster) and accepted only while the
        predicted utilization stays within the 5% regroup threshold of
        what the departed job delivered — otherwise the repair
        escalates to the full scheduling algorithm.
        """
        threshold = self.config.scheduler.similarity_threshold
        # Profiled: on_iteration records the last iteration before the
        # group reports the finish.
        target = self.profiler.get(finished.job_id)
        m = group.n_machines
        candidates = self._metrics_of(self.jobs_in_state(JobState.PAUSED))

        def patches() -> Iterable[tuple[str, Sequence[JobMetrics]]]:
            # The bundle is searched only when no single job patches.
            replacement = find_similar_job(candidates, target, m,
                                           threshold)
            if replacement is not None:
                yield "similar", [replacement]
            bundle = find_similar_bundle(candidates, target, m, threshold)
            if bundle is not None:
                yield "bundle", bundle

        for kind, patch in patches():
            jobs = [self.jobs[item.job_id] for item in patch]
            # A bundle's jobs each fit beside the survivors, but together
            # they may not: admission stops at the first that does not,
            # and the repair escalates.
            if all(group.can_admit(job) for job in jobs) \
                    and self._patch_accepts(group, target, patch,
                                            kind=kind) \
                    and all(self._join(job, group) for job in jobs):
                self.fast_path_replacements += 1
                return

        self.full_path_regroups += 1
        self._escalate(group)

    def _patch_accepts(self, group: GroupRuntime, target: JobMetrics,
                       replacements: Sequence[JobMetrics],
                       kind: str) -> bool:
        """Score the §IV-B4 splice against what the departed job gave.

        ``before`` re-seats the finished job (``target``) among the
        survivors; ``after`` seats the proposed replacements instead.
        The rest of the cluster is identical on both sides, so the
        comparison isolates the splice.  Falling short by more than the
        regroup threshold means the patched group would leave enough
        utilization on the table that full Algorithm 1 is warranted.
        """
        survivors = self._metrics_of(group.jobs())
        rest = self._live_estimates(
            exclude_groups=(group.group_id,))
        m = group.n_machines
        before = self._score_estimates(
            rest + [self.perf_model.estimate_group(survivors + [target],
                                                   m)])
        after = self._score_estimates(
            rest + [self.perf_model.estimate_group(
                survivors + list(replacements), m)])
        threshold = self.config.scheduler.regroup_benefit_threshold
        accepted = after >= before * (1.0 - threshold)
        if self._trace is not None:
            self._instant(
                "plan-patch", group=group.group_id,
                finished=target.job_id, kind=kind,
                replacements=[item.job_id for item in replacements],
                before=round(before, 4), after=round(after, 4),
                accepted=accepted)
        return accepted

    def _escalate(self, anchor: GroupRuntime) -> None:
        """§IV-B4 case (2) escalation: regroup over a growing scope.

        Scopes grow from the repaired group outward through the groups
        with the fewest jobs; each candidate plan is scored over the
        whole cluster and the smallest-scope plan wins unless a larger
        one beats it by more than the 5% preference.  When even the
        largest scope's best case cannot clear the regroup threshold,
        no candidate can, and Algorithm 1 is not run at all; and the
        growing stops once no larger scope could displace the plan
        chosen so far (:func:`~repro.core.regroup.settled`).
        """
        others = sorted((g for g in self.groups.values()
                         if g is not anchor), key=lambda g: g.n_jobs)
        scopes = [[anchor, *others[:k]] for k in
                  range(min(len(others), _MAX_ESCALATION_GROUPS) + 1)]
        current = self._score_estimates(self._live_estimates())
        threshold = self.config.scheduler.regroup_benefit_threshold
        bound = (self._best_case_score(scopes[-1])
                 if self._may_skip_planning else None)
        # Every candidate of every scope scores at most ``top``.
        top = math.inf if bound is None \
            else bound * (1.0 + _BOUND_ROUNDING)
        pruned = top <= current * (1.0 + threshold)
        stopped = False
        # (pool size, cluster score) per planned scope, and its plan.
        candidates: list[tuple[int, float]] = []
        plans: list[tuple[SchedulePlan, set[str]]] = []
        for scope in () if pruned else scopes:
            # Pools are nested, so this scope's pool is the smallest of
            # every scope still to plan.
            if candidates and bound is not None and settled(
                    candidates, top, len(self._scope_pool(scope))):
                stopped = True
                break
            scoped = self._plan_scope(scope)
            if scoped is None:
                continue
            plan, pool, _ = scoped
            scope_ids = {g.group_id for g in scope}
            candidates.append((len(pool), self._score_estimates(
                self._live_estimates(exclude_groups=scope_ids)
                + [group.estimate for group in plan.groups])))
            plans.append((plan, scope_ids))

        applied = False
        if candidates:
            chosen_index = prefer_fewer_jobs(candidates)
            assert chosen_index is not None
            score = candidates[chosen_index][1]
            plan, scope_ids = plans[chosen_index]
            # Expected benefit below 5% of U: skip regrouping.
            applied = score > current * (1.0 + threshold)
        self.escalations_pruned += pruned
        self.escalations_settled += stopped
        if self._trace is not None:
            self._instant(
                "escalate", group=anchor.group_id,
                current=round(current, 4),
                bound=None if bound is None else round(bound, 4),
                threshold=threshold, pruned=pruned, settled=stopped,
                scopes_evaluated=len(candidates), applied=applied)
        if applied:
            self._apply_plan(plan, scope_group_ids=scope_ids)

    def _best_case_score(self, scope: Sequence[GroupRuntime]) -> float:
        """Upper bound on the cluster score of any plan for ``scope``.

        Each group's Eq. 3 components are at most 1 (Eq. 1 takes the
        max of the sums), so its score is at most 1; Algorithm 1 grants
        at most the scope's budget; and Eq. 4 is linear in m_g·U(g).
        So the groups outside the scope keep their score, and at best
        every budgeted machine scores 1.  Adding group g to the scope
        raises the bound by m_g·(1 − score_g) ≥ 0: the largest scope
        bounds every smaller one.
        """
        scope_ids = {g.group_id for g in scope}
        rest = sum(estimate.m * self.perf_model.score(estimate.utilization)
                   for estimate in self._live_estimates(
                       exclude_groups=scope_ids))
        return (rest + self._scope_budget(scope)) / self.cluster.size

    def _scope_budget(self, groups: Sequence[GroupRuntime]) -> int:
        """Machines Algorithm 1 may hand out over ``groups``: theirs
        plus the free ones."""
        return sum(g.n_machines for g in groups) + self.cluster.n_free

    def _plan_scope(self, groups: Sequence[GroupRuntime]) -> \
            tuple[SchedulePlan, list[JobMetrics], int] | None:
        """Algorithm 1 over ``groups`` and the idle capacity.

        The pool is :meth:`_scope_pool`, the budget
        :meth:`_scope_budget`.  The periodic check, the §IV-B4
        escalation and free-machine admission all plan through here.
        Returns ``(plan, pool, budget)``, or None when there is nothing
        to plan or no plan fits.
        """
        budget = self._scope_budget(groups)
        pool = self._scope_pool(groups)
        if budget < 1 or not pool:
            return None
        plan = self.scheduler.schedule(pool, budget)
        return None if plan is None else (plan, pool, budget)

    def _scope_pool(self, groups: Sequence[GroupRuntime]) -> \
            list[JobMetrics]:
        """The jobs Algorithm 1 plans over ``groups``: theirs that have
        metrics and are not still profiling, plus every paused job."""
        pool = self._metrics_of(j for g in groups for j in g.jobs()
                                if j.state is not JobState.PROFILING)
        pool += self._metrics_of(self.jobs_in_state(JobState.PAUSED))
        return pool

    # --------------------------------------------------- waiting-pool drain

    def _admit_paused_to_free_machines(self) -> None:
        """Build new groups for paused jobs when machines are idle."""
        scoped = self._plan_scope(())
        if scoped is not None:
            plan, pool, budget = scoped
            self._apply(plan_decision(plan, budget),
                        (metrics.job_id for metrics in pool))

    def _admit(self, group: GroupRuntime, start: GroupStart) -> None:
        """A job still running elsewhere moves into ``group`` at its next
        iteration boundary; any other joins it now."""
        for job_id in start.job_ids:
            job = self.jobs[job_id]
            if job.group_id is not None:
                self._route(job, group.group_id)
            else:
                self._join(job, group)

    def _route(self, job: Job, target: str) -> None:
        """Send ``job`` to ``target`` (a group id or a plan slot): it
        joins there once paused, so a job running elsewhere is asked to
        pause at its next iteration boundary (§IV-B4)."""
        self._pending_moves[job.job_id] = target
        if job.group_id is not None:
            self.groups[job.group_id].request_pause(job.job_id)

    def _join(self, job: Job, group: GroupRuntime) -> bool:
        """Start ``job``, which runs in no group, in ``group`` now.

        A job without metrics profiles there (§IV-B1); one with metrics
        resumes as RUNNING, from its checkpoint once it has migrated.
        Returns False, leaving the job where it is, when it is done,
        was placed by a more recent decision, or does not fit: plans
        and bundles are admitted job by job, and each admission shrinks
        the group's memory headroom.
        """
        if job.is_done or job.group_id is not None \
                or not group.can_admit(job):
            return False
        restore = False
        if self.profiler.has(job.job_id):
            restore = job.migrations > 0
            self._pending_moves.pop(job.job_id, None)
            if job.state is not JobState.RUNNING:
                job.transition(JobState.RUNNING)
        else:
            job.transition(JobState.PROFILING)
            self._profiling_iterations[job.job_id] = 0
        admitted = group.add_job(job, restore=restore)
        assert admitted  # can_admit held, so admission cannot fail
        self._note_recovered(job)
        if restore:
            self.migration_overhead_seconds += \
                self.cost_model.disk.restore_seconds(
                    self.cost_model.checkpoint_bytes(job.spec,
                                                     group.n_machines))
        self._note_membership_change(group)
        return True

    # ------------------------------------------------------ plan application

    def _apply_plan(self, plan: SchedulePlan,
                    scope_group_ids: set[str]) -> None:
        """Migrate from the current grouping (within scope) to ``plan``.

        Plan groups are matched to live groups with the same machine
        count by job overlap; matched groups stay alive and only the
        differing jobs move.  Unmatched live groups drain fully; their
        machines then form the plan's remaining groups.
        """
        if self._trace is not None:
            self._trace.counter("scheduler.regroups").add(1)
            self._instant("apply-plan", n_groups=len(plan.groups),
                          n_jobs=plan.n_jobs,
                          machines=plan.machines_used,
                          score=round(plan.score, 4))
        self._last_apply_time = self.sim.now
        # Sorted, not set order: the greedy matching below breaks
        # overlap ties by iteration order, so hash-order iteration
        # would make regroup migrations differ across processes.
        live = {gid: self.groups[gid] for gid in sorted(scope_group_ids)
                if gid in self.groups}

        # Greedy max-overlap matching among same-sized groups.
        pairs = []
        for index, group_plan in enumerate(plan.groups):
            wanted = set(group_plan.job_ids)
            for gid, group in live.items():
                if group.n_machines != group_plan.n_machines:
                    continue
                overlap = len(wanted & set(group.job_ids))
                if overlap > 0:
                    pairs.append((overlap, index, gid))
        pairs.sort(reverse=True)
        matched_plan: dict[int, str] = {}
        matched_live: set[str] = set()
        for _overlap, index, gid in pairs:
            if index in matched_plan or gid in matched_live:
                continue
            matched_plan[index] = gid
            matched_live.add(gid)

        # Routing table: where every planned job must end up.
        slots: list[tuple[str, int]] = []
        routes: dict[str, str] = {}
        for index, group_plan in enumerate(plan.groups):
            target = matched_plan.get(index)
            if target is None:
                target = f"slot:{index}"
                slots.append((target, group_plan.n_machines))
            for job_id in group_plan.job_ids:
                routes[job_id] = target

        # Pause what must move; drain unmatched groups entirely.
        draining: set[str] = set()
        for gid, group in live.items():
            if gid in matched_live:
                for job in group.jobs():
                    if job.state is JobState.PROFILING:
                        continue  # let profiling finish undisturbed
                    if routes.get(job.job_id) != gid:
                        group.request_pause(job.job_id)
            else:
                group.request_pause_all()
                draining.add(gid)

        for job_id, target in routes.items():
            job = self.jobs.get(job_id)
            if job is None or job.is_done or job.group_id == target:
                continue
            self._route(job, target)

        self._rebuild = _Rebuild(draining=draining, slots=slots)
        self._settle_routes()
        self._check_rebuild()

    def _check_rebuild(self) -> None:
        """Once the drain finishes, build the plan's fresh groups."""
        rebuild = self._rebuild
        if rebuild is None:
            return
        for group_id in list(rebuild.draining):
            # Live: a crash discards its own group from the drain.
            group = self.groups[group_id]
            if group.is_idle:
                self._stop_group(group)
                rebuild.draining.discard(group_id)
        # Eagerly materialize any slot whose machines are already free:
        # waiting for the whole drain would leave the cluster idle for
        # a full iteration of the slowest draining group.
        remaining_slots = []
        for slot, n_machines in rebuild.slots:
            if rebuild.draining and n_machines > self.cluster.n_free:
                remaining_slots.append((slot, n_machines))
                continue
            # The slot opens for the jobs still routed to it, if any: a
            # crash may have displaced them all.
            routed = tuple(job_id for job_id, target
                           in self._pending_moves.items()
                           if target == slot
                           and not self.jobs[job_id].is_done)
            n_machines = min(n_machines, self.cluster.n_free)
            if routed and n_machines >= 1:
                self._apply((GroupStart(routed, n_machines),), routed)
            # Whoever is still routed here did not fit (or is done) and
            # returns to the waiting pool.
            for job_id in [job_id for job_id, target
                           in self._pending_moves.items()
                           if target == slot]:
                del self._pending_moves[job_id]
        rebuild.slots = remaining_slots
        if rebuild.draining:
            self._settle_routes()
            return
        self._rebuild = None
        self._settle_routes()
        self._pump()

    def _settle_routes(self) -> None:
        """Resume every paused job whose move target exists and fits."""
        for job_id, target in list(self._pending_moves.items()):
            job = self.jobs.get(job_id)
            if job is None or job.is_done:
                self._pending_moves.pop(job_id, None)
                continue
            if job.state is not JobState.PAUSED:
                continue  # still draining out of its old group
            group = self.groups.get(target)
            if group is None:
                continue  # target slot not created yet
            if not self._join(job, group) \
                    and group.pause_pending_count == 0:
                # Nothing will leave the target to make room: the route
                # is stale, return the job to the general waiting pool.
                self._pending_moves.pop(job_id, None)

    # ------------------------------------------------------ scoring helpers

    def _metrics_of(self, jobs: Iterable[Job],
                    skip: str | None = None) -> list[JobMetrics]:
        """The profiled metrics of ``jobs`` (bar ``skip``), in order."""
        return self.profiler.profiled(job.job_id for job in jobs
                                      if job.job_id != skip)

    def _group_estimate(self, group: GroupRuntime,
                        exclude_job: str | None = None) -> \
            GroupEstimate | None:
        """One group's Eq. 1-3 estimate over its profiled metrics (bar
        ``exclude_job``), or None when none of its jobs has any."""
        self.estimate_cache_misses += 1
        metrics = self._metrics_of(group.jobs(), skip=exclude_job)
        return self.perf_model.estimate_group(
            metrics, group.n_machines) if metrics else None

    def _live_estimates(self, exclude_groups: Collection[str] = ()) -> \
            list[GroupEstimate]:
        estimates = []
        for group_id, group in self.groups.items():
            if group_id in exclude_groups:
                continue
            estimate = self._group_estimate(group)
            if estimate is not None:
                estimates.append(estimate)
        return estimates

    def _score_estimates(self, estimates: Sequence[GroupEstimate],
                         total_machines: int | None = None) -> float:
        """Predicted cluster score of ``estimates`` over
        ``total_machines`` (the whole cluster by default)."""
        if not estimates:
            return 0.0
        if total_machines is None:
            total_machines = self.cluster.size
        utilization = self.perf_model.cluster_utilization(
            estimates, total_machines=total_machines)
        return self.perf_model.score(utilization)

    # ------------------------------------------------- decision bookkeeping

    def _note_membership_change(self, group: GroupRuntime) -> None:
        """Close the group's open prediction epoch and start a new one."""
        now = self.sim.now
        self._close_decision(group, now)
        metrics = self._metrics_of(group.jobs())
        if not metrics or len(metrics) != group.n_jobs:
            # A job without metrics (still profiling) consumes resources
            # the model cannot see; such epochs are not comparable.
            return
        estimate = self.perf_model.estimate_group(metrics,
                                                  group.n_machines)
        self.group_shape_log.append((now, group.n_machines, len(metrics)))
        record = DecisionRecord(
            time=now, group_id=group.group_id,
            n_machines=group.n_machines,
            job_ids=estimate.job_ids,
            predicted_t_group=estimate.t_group_iteration,
            predicted_u_cpu=estimate.utilization.cpu,
            predicted_u_net=estimate.utilization.net)
        self.recorder.decisions.append(record)
        self._open_decisions[group.group_id] = (
            len(self.recorder.decisions) - 1, now)

    def _close_decision(self, group: GroupRuntime, t_end: float) -> None:
        open_record = self._open_decisions.pop(group.group_id, None)
        if open_record is None:
            return
        index, t_start = open_record
        record = self.recorder.decisions[index]
        # Steady-state cycles only: drop each job's first cycle of the
        # epoch (pipeline fill after a membership change stretches it).
        cycles = []
        seen_once: set[str] = set()
        for cycle in sorted((c for c in group.cycles
                             if t_start <= c.finished_at <= t_end
                             and c.duration > 0),
                            key=lambda c: c.finished_at):
            if cycle.job_id in seen_once:
                cycles.append(cycle)
            else:
                seen_once.add(cycle.job_id)
        if len(cycles) >= 2 * max(1, len(record.job_ids)):
            record.measured_t_group = (sum(c.duration for c in cycles)
                                       / len(cycles))
        if t_end - t_start > 0:
            record.measured_u_cpu = busy_fraction(group.cpu, t_start,
                                                  t_end)
            record.measured_u_net = busy_fraction(group.net, t_start,
                                                  t_end)
        if self._trace is not None:
            self._instant(
                "epoch-close", group=group.group_id,
                n_machines=record.n_machines, n_jobs=len(record.job_ids),
                predicted_t_group=round(record.predicted_t_group, 3),
                measured_t_group=(
                    None if record.measured_t_group is None
                    else round(record.measured_t_group, 3)),
                predicted_u_cpu=round(record.predicted_u_cpu, 4),
                measured_u_cpu=(
                    None if record.measured_u_cpu is None
                    else round(record.measured_u_cpu, 4)))
