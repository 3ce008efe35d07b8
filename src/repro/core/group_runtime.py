"""Simulated execution of one job group (§IV-A's execution model).

A :class:`GroupRuntime` owns the shared resources of one set of
machines and runs each co-located job as a simulated process cycling
through PULL -> COMP -> PUSH subtasks (Fig. 1).  The resource policies
implement the three execution disciplines compared in the paper:

* ``HARMONY`` — coordinated subtasks: one COMP at a time on the CPU, a
  primary plus reduced-rate secondary COMM on the network (Fig. 7),
  and dynamic data reloading.
* ``NAIVE`` — the Gandiva-style baseline: subtasks of co-located jobs
  contend through processor sharing with an interference penalty, no
  spill (Fig. 5a).
* ``ISOLATED`` — a single job running alone on dedicated machines.

The paper models a group's workers as advancing in lockstep (the
SubTask Synchronizer barriers each step across workers), so the group
is simulated as one symmetric pipeline whose CPU/NIC stand for every
machine's; the barrier latency and straggler effects appear as the
``barrier_overhead`` duration factor.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Protocol

from repro.cluster.memory import MemoryLedger
from repro.config import GB, SimConfig
from repro.core.job import Job
from repro.core.memory_manager import FootprintTable, GroupMemoryManager
from repro.errors import OutOfMemoryError, SimulationError
from repro.sim import (
    Event,
    RandomStreams,
    RateResource,
    Simulator,
    primary_secondary,
    processor_sharing,
    serial,
)
from repro.sim.fastpath import GroupBatchEngine
from repro.sim.resources import ResourceAudit, level_samples
from repro.workloads.costmodel import CostModel


class ExecutionMode(enum.Enum):
    """Execution discipline of a group (see module docstring)."""

    HARMONY = "harmony"
    NAIVE = "naive"
    ISOLATED = "isolated"

    @property
    def coordinated(self) -> bool:
        return self is not ExecutionMode.NAIVE

    @property
    def spill_enabled(self) -> bool:
        return self is ExecutionMode.HARMONY


#: Interference penalty of uncoordinated sharing (naive baseline):
#: effective throughput with k tasks is 1 / (1 + phi * (k - 1)).
NAIVE_CPU_INTERFERENCE = 0.08
NAIVE_NET_INTERFERENCE = 0.05

#: Worst-case slowdown of a multi-tenant bursty-traffic spike on a COMM
#: subtask (``ExecutionConfig.comm_interference_probability``).
COMM_INTERFERENCE_MAX = 3.0

#: Display order of a group's trace lanes: CPU first, then NET, DISK.
_LANE_SORT = {"cpu": 0, "net": 1, "disk": 2}


class GroupHooks(Protocol):
    """Callbacks a :class:`GroupRuntime` delivers to its master.

    Every hook runs at its true simulated time with true state.
    ``on_iteration`` may be ``None`` (no per-iteration callback), which
    also lets a single-job group take the fast path's solo lane
    (:mod:`repro.sim.fastpath`).
    """

    on_iteration: Callable[[Job, "GroupRuntime"], None] | None

    def on_job_finished(self, job: Job, group: "GroupRuntime") -> None: ...

    def on_job_paused(self, job: Job, group: "GroupRuntime") -> None: ...

    def on_job_failed(  # pragma: no cover - protocol stub
            self, job: Job, group: "GroupRuntime",
            error: Exception) -> None: ...


@dataclass(frozen=True)
class GroupAudit:
    """Final (or in-flight) conservation snapshot of one group.

    Consumed by :mod:`repro.check`: the per-resource ledgers plus the
    policy facts the checker needs to bound busy time by served work
    (a serial CPU delivers exactly its busy seconds; a
    primary+secondary NIC delivers at most ``net_rate_cap`` times its
    busy seconds).
    """

    group_id: str
    mode: str
    n_machines: int
    started_at: float
    stopped_at: float | None
    crashed: bool
    cpu: ResourceAudit
    net: ResourceAudit
    disk: ResourceAudit
    #: True when the CPU serves one COMP at a time (coordinated modes).
    cpu_serial: bool
    #: Max total NIC service rate relative to capacity (Fig. 7's
    #: primary + secondary share under coordinated modes, else 1.0).
    net_rate_cap: float


@dataclass(slots=True)
class CycleRecord:
    """One completed job iteration inside a group."""

    job_id: str
    finished_at: float
    duration: float
    t_cpu_measured: float
    t_net_measured: float
    gc_overhead: float
    stall: float
    #: The job's disk-block ratio when the iteration ran (§V-G stats).
    alpha: float = 0.0


class GroupRuntime:
    """Live execution state of one job group on a machine set."""

    def __init__(self, sim: Simulator, group_id: str,
                 machine_ids: tuple[int, ...], mode: ExecutionMode,
                 cost_model: CostModel, config: SimConfig,
                 streams: RandomStreams, hooks: GroupHooks,
                 footprints: FootprintTable | None = None):
        if not machine_ids:
            raise SimulationError(f"group {group_id} has no machines")
        self.sim = sim
        self.group_id = group_id
        self.machine_ids = tuple(machine_ids)
        self.mode = mode
        self.cost_model = cost_model
        self.config = config
        self.streams = streams
        self.hooks = hooks

        # Observability (repro.trace): None when tracing is off, so the
        # per-subtask hot path is gated by one attribute check.
        self._trace = sim.tracer
        self._lanes: dict[tuple[str, str], object] = {}
        lo, hi = min(machine_ids), max(machine_ids)
        self._trace_process = (
            f"machines {lo}-{hi} · {group_id}" if len(machine_ids) > 1
            else f"machine {lo} · {group_id}")

        execution = config.execution
        if mode is ExecutionMode.NAIVE:
            cpu_policy = processor_sharing(NAIVE_CPU_INTERFERENCE)
            net_policy = processor_sharing(NAIVE_NET_INTERFERENCE)
        else:
            cpu_policy = serial()
            net_policy = primary_secondary(execution.secondary_comm_rate)
        self.cpu = RateResource(sim, cpu_policy, f"{group_id}:cpu")
        self.net = RateResource(sim, net_policy, f"{group_id}:net")
        # Disk: reloads/checkpoints of co-located jobs share bandwidth.
        # Its segments feed only the traced level gauge.
        self.disk = RateResource(sim, processor_sharing(),
                                 f"{group_id}:disk",
                                 record_segments=sim.tracer is not None)
        if self._trace is not None:
            self._trace.instant(
                "group-start", cat="lifecycle", args={
                    "group": group_id, "machines": list(machine_ids),
                    "mode": mode.value})

        self.ledger = MemoryLedger(cost_model.spec)
        #: The memory-feasibility rule, shared with the master that
        #: started this group (or this group's own).
        self.footprints = footprints if footprints is not None \
            else FootprintTable(cost_model, config.memory,
                                mode.spill_enabled)
        self.memory = GroupMemoryManager(self.ledger, self.footprints,
                                         n_machines=self.n_machines)
        self.started_at = sim.now
        self.stopped_at: float | None = None
        self.crashed = False
        self.cycles: list[CycleRecord] = []
        self._jobs: dict[str, Job] = {}
        self._processes: dict[str, "object"] = {}
        self._pause_requested: set[str] = set()
        self._duration_jitter_cv = execution.duration_jitter_cv * (
            3.0 if mode is ExecutionMode.NAIVE else 1.0)
        # Fault-injection multipliers (repro.faults): the group advances
        # in lockstep, so one straggling machine stretches every COMP
        # subtask, and a lossy link stretches every COMM subtask
        # (retransmits).  Overlapping windows compose multiplicatively.
        self._fault_cpu_factor = 1.0
        self._fault_net_factor = 1.0
        # Batched fast path (repro.sim.fastpath).
        self._engine = None
        if config.engine == "fast":
            self._engine = GroupBatchEngine(self)
            self._engine.attach()

    # -- inspection ------------------------------------------------------------

    @property
    def n_machines(self) -> int:
        return len(self.machine_ids)

    @property
    def job_ids(self) -> tuple[str, ...]:
        return tuple(self._jobs)

    @property
    def n_jobs(self) -> int:
        return len(self._jobs)

    def jobs(self) -> list[Job]:
        return list(self._jobs.values())

    @property
    def is_idle(self) -> bool:
        return not self._jobs

    # -- membership ----------------------------------------------------------------

    def can_admit(self, job: Job) -> bool:
        """Memory-feasibility probe without side effects.

        Admission aims at ``TARGET_PRESSURE``, not the OOM line:
        co-locating a job that would push the group deep into GC
        territory defeats the purpose (§IV-C balances exactly this).
        The master's memory floors read the same footprint table and
        spill basis.
        """
        return self.footprints.admits(self._jobs.values(), job,
                                      self.n_machines)

    def add_job(self, job: Job, restore: bool = False,
                start_delay: float = 0.0) -> bool:
        """Admit a job and start executing it.

        ``restore`` charges the §IV-B4 resume path: the model partition
        is read back from its checkpoint before iterations resume (input
        reloading happens through the normal initial-load path).
        ``start_delay`` holds the job's first PULL back by that many
        simulated seconds — the phase-offset stagger the interleaving
        policies plan with (the job is a group member immediately; only
        its pipeline entry is delayed).
        Returns False when the job does not fit in this group's memory.
        """
        if job.job_id in self._jobs:
            raise SimulationError(
                f"job {job.job_id} already in group {self.group_id}")
        if job.group_id is not None:
            raise SimulationError(
                f"job {job.job_id} is still a member of group "
                f"{job.group_id}; cannot also join {self.group_id}")
        if not 0.0 <= start_delay < math.inf:
            raise SimulationError(
                f"job {job.job_id}: start_delay {start_delay} must be "
                f"finite and >= 0")
        if not self.memory.admit(job):
            return False
        self._jobs[job.job_id] = job
        job.group_id = self.group_id
        self._processes[job.job_id] = self.sim.spawn(
            self._job_process(job, restore, start_delay),
            name=f"{self.group_id}/{job.job_id}")
        return True

    def request_pause(self, job_id: str) -> None:
        """Ask a job to pause at its next iteration boundary (§IV-B4)."""
        if job_id not in self._jobs:
            raise SimulationError(
                f"job {job_id} not in group {self.group_id}")
        self._pause_requested.add(job_id)

    def request_pause_all(self) -> None:
        for job_id in self._jobs:
            self._pause_requested.add(job_id)

    @property
    def pause_pending_count(self) -> int:
        """Jobs asked to pause that have not reached a boundary yet."""
        return len(self._pause_requested & set(self._jobs))

    def check_group_memory(self) -> OutOfMemoryError | None:
        """OOM probe used by the uncoordinated baselines (Fig. 4)."""
        try:
            self.ledger.check_oom()
        except OutOfMemoryError as error:
            return error
        return None

    # -- observability helpers -------------------------------------------------------

    def _lane(self, resource: str, job_id: str):
        """The (group-process, per-job resource thread) trace track."""
        key = (resource, job_id)
        track = self._lanes.get(key)
        if track is None:
            track = self._trace.track(
                self._trace_process, f"{resource} · {job_id}",
                process_sort=min(self.machine_ids),
                thread_sort=_LANE_SORT[resource] * 1000 + len(self._lanes))
            self._lanes[key] = track
        return track

    def _trace_service(self, resource: str, job_id: str, name: str,
                       record, cat: str) -> None:
        """One served subtask as (optional wait span +) service span.

        The wait span is the time queued behind co-located jobs'
        subtasks (§IV-A contention); the service span is the actual
        execution window, so COMP/COMM overlap across jobs is directly
        visible on the timeline.
        """
        lane = self._lane(resource, job_id)
        if record.started_at - record.submitted_at > 1e-9:
            self._trace.complete(lane, f"wait·{name}",
                                 record.submitted_at, record.started_at,
                                 cat="wait")
        self._trace.complete(lane, name, record.started_at,
                             record.finished_at, cat=cat)

    # -- job execution ---------------------------------------------------------------

    def _job_process(self, job: Job, restore: bool,
                     start_delay: float = 0.0):
        if start_delay > 0:
            # Planned phase offset: enter the pipeline late so this
            # job's COMM bursts land in its partners' COMP gaps.
            yield self.sim.at(self.sim.now + start_delay)
        job_id = job.job_id
        spec = job.spec
        m = self.n_machines
        profile = self.cost_model.profile(spec, m)
        barrier = 1.0 + self.config.execution.barrier_overhead
        trace = self._trace
        # Hot-loop locals: the jitter stream name is fixed for the
        # job's lifetime; build it once instead of 3x per iteration.
        jitter_name = f"duration:{self.group_id}:{job_id}"
        jitter_cv = self._duration_jitter_cv
        on_iteration = self.hooks.on_iteration
        # Per-group constants: the config is frozen, the ledger is the
        # group's for life and the footprint table's ``adaptive`` never
        # changes.  A call that would return at once under them (a
        # jitter draw at cv 0, an interference draw at probability 0,
        # the hill climber with adaptation off) is not made; skipping
        # a factor that would be 1.0 drops a ``* 1.0``, which is exact.
        jitter = self.streams.jitter if jitter_cv > 0.0 else None
        interference = (self._comm_interference
                        if self.config.execution
                        .comm_interference_probability > 0.0 else None)
        gc_inflation = self.memory.ledger.gc_inflation
        record_iteration = (self.memory.record_iteration
                            if self.footprints.adaptive else None)
        # Bytes moved per COMM subtask, for the registry's throughput
        # counters (PULL is a no-op under all-reduce).
        pull_bytes = (spec.comm_gb_per_direction * GB
                      if profile.t_pull > 0 else 0.0)
        push_bytes = spec.comm_gb_per_direction * GB

        if self.mode is ExecutionMode.NAIVE:
            oom = self.check_group_memory()
            if oom is not None:
                self._drop_job(job)
                self.hooks.on_job_failed(job, self, oom)
                return

        # Fast path (repro.sim.fastpath): batch the whole job — initial
        # load plus every iteration — in closed form when the group is
        # isolated enough that nothing can interleave with its
        # timeline.  While batched, awaited subtasks are served fused
        # (serve_solo returns the record directly, no event, no yield);
        # otherwise the classic submit-and-yield path runs.
        engine = self._engine
        batched = engine is not None and engine.open(self)

        # Initial load: restore the model checkpoint if migrating, then
        # stream the memory-side input blocks from disk.
        load_seconds = 0.0
        if restore:
            load_seconds += self.cost_model.disk.restore_seconds(
                self.cost_model.checkpoint_bytes(spec, m))
        memory_side_bytes = spec.input_gb * (1.0 - job.alpha) / m * 1024**3
        load_seconds += self.cost_model.disk.read_seconds(memory_side_bytes)
        if load_seconds > 0:
            record_load = (self.disk.serve_solo(load_seconds)
                           if batched else
                           (yield self.disk.submit(load_seconds)))
            if trace is not None:
                self._trace_service("disk", job_id,
                                    "RESTORE+LOAD" if restore else "LOAD",
                                    record_load, "load")

        reload_event: Event | None = self._submit_reload(job)
        finished = False

        # A job leaves only by a pause or by finishing: the iteration
        # that takes remaining_iterations to 0 finishes it, and a
        # finished job never joins a group again.
        while True:
            if job_id in self._pause_requested:
                break
            cycle_start = self.sim.now

            # PULL subtask (network).
            t_pull = profile.t_pull * barrier
            if jitter is not None:
                t_pull *= jitter(jitter_name, jitter_cv)
            if interference is not None:
                t_pull *= interference()
            t_pull *= self._fault_net_factor
            record_pull = (self.net.serve_solo(t_pull) if batched else
                           (yield self.net.submit(t_pull)))
            if trace is not None and t_pull > 0:
                self._trace_service("net", job_id, "PULL", record_pull,
                                    "comm")

            # Wait for this iteration's disk-side blocks (§IV-C): the
            # reload was issued in the background one iteration ago.
            stall = 0.0
            if reload_event is not None:
                before = self.sim.now
                if batched:
                    # The reload ran in the background while the batch
                    # skipped ahead; drain it here, where the reference
                    # engine would block (its completion may lie behind
                    # the warped clock — await_background restores
                    # max(now, completion), like the real wait does).
                    # Nothing else drains the parked disk inside a
                    # batch, so the reload is still pending here.
                    engine.await_background(self.disk)
                    reload_record = reload_event.value
                else:
                    reload_record = yield reload_event
                stall = self.sim.now - before
                if trace is not None:
                    self._trace_service("disk", job_id, "RELOAD",
                                        reload_record, "reload")
                    if stall > 1e-9:
                        trace.complete(self._lane("cpu", job_id),
                                       "RELOAD-STALL", before,
                                       self.sim.now, cat="stall")

            # COMP subtask (CPU), inflated by GC pressure.
            gc_factor = gc_inflation()
            t_comp_base = profile.t_comp * barrier
            if jitter is not None:
                t_comp_base *= jitter(jitter_name, jitter_cv)
            t_comp_base *= self._fault_cpu_factor
            t_comp = t_comp_base * gc_factor
            record_comp = (self.cpu.serve_solo(t_comp) if batched else
                           (yield self.cpu.submit(t_comp)))
            if trace is not None:
                self._trace_service("cpu", job_id, "COMP", record_comp,
                                    "comp")

            # Kick off the next iteration's background reload.
            reload_event = self._submit_reload(job)

            # PUSH subtask (network).
            t_push = profile.t_push * barrier
            if jitter is not None:
                t_push *= jitter(jitter_name, jitter_cv)
            if interference is not None:
                t_push *= interference()
            t_push *= self._fault_net_factor
            record_push = (self.net.serve_solo(t_push) if batched else
                           (yield self.net.submit(t_push)))
            if trace is not None:
                self._trace_service("net", job_id, "PUSH", record_push,
                                    "comm")

            now = self.sim.now
            # Profiled durations are the subtasks' own service demands
            # (what a real runtime measures from bytes moved / records
            # processed), not wall spans inflated by queueing behind
            # co-located jobs — the whole point of profiling is to
            # predict the jobs' standalone resource needs (§IV-B1).
            cycle = CycleRecord(
                job_id=job_id,
                finished_at=now,
                duration=now - cycle_start,
                t_cpu_measured=record_comp.work,
                t_net_measured=record_pull.work + record_push.work,
                gc_overhead=t_comp_base * (gc_factor - 1.0),
                stall=stall,
                alpha=job.alpha)
            self.cycles.append(cycle)
            if record_iteration is not None:
                record_iteration(job, cycle.gc_overhead, stall,
                                 busy_seconds=cycle.duration)
            if trace is not None:
                # Registry counters survive regroupings by design: they
                # are keyed by job, not by the group executing it.
                registry = trace.registry
                prefix = f"job.{job_id}"
                registry.counter(f"{prefix}.steps").add(1)
                registry.counter(f"{prefix}.bytes_pulled").add(pull_bytes)
                registry.counter(f"{prefix}.bytes_pushed").add(push_bytes)
                served = (record_pull.work + record_comp.work
                          + record_push.work)
                registry.counter(
                    f"{prefix}.barrier_wait_seconds").add(
                        served * (1.0 - 1.0 / barrier))
                if stall > 0:
                    registry.counter(f"{prefix}.stall_seconds").add(stall)
                if cycle.gc_overhead > 0:
                    registry.counter(f"{prefix}.gc_seconds").add(
                        cycle.gc_overhead)
                registry.gauge(f"{prefix}.alpha").set(job.alpha)
            finished = job.complete_iteration()
            if on_iteration is not None:
                on_iteration(job, self)
            if finished:
                break

        if batched:
            # Park until the batch's end time arrives on the real event
            # queue: terminal hooks (finish/pause bookkeeping, master
            # re-scheduling) must run at real time, after every event
            # the rest of the cluster has queued before then.
            yield engine.close()
        if reload_event is not None:
            self.disk.cancel(reload_event)
        if finished:
            self._drop_job(job)
            self.hooks.on_job_finished(job, self)
        else:
            # Pause path: wait for the ongoing iteration to end (already
            # guaranteed here), checkpoint the model parameters to disk.
            checkpoint = self.cost_model.disk.checkpoint_seconds(
                self.cost_model.checkpoint_bytes(spec, m))
            record_ckpt = yield self.disk.submit(checkpoint)
            if trace is not None:
                self._trace_service("disk", job_id, "CHECKPOINT",
                                    record_ckpt, "checkpoint")
                trace.counter(f"job.{job_id}.checkpoints").add(1)
            self._drop_job(job)
            self.hooks.on_job_paused(job, self)

    def _submit_reload(self, job: Job) -> Event | None:
        if not self.footprints.spill:
            return None
        seconds = self.memory.reload_seconds(job)
        if seconds <= 0:
            return None
        if self._trace is not None:
            prefix = f"job.{job.job_id}"
            self._trace.counter(f"{prefix}.reloads").add(1)
            self._trace.counter(f"{prefix}.reload_bytes").add(
                self.cost_model.reload_bytes_per_iteration(
                    job.spec, self.n_machines, job.alpha))
        return self.disk.submit(seconds)

    def _comm_interference(self) -> float:
        """Occasional bursty-traffic slowdown on a COMM subtask (§VI
        multi-tenant interference; off by default, and then not
        called)."""
        probability = self.config.execution.comm_interference_probability
        rng = self.streams.stream(f"interference:{self.group_id}")
        if rng.random() >= probability:
            return 1.0
        return float(rng.uniform(1.5, COMM_INTERFERENCE_MAX))

    def _drop_job(self, job: Job) -> None:
        self.memory.evict(job)
        self._jobs.pop(job.job_id, None)
        self._processes.pop(job.job_id, None)
        self._pause_requested.discard(job.job_id)
        # add_job sets a member's group_id and refuses a job already in
        # a group; only this line and crash() clear it.
        job.group_id = None

    # -- failure injection (§VI fault tolerance) ----------------------------------

    def apply_cpu_slowdown(self, factor: float) -> None:
        """Open a straggler window: COMP subtasks stretch by ``factor``."""
        if factor <= 0:
            raise SimulationError(f"slowdown factor must be > 0: {factor}")
        self._fault_cpu_factor *= factor

    def clear_cpu_slowdown(self, factor: float) -> None:
        """Close a straggler window previously opened with ``factor``."""
        self._fault_cpu_factor /= factor

    def apply_net_penalty(self, factor: float) -> None:
        """Open a lossy-link window: COMM subtasks stretch by ``factor``."""
        if factor <= 0:
            raise SimulationError(f"penalty factor must be > 0: {factor}")
        self._fault_net_factor *= factor

    def clear_net_penalty(self, factor: float) -> None:
        """Close a lossy-link window previously opened with ``factor``."""
        self._fault_net_factor /= factor

    def crash(self) -> list[Job]:
        """A machine/process failure takes the whole group down.

        "A machine/process failure (e.g., OOM) may have an impact on
        all co-located jobs" (§VI).  Every job process is killed
        mid-flight (no checkpoint is written — that is the point of a
        crash) and the group's resources are abandoned.  Returns the
        jobs that were running so the master can restart them from
        their last checkpoint.
        """
        if self._engine is not None and self._engine.active:
            # A solo batch runs inside one process step, so nothing can
            # deliver a crash into it; one that lands there is a bug.
            raise SimulationError(
                f"group {self.group_id} crashed inside an open "
                f"fast-path batch")
        victims = list(self._jobs.values())
        for process in self._processes.values():
            process.kill()
        for job in victims:
            self.memory.evict(job)
            job.group_id = None
        self._jobs.clear()
        self._processes.clear()
        self._pause_requested.clear()
        # The killed processes leave their in-flight subtasks queued on
        # the shared resources; without purging, the resources would
        # keep serving work nobody is waiting for (phantom busy time).
        self.cpu.purge()
        self.net.purge()
        self.disk.purge()
        self.cpu.close_segments()
        self.net.close_segments()
        self.record_levels()
        self.stopped_at = self.sim.now
        self.crashed = True
        self._detach_engine()
        return victims

    # -- teardown -------------------------------------------------------------------

    def stop(self) -> None:
        """Freeze resource accounting; the group must be empty."""
        if self._jobs:
            raise SimulationError(
                f"stopping group {self.group_id} with live jobs: "
                f"{sorted(self._jobs)}")
        self.cpu.close_segments()
        self.net.close_segments()
        self.record_levels()
        self.stopped_at = self.sim.now
        self._detach_engine()

    def _detach_engine(self) -> None:
        """End of life: the engine lets go of the resources, which keep
        naming it as their wake owner, so the group is freed by
        reference counting once the last reference to it goes."""
        if self._engine is not None:
            self._engine.detach()

    def record_levels(self) -> None:
        """Trace the ``<group>.{cpu,net,disk}.level`` gauges.

        Derived after the fact from each resource's busy segments
        (sealed here), stamped with the segments' own times — so the
        wake paths carry no tracing and both engines yield the same
        series.  Called once, when the group stops or crashes, or at
        the end of a run that leaves it live.  No-op when untraced.
        """
        trace = self._trace
        if trace is None:
            return
        group_id = self.group_id
        for resource, gauge in (
                (self.cpu, trace.gauge(f"{group_id}.cpu.level")),
                (self.net, trace.gauge(f"{group_id}.net.level")),
                (self.disk, trace.gauge(f"{group_id}.disk.level"))):
            resource.close_segments()
            for when, level in level_samples(resource.segments):
                gauge.set_at(when, level)

    def audit(self) -> GroupAudit:
        """Conservation snapshot for :mod:`repro.check` (any time)."""
        execution = self.config.execution
        coordinated = self.mode.coordinated
        return GroupAudit(
            group_id=self.group_id,
            mode=self.mode.value,
            n_machines=self.n_machines,
            started_at=self.started_at,
            stopped_at=self.stopped_at,
            crashed=self.crashed,
            cpu=self.cpu.audit(),
            net=self.net.audit(),
            disk=self.disk.audit(),
            cpu_serial=coordinated,
            net_rate_cap=(1.0 + execution.secondary_comm_rate
                          if coordinated else 1.0))
